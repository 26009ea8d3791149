#include "src/adapt/net_estimator.h"

namespace thinc {
namespace {

// Only near-MSS segments qualify for packet-pair gap samples: small tail
// segments have disproportionate per-segment rounding in their tx time.
constexpr int64_t kMinSampleBytes = 1400;

}  // namespace

void NetEstimator::OnDelivery(int from, SimTime now, size_t bytes) {
  if (from != sender_) {
    return;
  }
  if (disturbed_) {
    // This segment's arrival was shifted in transit (retransmission,
    // reordering clamp, jitter compression): neither the gap ending at it
    // nor the gap starting from it measures serialization time. Breaking
    // the pairing here discards both.
    disturbed_ = false;
    prev_time_ = -1;
    prev_bytes_ = 0;
    return;
  }
  int64_t n = static_cast<int64_t>(bytes);
  if (prev_time_ >= 0 && n == prev_bytes_ && n >= kMinSampleBytes &&
      now > prev_time_) {
    SimTime gap = now - prev_time_;
    if (min_gap_ == 0 || gap < min_gap_) {
      min_gap_ = gap;
      gap_bytes_ = n;
    }
  }
  prev_time_ = now;
  prev_bytes_ = n;
}

void NetEstimator::OnDeliveryDisturbed(int from) {
  if (from != sender_) {
    return;
  }
  disturbed_ = true;
}

void NetEstimator::OnRttSample(int from, SimTime rtt) {
  if (from != sender_ || rtt < 0) {
    return;
  }
  rtt_ = rtt;
}

void NetEstimator::OnLinkChange() { Invalidate(); }

int64_t NetEstimator::BandwidthBps() const {
  if (min_gap_ <= 0) {
    return 0;
  }
  return gap_bytes_ * 8 * kSecond / min_gap_;
}

void NetEstimator::Invalidate() {
  prev_time_ = -1;
  prev_bytes_ = 0;
  disturbed_ = false;
  min_gap_ = 0;
  gap_bytes_ = 0;
  rtt_ = -1;
}

}  // namespace thinc
