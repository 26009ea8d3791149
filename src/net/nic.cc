#include "src/net/nic.h"

#include <algorithm>

#include "src/telemetry/metrics.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// Tag resolution: finish tags advance by seg_len * kTagScale / weight. The
// scale keeps integer division fair for small weights without risking int64
// overflow even over very long runs (bytes * 1024).
constexpr int64_t kTagScale = 1024;

}  // namespace

NicScheduler::NicScheduler(EventLoop* loop, int64_t bandwidth_bps)
    : loop_(loop), bandwidth_bps_(bandwidth_bps) {
  THINC_CHECK(bandwidth_bps > 0);
}

int NicScheduler::AttachFlow(int64_t weight, std::function<void()> kick) {
  THINC_CHECK(weight > 0);
  Flow f;
  f.weight = weight;
  f.kick = std::move(kick);
  // A late-attached flow must not be able to claim ancient virtual time and
  // monopolize the wire while it "catches up".
  f.finish_tag = vtime_;
  flows_.push_back(std::move(f));
  return static_cast<int>(flows_.size()) - 1;
}

size_t NicScheduler::parked_count() const {
  size_t n = 0;
  for (const Flow& f : flows_) {
    if (f.parked) {
      ++n;
    }
  }
  return n;
}

bool NicScheduler::TryReserve(int flow, int64_t seg_len, SimTime* depart) {
  THINC_CHECK(seg_len > 0);
  Flow& f = flows_[static_cast<size_t>(flow)];
  const SimTime now = loop_->now();
  if (free_at_ > now) {
    // Wire busy: park until the current segment's last bit is out.
    if (!f.parked) {
      f.parked = true;
      f.parked_since = now;
      static Counter* parks = MetricsRegistry::Get().GetCounter("net.nic.parks");
      parks->Inc();
    }
    ScheduleGrant();
    return false;
  }
  // Start-time fair queueing: the segment's start tag is the later of the
  // NIC virtual time and this flow's previous finish tag; the finish tag
  // advances by the weighted segment length.
  const int64_t start_tag = std::max(vtime_, f.finish_tag);
  // A parked flow with a smaller start tag is ahead of us in virtual time:
  // a flow whose retry happens to land at the instant the wire frees must
  // queue behind it, not jump the grant order (otherwise a backlogged flow
  // that re-tries at every depart time starves everyone parked).
  for (size_t i = 0; i < flows_.size(); ++i) {
    const Flow& p = flows_[i];
    if (!p.parked || static_cast<int>(i) == flow) {
      continue;
    }
    const int64_t p_start = std::max(vtime_, p.finish_tag);
    if (p_start < start_tag ||
        (p_start == start_tag && static_cast<int>(i) < flow)) {
      if (!f.parked) {
        f.parked = true;
        f.parked_since = now;
      }
      ScheduleGrant();
      return false;
    }
  }
  f.finish_tag = start_tag + seg_len * kTagScale / f.weight;
  vtime_ = start_tag;

  const SimTime tx_time =
      (seg_len * 8 * kSecond + bandwidth_bps_ - 1) / bandwidth_bps_;
  *depart = now + tx_time;
  free_at_ = *depart;
  f.granted_bytes += seg_len;
  total_granted_bytes_ += seg_len;
  if (f.parked_since >= 0) {
    static Histogram* wait = MetricsRegistry::Get().GetHistogram(
        "net.nic.wait_us", Histogram::ExponentialBounds(64, 4.0, 10));
    wait->Observe(now - f.parked_since);
    f.parked_since = -1;
  }
  f.parked = false;
  return true;
}

void NicScheduler::ReleaseFlow(int flow) {
  Flow& f = flows_[static_cast<size_t>(flow)];
  f.parked = false;
  f.parked_since = -1;
}

void NicScheduler::ScheduleGrant() {
  if (grant_scheduled_) {
    return;
  }
  grant_scheduled_ = true;
  loop_->ScheduleAt(free_at_, [this] {
    grant_scheduled_ = false;
    // Kick parked flows in virtual-start-tag order (flow id breaks ties) —
    // the same order TryReserve's anti-queue-jump check enforces. Flows stay
    // parked through the kick: the winner's TryReserve clears its flag on
    // the grant, the rest re-park against the new free_at_. Clearing flags
    // up front would let a fresh pump event at this same timestamp, ordered
    // between this callback and the kicked pumps, bypass the anti-queue-jump
    // check and take the wire ahead of a smaller-tag parked flow. A kicked
    // flow that will not retry must call ReleaseFlow so arbitration never
    // waits on a flow with nothing to send.
    std::vector<int> parked;
    for (size_t i = 0; i < flows_.size(); ++i) {
      if (flows_[i].parked) {
        parked.push_back(static_cast<int>(i));
      }
    }
    std::sort(parked.begin(), parked.end(), [this](int a, int b) {
      const Flow& fa = flows_[static_cast<size_t>(a)];
      const Flow& fb = flows_[static_cast<size_t>(b)];
      const int64_t sa = std::max(vtime_, fa.finish_tag);
      const int64_t sb = std::max(vtime_, fb.finish_tag);
      return sa != sb ? sa < sb : a < b;
    });
    for (int i : parked) {
      Flow& f = flows_[static_cast<size_t>(i)];
      if (f.kick) {
        f.kick();
      } else {
        // No retry path is wired; a permanently parked flow would block
        // every larger-tag flow's grants forever.
        f.parked = false;
      }
    }
  });
}

}  // namespace thinc
