#include "src/net/lossy.h"

#include <algorithm>

#include "src/util/logging.h"

namespace thinc {
namespace {

// Per-direction PRNG substream derivation (splitmix64 finalizer over the
// session seed and the direction index): the two directions must not share a
// draw sequence, or client chatter would perturb server-push loss.
uint64_t DeriveDirectionSeed(uint64_t seed, int direction) {
  uint64_t z = seed ^ (0xA0761D6478BD642FULL + static_cast<uint64_t>(direction));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

LossyTransport::LossyTransport(EventLoop* loop, const LinkParams& params,
                               const LossyOptions& options,
                               size_t send_buffer_bytes)
    : Connection(loop, params, send_buffer_bytes), options_(options) {
  THINC_CHECK(options_.p_good_to_bad >= 0 && options_.p_good_to_bad <= 1);
  THINC_CHECK(options_.p_bad_to_good >= 0 && options_.p_bad_to_good <= 1);
  THINC_CHECK(options_.loss_good >= 0 && options_.loss_good < 1);
  THINC_CHECK(options_.loss_bad >= 0 && options_.loss_bad < 1);
  THINC_CHECK(options_.jitter_max >= 0);
  THINC_CHECK(options_.rto > 0);
  THINC_CHECK(options_.max_retransmits >= 0);
  for (int from = 0; from < 2; ++from) {
    paths_[from].rng = Prng(DeriveDirectionSeed(options_.seed, from));
  }
}

SimTime LossyTransport::PlanSegmentTrip(int from, SimTime depart, SimTime* ack,
                                        bool* disturbed) {
  PathState& path = paths_[from];
  ++segments_sent_;

  // One Gilbert–Elliott step and one loss draw per transmission attempt:
  // dwelling in Bad makes losses bursty, and a retransmission re-rolls the
  // (possibly recovered) channel.
  int retransmits = 0;
  while (true) {
    if (path.bad) {
      if (path.rng.NextDouble() < options_.p_bad_to_good) {
        path.bad = false;
      }
    } else {
      if (path.rng.NextDouble() < options_.p_good_to_bad) {
        path.bad = true;
      }
    }
    const double loss_p = path.bad ? options_.loss_bad : options_.loss_good;
    if (retransmits >= options_.max_retransmits ||
        path.rng.NextDouble() >= loss_p) {
      break;  // this attempt got through (or the cap forces it through)
    }
    ++retransmits;
  }
  segments_lost_ += retransmits;

  // Quantized jitter: coarse steps keep equal-jitter packet pairs frequent,
  // so the bandwidth estimator still sees clean back-to-back samples.
  SimTime jitter = 0;
  if (options_.jitter_max > 0) {
    const SimTime quantum = std::max<SimTime>(1, options_.jitter_quantum);
    const uint64_t steps =
        static_cast<uint64_t>(options_.jitter_max / quantum) + 1;
    jitter = quantum * static_cast<SimTime>(path.rng.NextBelow(steps));
  }

  SimTime arrival = depart + params().rtt / 2 + jitter +
                    static_cast<SimTime>(retransmits) * options_.rto;
  // FIFO clamp: a segment never overtakes its predecessor, so the delivered
  // byte stream keeps send order and the delivered-hash identity holds.
  const bool clamped = arrival < path.delivery_floor;
  arrival = std::max(arrival, path.delivery_floor);
  path.delivery_floor = arrival;

  // A pair's gap is trustworthy only when nothing shifted this segment
  // relative to its predecessor: no retransmission, no floor clamp, and
  // jitter no smaller than the predecessor's (a larger jitter only widens
  // the gap, which a running-min estimator safely ignores; a smaller one
  // shrinks it below the true serialization time).
  *disturbed = retransmits > 0 || clamped ||
               (path.prev_jitter >= 0 && jitter < path.prev_jitter);
  path.prev_jitter = jitter;

  // Cumulative acks ride the (clean-modeled) return path; a retransmitted
  // segment's ack is late by the same RTOs, which is what throttles the
  // sender's window under loss.
  *ack = arrival + params().rtt / 2;
  return arrival;
}

}  // namespace thinc
