#include "src/net/loopback.h"

#include <algorithm>
#include <utility>

#include "src/telemetry/metrics.h"
#include "src/util/logging.h"

namespace thinc {

LoopbackTransport::LoopbackTransport(EventLoop* loop, CpuAccount* cpu,
                                     LoopbackOptions options)
    : Transport(loop), cpu_(cpu), options_(options) {
  THINC_CHECK(cpu != nullptr);
  THINC_CHECK(options_.pending_budget_bytes > 0);
}

size_t LoopbackTransport::FreeSpace(int from) const {
  if (closed_) {
    return 0;
  }
  const Direction& d = dirs_[from];
  return options_.pending_budget_bytes -
         std::min(options_.pending_budget_bytes, d.pending_bytes);
}

size_t LoopbackTransport::Send(int from, std::span<const uint8_t> data) {
  if (closed_) {
    return 0;
  }
  const size_t accepted = std::min(data.size(), FreeSpace(from));
  if (accepted == 0) {
    return 0;
  }
  // The caller's span is transient, so this path must copy — acceptable for
  // control traffic (input events, protocol headers), counted so the
  // zero-copy gate catches any frame payload routed through it.
  dirs_[from].copied_bytes += static_cast<int64_t>(accepted);
  if (from == kServer) {
    static Counter* copied = MetricsRegistry::Get().GetCounter(
        "transport.loopback.payload_copied_bytes");
    copied->Inc(static_cast<int64_t>(accepted));
  }
  return Accept(from, ByteBuffer::Copy(data.subspan(0, accepted)));
}

size_t LoopbackTransport::Send(int from, const ByteBuffer& data) {
  if (closed_) {
    return 0;
  }
  const size_t accepted = std::min(data.size(), FreeSpace(from));
  if (accepted == 0) {
    return 0;
  }
  // Ref-counted handoff: the receiver will read the sender's bytes in
  // place. Slice() bumps a refcount; no payload byte moves.
  dirs_[from].shared_bytes += static_cast<int64_t>(accepted);
  return Accept(from, data.Slice(0, accepted));
}

size_t LoopbackTransport::Accept(int from, ByteBuffer payload) {
  Direction& d = dirs_[from];
  const size_t accepted = payload.size();
  d.pending_bytes += accepted;
  if (outage_) {
    // The channel is frozen: hold the handoff un-charged until thaw (the
    // bytes still occupy budget, so backpressure works through an outage).
    d.queued.push_back(std::move(payload));
  } else {
    ScheduleHandoff(from, std::move(payload));
  }
  return accepted;
}

void LoopbackTransport::ScheduleHandoff(int from, ByteBuffer payload) {
  Direction& d = dirs_[from];
  // The handoff costs a descriptor update on the shared host CPU, never a
  // byte copy; Charge() returns when a core completes it.
  const SimTime done = cpu_->Charge(options_.handoff_cpu_us);
  // FIFO floor: on a K-core account charges can complete out of order;
  // delivery order must match send order regardless of K, or the delivered
  // stream (and its hash) would depend on core count.
  const SimTime at = std::max(done, d.delivery_floor);
  d.delivery_floor = at;
  const uint64_t epoch = epoch_;
  loop_->ScheduleAt(at, [this, from, epoch, payload = std::move(payload)] {
    RunOrFreeze(epoch,
                [this, from, payload] { CompleteHandoff(from, payload); });
  });
}

void LoopbackTransport::CompleteHandoff(int from, const ByteBuffer& payload) {
  Direction& d = dirs_[from];
  THINC_CHECK(d.pending_bytes >= payload.size());
  d.pending_bytes -= payload.size();
  ++d.handoffs;
  static Counter* handoffs =
      MetricsRegistry::Get().GetCounter("transport.loopback.handoffs");
  static Counter* payload_bytes =
      MetricsRegistry::Get().GetCounter("transport.loopback.payload_bytes");
  handoffs->Inc();
  if (from == kServer) {
    payload_bytes->Inc(static_cast<int64_t>(payload.size()));
  }
  Deliver(from, payload);
  // Budget was freed: mirror the wire's post-pump writable notification so
  // a flush stalled on backpressure resumes.
  NotifyWritable(from);
}

void LoopbackTransport::OnThaw() {
  // Handoffs accepted during the outage are charged now, after the frozen
  // (pre-outage) deliveries the base already rescheduled — equal completion
  // times tie-break in schedule order, so FIFO holds across the outage.
  for (int from = 0; from < 2; ++from) {
    std::deque<ByteBuffer> queued = std::move(dirs_[from].queued);
    dirs_[from].queued.clear();
    for (ByteBuffer& payload : queued) {
      ScheduleHandoff(from, std::move(payload));
    }
  }
}

void LoopbackTransport::OnReset() {
  for (Direction& d : dirs_) {
    d.queued.clear();
    d.pending_bytes = 0;  // in-flight handoffs die via the epoch guard
  }
}

bool LoopbackTransport::Idle() const {
  if (closed_) {
    return true;  // nothing will ever move again
  }
  for (const Direction& d : dirs_) {
    if (d.pending_bytes > 0) {
      return false;
    }
  }
  return true;
}

}  // namespace thinc
