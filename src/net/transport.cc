#include "src/net/transport.h"

#include <utility>

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace thinc {

void DeliveryLedger::Record(SimTime now, std::span<const uint8_t> bytes) {
  delivered_bytes_ += static_cast<int64_t>(bytes.size());
  for (uint8_t b : bytes) {
    delivered_hash_ = (delivered_hash_ ^ b) * 1099511628211ULL;
  }
  last_delivery_ = now;
  trace_.push_back(TraceRecord{now, static_cast<int64_t>(bytes.size())});
}

void Transport::SetReceiver(int endpoint, ReceiveFn fn) {
  // Data arriving at `endpoint` was sent from the other endpoint.
  receive_fns_[1 - endpoint] = std::move(fn);
}

void Transport::SetBufferReceiver(int endpoint, ReceiveBufferFn fn) {
  receive_buffer_fns_[1 - endpoint] = std::move(fn);
}

void Transport::SetWritable(int endpoint, WritableFn fn) {
  writable_fns_[endpoint] = std::move(fn);
}

void Transport::SetClosed(int endpoint, ClosedFn fn) {
  closed_fns_[endpoint] = std::move(fn);
}

void Transport::ScheduleFaults(const FaultPlan& plan) {
  for (const FaultEvent& e : plan.events) {
    loop_->ScheduleAt(e.at, [this, e] {
      switch (e.kind) {
        case FaultEvent::Kind::kDegrade:
          SetLinkParams(e.bandwidth_bps, e.rtt);
          break;
        case FaultEvent::Kind::kOutageStart:
          BeginOutage();
          break;
        case FaultEvent::Kind::kOutageEnd:
          EndOutage();
          break;
        case FaultEvent::Kind::kReset:
          Reset();
          break;
      }
    });
  }
}

void Transport::SetLinkParams(int64_t bandwidth_bps, SimTime rtt) {
  // No wire to degrade (loopback and future in-memory transports). The
  // event is still acknowledged in telemetry so fault plans replayed
  // against a local session leave a trace.
  (void)bandwidth_bps;
  (void)rtt;
  Telemetry::Get().Record("net.link.degrade.ignored", loop_->now());
}

void Transport::BeginOutage() {
  if (closed_ || outage_) {
    return;
  }
  outage_ = true;
  Telemetry& telemetry = Telemetry::Get();
  telemetry.Record("net.outage.begin", loop_->now());
  telemetry.Instant(0, 1, "outage begin", loop_->now());
}

void Transport::EndOutage() {
  if (closed_ || !outage_) {
    return;
  }
  outage_ = false;
  Telemetry& telemetry = Telemetry::Get();
  telemetry.Record("net.outage.end", loop_->now(),
                   static_cast<int64_t>(frozen_.size()));
  telemetry.Instant(0, 1, "outage end", loop_->now());
  // Replay frozen deliveries/acks in their original firing order; each goes
  // back through RunOrFreeze so a second outage (or a reset) starting before
  // the replay fires is still honored.
  std::vector<std::function<void()>> frozen = std::move(frozen_);
  frozen_.clear();
  const uint64_t epoch = epoch_;
  for (auto& fn : frozen) {
    loop_->Schedule(0, [this, epoch, fn = std::move(fn)] {
      RunOrFreeze(epoch, fn);
    });
  }
  // Forward progress the outage stalled (pumps, queued handoffs) restarts
  // here; anything scheduled by the hook lands after the replayed events.
  OnThaw();
}

void Transport::Reset() {
  if (closed_) {
    return;
  }
  closed_ = true;
  ++epoch_;
  Telemetry& telemetry = Telemetry::Get();
  telemetry.Record("net.reset", loop_->now());
  telemetry.Instant(0, 1, "connection reset", loop_->now());
  if (telemetry.recorder_on()) {
    // A reset is the robustness event the flight recorder exists for:
    // dump the timeline leading up to it.
    telemetry.DumpFlightRecorder(stderr, "connection reset");
  }
  frozen_.clear();
  OnReset();
  // Notify both endpoints from fresh events so no callback runs inside
  // whatever pump or delivery handler triggered the reset.
  for (int endpoint = 0; endpoint < 2; ++endpoint) {
    if (closed_fns_[endpoint]) {
      loop_->Schedule(0, [fn = closed_fns_[endpoint]] { fn(); });
    }
  }
}

void Transport::RunOrFreeze(uint64_t epoch, std::function<void()> fn) {
  if (closed_ || epoch != epoch_) {
    return;  // the bytes died with the transport
  }
  if (outage_) {
    frozen_.push_back(std::move(fn));
    return;
  }
  fn();
}

void Transport::NotifyWritable(int from) {
  if (writable_fns_[from]) {
    writable_fns_[from]();
  }
}

void Transport::Deliver(int from, const ByteBuffer& payload) {
  ledgers_[from].Record(loop_->now(), payload.view());
  if (observer_ != nullptr) {
    observer_->OnDelivery(from, loop_->now(), payload.size());
  }
  static Counter* delivered =
      MetricsRegistry::Get().GetCounter("net.delivered_bytes");
  static Counter* segments = MetricsRegistry::Get().GetCounter("net.segments");
  delivered->Inc(static_cast<int64_t>(payload.size()));
  segments->Inc();
  if (receive_buffer_fns_[from]) {
    receive_buffer_fns_[from](payload);
  } else if (receive_fns_[from]) {
    receive_fns_[from](payload.view());
  }
}

const std::vector<TraceRecord>& Transport::TraceTo(int endpoint) const {
  return ledgers_[1 - endpoint].trace();
}

int64_t Transport::BytesDeliveredTo(int endpoint) const {
  return ledgers_[1 - endpoint].delivered_bytes();
}

uint64_t Transport::DeliveredHashTo(int endpoint) const {
  return ledgers_[1 - endpoint].delivered_hash();
}

SimTime Transport::LastDeliveryTo(int endpoint) const {
  return ledgers_[1 - endpoint].last_delivery();
}

}  // namespace thinc
