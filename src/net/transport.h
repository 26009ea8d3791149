// The transport seam between the THINC stacks and whatever carries their
// bytes.
//
// Every layer above the network — server, client, session sharing, fleet,
// baselines, harnesses — talks to an abstract Transport: a full-duplex,
// non-blocking byte channel with bounded buffering, fault injection, and a
// built-in measurement surface. Two implementations exist:
//
//   * Connection (src/net/connection.h) — the simulated TCP wire: link
//     serialization, RTT, a TCP window, MSS segmentation.
//   * LoopbackTransport (src/net/loopback.h) — a same-host shared-memory
//     channel: delivery is a ref-counted buffer handoff charged a small
//     per-handoff CPU cost, with no serialization delay, no copies, and no
//     window.
//
// Design rules the base class enforces rather than documents:
//
//   * The measurement surface (traces, delivered-byte counters, the FNV-1a
//     delivered-byte hash, the last delivery time) is NON-virtual and backed
//     by a shared DeliveryLedger per direction. An implementation delivers bytes
//     only through Transport::Deliver(), so the bookkeeping — and with it
//     the determinism fingerprint — cannot drift between transports.
//   * Fault-plan semantics (outage freeze/replay in original order, reset
//     epoch drops, closed notification on fresh loop events) live in the
//     base too; implementations supply only the buffer-specific pieces via
//     the OnThaw/OnReset hooks and route deferred work through RunOrFreeze.
//   * The delivered-byte hash is computed byte-at-a-time, so it is
//     independent of segmentation: the same byte stream pushed through the
//     wire (MSS segments) and the loopback (whole-buffer handoffs) hashes
//     equal. This is what lets the determinism invariant — same seed ⇒
//     byte-identical delivered stream at any core count K — extend across
//     transports.
#ifndef THINC_SRC_NET_TRANSPORT_H_
#define THINC_SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/net/link.h"
#include "src/util/buffer.h"
#include "src/util/event_loop.h"

namespace thinc {

// One timestamped delivery, as a packet monitor would record it.
struct TraceRecord {
  SimTime time = 0;   // arrival time at the receiving endpoint
  int64_t bytes = 0;
};

enum class TransportKind {
  kWire,      // simulated TCP connection
  kLoopback,  // same-host shared-memory handoff
  kLossy,     // wire over a lossy WAN path (Gilbert–Elliott loss + jitter)
};

// Per-direction delivery bookkeeping, shared by every transport so the
// measurement surface cannot diverge between implementations.
class DeliveryLedger {
 public:
  // Records one delivery of `bytes` completing at `now`. Counter order and
  // hash math are the wire-identity contract: FNV-1a over each byte in
  // delivery order, independent of how the stream was segmented.
  void Record(SimTime now, std::span<const uint8_t> bytes);

  const std::vector<TraceRecord>& trace() const { return trace_; }
  int64_t delivered_bytes() const { return delivered_bytes_; }
  uint64_t delivered_hash() const { return delivered_hash_; }
  SimTime last_delivery() const { return last_delivery_; }

 private:
  std::vector<TraceRecord> trace_;
  int64_t delivered_bytes_ = 0;
  uint64_t delivered_hash_ = 14695981039346656037ULL;  // FNV-1a
  SimTime last_delivery_ = 0;
};

// Passive observer of transport-level events, the measurement feed for
// bandwidth/RTT estimation (src/adapt/net_estimator.h). At most one per
// transport. Observation must never change transport behavior: observers
// read, they do not steer — the determinism fingerprint depends on it.
class TransportObserver {
 public:
  virtual ~TransportObserver() = default;
  // A segment sent from `from` finished delivery at `now`.
  virtual void OnDelivery(int from, SimTime now, size_t bytes) = 0;
  // The delivery about to be reported from `from` was disturbed in transit —
  // retransmitted after loss, reordered behind a retransmission, or jitter-
  // shifted relative to its predecessor — so its spacing to neighboring
  // deliveries carries no packet-pair information. Fired immediately before
  // the matching OnDelivery. Clean transports never call it.
  virtual void OnDeliveryDisturbed(int from) { (void)from; }
  // Endpoint `from` learned a full round-trip sample (wire acks only; the
  // loopback never reports one — there is no round trip to measure).
  virtual void OnRttSample(int from, SimTime rtt) = 0;
  // Link characteristics changed (fault injection, migration rebind):
  // estimates derived from the old parameters are stale.
  virtual void OnLinkChange() = 0;
};

class Transport {
 public:
  // Endpoint 0 is conventionally the server, endpoint 1 the client.
  static constexpr int kServer = 0;
  static constexpr int kClient = 1;

  using ReceiveFn = std::function<void(std::span<const uint8_t>)>;
  // Buffer-aware receiver: gets the delivered segment as a ref-counted
  // view, so a forwarding consumer (Relay) can re-enqueue it without a
  // copy. When set for an endpoint it replaces the span receiver.
  using ReceiveBufferFn = std::function<void(const ByteBuffer&)>;
  using WritableFn = std::function<void()>;
  using ClosedFn = std::function<void()>;

  explicit Transport(EventLoop* loop) : loop_(loop) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual TransportKind kind() const = 0;

  // Queues up to FreeSpace(from) bytes; returns the number accepted. A
  // closed transport accepts nothing. The span overload copies the accepted
  // bytes (the caller's buffer is transient); the ByteBuffer overload
  // enqueues a ref-counted view without copying.
  virtual size_t Send(int from, std::span<const uint8_t> data) = 0;
  virtual size_t Send(int from, const ByteBuffer& data) = 0;
  virtual size_t FreeSpace(int from) const = 0;
  // Total buffering capacity for one direction (socket buffer for the wire,
  // pending-handoff budget for the loopback).
  virtual size_t SendBufferCapacity() const = 0;

  // Receiver callback for data arriving *at* `endpoint`.
  void SetReceiver(int endpoint, ReceiveFn fn);
  void SetBufferReceiver(int endpoint, ReceiveBufferFn fn);
  // Invoked when the send buffer *from* `endpoint` gains free space.
  void SetWritable(int endpoint, WritableFn fn);
  // Invoked (once, at `endpoint`) when the transport is hard-reset.
  void SetClosed(int endpoint, ClosedFn fn);
  // Installs (or clears, with nullptr) the transport's passive observer.
  // The observer must outlive the transport or be cleared first.
  void SetObserver(TransportObserver* observer) { observer_ = observer; }

  EventLoop* loop() const { return loop_; }

  // --- Fault injection -------------------------------------------------------
  // Schedules every event of `plan` on the loop (relative to absolute sim
  // times in the plan). May be called once per plan; plans compose.
  void ScheduleFaults(const FaultPlan& plan);
  // Changes link characteristics in place (<= 0 / < 0 keep the current
  // value). Transports without a wire ignore it.
  virtual void SetLinkParams(int64_t bandwidth_bps, SimTime rtt);
  // Outage window: the channel stalls in both directions — nothing is
  // delivered or acknowledged — until EndOutage, when the frozen events
  // replay in their original order.
  void BeginOutage();
  void EndOutage();
  // Hard reset: drops all buffered and in-flight bytes in both directions,
  // closes the transport permanently, and notifies both endpoints' closed
  // callbacks (on a fresh loop event, so callers never reenter mid-pump).
  void Reset();
  bool closed() const { return closed_; }
  bool in_outage() const { return outage_; }

  // --- Measurement (direction identified by receiving endpoint) -------------
  const std::vector<TraceRecord>& TraceTo(int endpoint) const;
  int64_t BytesDeliveredTo(int endpoint) const;
  // FNV-1a hash over every byte delivered to `endpoint`, in delivery order.
  // Segmentation-independent (bytes hash one at a time), so two runs whose
  // segment boundaries differ but whose byte stream matches hash equal —
  // the determinism fingerprint compared across core counts AND across
  // transports.
  uint64_t DeliveredHashTo(int endpoint) const;
  // Timestamp of the last delivery to `endpoint` (0 before the first).
  SimTime LastDeliveryTo(int endpoint) const;
  // True when no data is buffered or in flight in either direction (a
  // closed transport is always idle: nothing will ever move again).
  virtual bool Idle() const = 0;

 protected:
  // Records `payload` as delivered (direction = sent from `from`) through
  // the shared ledger and net.* metrics, then invokes the receiving
  // endpoint's callback (buffer receiver preferred). Every implementation
  // MUST route deliveries through here — it is the only writer of the
  // measurement surface.
  void Deliver(int from, const ByteBuffer& payload);

  // Runs `fn` now, or defers it until the outage ends / drops it if the
  // transport was reset since `epoch`.
  void RunOrFreeze(uint64_t epoch, std::function<void()> fn);

  // Invokes endpoint `from`'s writable callback, if any (call after send
  // buffer space was freed).
  void NotifyWritable(int from);

  // For implementation-specific observer feeds (ack RTT samples, link
  // parameter changes). Deliveries are reported by the base's Deliver().
  TransportObserver* observer() const { return observer_; }

  // Hook: the outage ended and the frozen events have been rescheduled (at
  // the current instant, in original order). Implementations restart
  // whatever forward progress the outage stalled (wire pumps, queued
  // handoffs); work scheduled here lands after the replayed events.
  virtual void OnThaw() {}
  // Hook: the transport was just hard-reset (closed_ set, epoch bumped,
  // frozen work discarded). Implementations drop their buffered bytes here;
  // closed callbacks are notified by the base afterwards.
  virtual void OnReset() {}

  EventLoop* loop_;
  bool closed_ = false;
  bool outage_ = false;
  // Bumped by Reset(); in-loop delivery/ack events from an older epoch are
  // dropped (their bytes died with the transport).
  uint64_t epoch_ = 0;
  // Delivery/ack work frozen by an outage, in original firing order.
  std::vector<std::function<void()>> frozen_;

 private:
  TransportObserver* observer_ = nullptr;
  DeliveryLedger ledgers_[2];            // indexed by sending endpoint
  ReceiveFn receive_fns_[2];             // indexed by sending endpoint
  ReceiveBufferFn receive_buffer_fns_[2];  // indexed by sending endpoint
  WritableFn writable_fns_[2];           // indexed by sending endpoint
  ClosedFn closed_fns_[2];               // indexed by notified endpoint
};

}  // namespace thinc

#endif  // THINC_SRC_NET_TRANSPORT_H_
