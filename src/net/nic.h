// Shared host NIC: weighted-fair arbitration of one physical uplink among
// many per-session connections.
//
// The paper's scaling argument — one THINC server hosting many thin clients
// — implicitly assumes sessions share the machine's network interface. The
// seed simulation instead gave every Connection its own private wire, which
// hides all inter-session contention. A NicScheduler models the real shared
// uplink: each attached flow (one per session connection) serializes
// segments through a single wire whose bandwidth is the host NIC's, and
// access is arbitrated by start-time fair queueing so one session's bulk
// backlog cannot starve the others (bytes served track the configured
// weights to within about one MSS).
//
// A flow that finds the wire busy is parked; when the wire frees, parked
// flows are kicked in virtual-finish-tag order (ties broken by flow id, so
// same-timestamp contention resolves deterministically) and the winner
// reserves next. A ready flow whose retry lands exactly when the wire frees
// cannot jump ahead of a parked flow with a smaller virtual tag — it is
// parked behind it instead, which is what bounds each flow's service to its
// weight share within one segment. With a single attached flow the schedule degenerates to
// exactly the private-wire behavior — same segment departure times to the
// microsecond — which is what keeps a 1-session fleet byte-identical to the
// non-fleet path.
#ifndef THINC_SRC_NET_NIC_H_
#define THINC_SRC_NET_NIC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/util/event_loop.h"

namespace thinc {

class NicScheduler {
 public:
  NicScheduler(EventLoop* loop, int64_t bandwidth_bps);

  // Registers a flow with a relative weight; `kick` is invoked (on a fresh
  // loop event) whenever a previously refused flow may try to serialize
  // again. Returns the flow id used in TryReserve.
  int AttachFlow(int64_t weight, std::function<void()> kick);

  // A flow holding a ready segment of `seg_len` bytes asks for the wire.
  // On success returns true and sets *depart to when the segment's last bit
  // leaves the NIC (the wire is occupied until then). On refusal the flow is
  // parked and its kick callback fires at the next grant opportunity. The
  // flow STAYS parked until it reserves successfully or calls ReleaseFlow —
  // same-timestamp fresh arrivals queue behind it either way.
  bool TryReserve(int flow, int64_t seg_len, SimTime* depart);

  // Withdraws a parked flow from arbitration. A kicked flow that decides not
  // to retry (nothing to send, window-limited, connection closed or in
  // outage) MUST call this, or its parked entry blocks every larger-tag
  // flow's grants indefinitely. No-op for unparked flows.
  void ReleaseFlow(int flow);

  int64_t bandwidth_bps() const { return bandwidth_bps_; }
  SimTime busy_until() const { return free_at_; }
  size_t flow_count() const { return flows_.size(); }
  size_t parked_count() const;

  // Lifetime bytes granted to one flow / to all flows.
  int64_t granted_bytes(int flow) const { return flows_[flow].granted_bytes; }
  int64_t total_granted_bytes() const { return total_granted_bytes_; }

 private:
  struct Flow {
    int64_t weight = 1;
    std::function<void()> kick;
    int64_t finish_tag = 0;  // scaled virtual finish time (SFQ)
    bool parked = false;
    SimTime parked_since = -1;
    int64_t granted_bytes = 0;
  };

  void ScheduleGrant();

  EventLoop* loop_;
  int64_t bandwidth_bps_;
  SimTime free_at_ = 0;
  // SFQ virtual time: the start tag of the segment currently in service.
  int64_t vtime_ = 0;
  std::vector<Flow> flows_;
  bool grant_scheduled_ = false;
  int64_t total_granted_bytes_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_NET_NIC_H_
