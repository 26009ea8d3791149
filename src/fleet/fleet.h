// Multi-tenant THINC host: N independent server/client sessions sharing one
// simulated machine.
//
// The paper's scaling argument (Section 2: a single server "can maintain a
// large number of active thin clients") rests on the server-push, low-level
// command architecture staying cheap per session. Everything in the repo so
// far exercised one session per host — each ThincSystem got a private CPU
// account and a private wire, so inter-session contention was invisible. A
// FleetHost closes that gap with four pieces:
//
//   * Shared CPU — every session's ThincServer and WindowServer charge the
//     SAME CpuAccount, so per-session render/encode work serializes through
//     one host busy-until watermark exactly as the per-session work already
//     did on its private account. No new CPU model: contention emerges from
//     the existing charges landing on one queue.
//   * Shared NIC — every session's downstream (server→client) traffic is
//     arbitrated by a NicScheduler (weighted start-time fair queueing) in
//     front of its Connection, replacing the one-private-wire-per-connection
//     assumption. Upstream input traffic is negligible and keeps the
//     private wire.
//   * Admission control — a session is admitted only while the sum of
//     declared per-session demand fits under 90% of the host's CPU and NIC
//     capacity; beyond that it is parked (counted, not instantiated).
//   * Overload degradation — a periodic controller watches host CPU/NIC lag
//     and per-session backlog and walks each session up/down a 4-level
//     ladder of paper mechanisms (flush-window stretch, tighter scheduler
//     backlog cap, video decimation, SRSF starvation limit; see
//     ThincServer::SetDegradationLevel) so overload degrades per-session
//     quality gracefully instead of collapsing latency for everyone.
//
// Determinism: session i's workload seed is derived from the fleet seed by a
// bijective mix (distinct ids can never share a stream), all arbitration
// tie-breaks are by session/flow id, and the controller reads only
// virtual-time state — fleet runs are bit-reproducible and telemetry on/off
// cannot change wire bytes or virtual time. A 1-session fleet degenerates to
// the non-fleet ThincSystem path byte-for-byte.
#ifndef THINC_SRC_FLEET_FLEET_H_
#define THINC_SRC_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/thinc_session.h"
#include "src/device/device.h"
#include "src/net/connection.h"
#include "src/net/nic.h"
#include "src/util/cpu.h"
#include "src/util/event_loop.h"
#include "src/util/prng.h"

namespace thinc {

// Declared per-session resource demand, used by admission control. Callers
// measure it once at N=1 (reference-speed CPU microseconds and downstream
// bytes per second of workload) and declare it for every further session.
struct FleetSessionDemand {
  double cpu_us_per_sec = 0;
  int64_t nic_bytes_per_sec = 0;
};

struct FleetOptions {
  int32_t screen_width = 1024;
  int32_t screen_height = 768;
  // The shared uplink and the per-session link characteristics. The link's
  // bandwidth field is the physical NIC rate: with one session attached the
  // shared wire is indistinguishable from a private link of that bandwidth.
  LinkParams link;
  // Host CPU speed relative to the reference machine (the testbed server is
  // 2.0x; see kServerCpuSpeed). Clients run at 1.0x.
  double cpu_speed = 2.0;
  // Cores on the shared host CPU (the paper's server is a dual-CPU PIII).
  // Session work spreads over the K per-core watermarks and large encodes
  // slice across idle cores; admission capacity scales linearly. Virtual
  // timing only — wire bytes are identical at any K (DESIGN.md §12).
  int cpu_cores = 1;
  uint64_t seed = 1;
  // Per-session socket send buffer. Bytes committed here are un-sheddable
  // (the ladder's coalescing and fidelity downshift only reach the
  // scheduler), so deployments size it near the per-session share of the
  // link's bandwidth-delay product rather than the 256 KiB desktop default.
  size_t send_buffer_bytes = 256 << 10;
  // Overload controller: sampling period and per-session hysteresis (ticks
  // of sustained pressure before degrading; kTicksToRestore calm ticks
  // before restoring).
  bool degradation_enabled = true;
  SimTime control_interval = 100 * kMillisecond;
  int ticks_to_degrade = 2;
  // How far behind real time the shared CPU or NIC must run before the host
  // counts as overloaded. A transient page burst parks a bounded backlog
  // that drains within a burst time; genuine oversubscription grows the lag
  // without bound, so a threshold deeper than one burst separates the two.
  SimTime overload_lag = 500 * kMillisecond;
  // Template for every session's server (telemetry_host is overridden with
  // a per-session name so Chrome traces get one pid per session).
  ThincServerOptions server_options;
  // Chrome-trace host-name prefix for per-session pids (the slot id is
  // appended). A cluster overrides it per host ("cluster-h2-session-") so
  // traces from many hosts stay distinguishable.
  std::string session_name_prefix = "fleet-session-";
};

// One admitted session: the fleet identity (seed, PRNG stream, declared
// demand, device profile, controller hysteresis) that must survive a live
// migration to another FleetHost, and the THINC session it runs. Owned by
// its current host; ExtractSession releases it for a ClusterController to
// move.
struct FleetSession {
  size_t id = 0;  // slot index on the CURRENT host (reassigned on insert)
  uint64_t seed = 0;
  bool local = false;
  // Demand as DECLARED at cluster/fleet admission. Hosts account the
  // effective demand (NIC zeroed while local) so a session migrating from a
  // co-located slot back to a remote one regains its NIC share.
  FleetSessionDemand demand;
  // The device this session serves. Travels with the session across
  // migrations: the destination host rebuilds the same kind of transport
  // (lossy WAN for phones) over the profile's link override, and the
  // controller keeps applying the profile's ladder.
  DeviceProfile profile;
  Prng prng{1};
  // Controller hysteresis state (travels with the session: its degradation
  // level does too, and the new host's controller restores it when calm).
  int over_ticks = 0;
  int under_ticks = 0;
  std::unique_ptr<ThincSession> session;
};

class FleetHost {
 public:
  // A beyond-capacity session is parked: counted, not instantiated, and
  // admissible later if capacity frees.
  enum class Admission { kAdmitted, kParked };

  // Admission fills this fraction of the host's CPU and NIC capacity: a
  // session is admitted while the summed declared demand stays under
  // kAdmissionHeadroom * capacity on BOTH resources.
  static constexpr double kAdmissionHeadroom = 0.9;

  FleetHost(EventLoop* loop, FleetOptions options);

  // Admission-checks `demand` and, if admitted, instantiates the session.
  // Remote sessions (local=false) get a wire Connection attached to the
  // shared NIC with `weight`, server/window server on the shared CPU, and a
  // client on its own 1.0x account. Local sessions (local=true) get a
  // LoopbackTransport: they bypass the NIC entirely — NIC attach is a
  // wire-transport capability — so only their CPU demand counts toward
  // admission, and their client decodes on the shared host CPU (it IS the
  // host). Returns the outcome; ids are assigned densely in admission order.
  //
  // `profile` describes the device the session serves (default: desktop;
  // see ApplyProfile). A lossy path gets a per-session loss seed.
  Admission AddSession(const FleetSessionDemand& demand, int64_t weight = 1,
                       bool local = false, const DeviceProfile& profile = {});

  // Deterministic per-session seed: a bijective splitmix64-style mix of
  // (fleet_seed, id), so two sessions of one fleet can never share a PRNG
  // stream (THINC_CHECKed against the effective seeds at session creation).
  static uint64_t DeriveSessionSeed(uint64_t fleet_seed, uint64_t session_id);

  // Starts the periodic overload controller; it stops rescheduling once the
  // next tick would land past `until`, so EventLoop::Run() terminates.
  void StartController(SimTime until);

  // --- Cluster hooks ---------------------------------------------------------
  // Instantaneous host pressure, the same math the periodic controller
  // samples: max-per-core CPU lag, NIC drain lag of socket-resident bytes,
  // and total uplink demand lag (sockets + scheduler backlogs).
  struct OverloadSignals {
    SimTime cpu_lag_us = 0;
    SimTime nic_lag_us = 0;
    SimTime nic_demand_lag_us = 0;
  };
  OverloadSignals ComputeOverloadSignals() const;
  // Would `demand` be admitted right now (no side effects)?
  bool CanAdmit(const FleetSessionDemand& demand, bool local = false) const {
    return FitsHeadroom(demand, local);
  }
  // Summed effective demand of the sessions currently on this host.
  double admitted_cpu_us_per_sec() const { return admitted_cpu_us_per_sec_; }
  int64_t admitted_nic_bytes_per_sec() const {
    return admitted_nic_bytes_per_sec_;
  }

  // Releases session `id` for a live migration: its transport is reset (the
  // client parks on its last applied frame; the server parks its virtual
  // display state — PR 1 reconnect machinery), its demand leaves this host's
  // admission sums, and its slot becomes a tombstone (other ids keep their
  // meaning; per-session accessors must not be called on it again).
  std::unique_ptr<FleetSession> ExtractSession(size_t id);
  // Installs a migrated-in session: admission-checks its declared demand,
  // builds a fresh transport on THIS host's NIC (or a loopback when
  // local=true), rebinds server/window-server compute to this host's CPU,
  // arms the differential resync, and reattaches the client (decode CPU
  // follows the transport kind). Returns the new slot id, or nullopt when
  // the demand does not fit — the session is handed back unmodified.
  std::optional<size_t> InsertSession(std::unique_ptr<FleetSession>* session,
                                      int64_t weight = 1, bool local = false);

  // --- Per-session access (id < session_count(), slot not extracted) --------
  size_t session_count() const { return sessions_.size(); }
  // Slots currently occupied (session_count() minus migrated-out tombstones).
  size_t live_session_count() const { return live_sessions_; }
  bool has_session(size_t id) const {
    return id < sessions_.size() && sessions_[id] != nullptr;
  }
  FleetSession* session(size_t id) { return sessions_[id].get(); }
  size_t parked_count() const { return parked_; }

  ThincServer* server(size_t id) { return thinc(id)->server(); }
  ThincClient* client(size_t id) { return thinc(id)->client(); }
  WindowServer* window_server(size_t id) { return thinc(id)->window_server(); }
  // The session's transport, whatever its kind.
  Transport* transport(size_t id) { return thinc(id)->transport(); }
  // The wire connection of a remote session; null for local sessions.
  Connection* connection(size_t id) {
    return dynamic_cast<Connection*>(transport(id));
  }
  bool is_local(size_t id) const { return sessions_[id]->local; }
  size_t local_count() const { return local_count_; }
  // The session's device profile (desktop unless set at AddSession).
  const DeviceProfile& profile(size_t id) const {
    return sessions_[id]->profile;
  }
  // The session's private workload PRNG stream.
  Prng* prng(size_t id) { return &sessions_[id]->prng; }
  uint64_t session_seed(size_t id) const { return sessions_[id]->seed; }
  int degradation_level(size_t id) const {
    return thinc(id)->server()->degradation_level();
  }

  // A click at session `id`'s client (traverses the network like any input).
  void ClientClick(size_t id, Point location) { thinc(id)->ClientClick(location); }
  // Application-side callback for session `id`'s real clicks (button > 0).
  void SetInputCallback(size_t id, std::function<void(Point)> fn) {
    thinc(id)->SetInputCallback(std::move(fn));
  }

  CpuAccount* host_cpu() { return &host_cpu_; }
  const FleetOptions& options() const { return options_; }

  // Predicted capacity in sessions for `demand` (admission math, exposed so
  // benches can report the predicted knee next to the measured one).
  int PredictedCapacity(const FleetSessionDemand& demand) const;

  // The headroom-scaled budget admission fills: reference CPU microseconds
  // per second of host time (a K-core host at speed s executes 1e6 * s * K
  // of them) and NIC bits per second.
  struct Capacity {
    double cpu_us_per_sec = 0;
    double nic_bps = 0;
  };
  Capacity AdmissionCapacity() const;

 private:
  // The THINC session in slot `id`.
  ThincSession* thinc(size_t id) const { return sessions_[id]->session.get(); }
  bool FitsHeadroom(const FleetSessionDemand& demand, bool local) const;
  // Session `s` as it runs on this host: the fleet's templates named for
  // slot s.id, its device profile, and a transport on this host (the shared
  // NIC with `weight`, or a loopback when `local`).
  ThincSessionOptions SessionOptions(const FleetSession& s, int64_t weight,
                                     bool local);
  // Takes `s` into slot s.id: checks that no other session on this host
  // shares its PRNG stream and adds its effective demand to the admission
  // sums and counts.
  void Install(std::unique_ptr<FleetSession> s);
  void ControllerTick(SimTime until);

  EventLoop* loop_;
  FleetOptions options_;
  CpuAccount host_cpu_;
  NicScheduler nic_;
  // Shared by every session's server: sessions showing the same pixels
  // share one payload and encode it once (declared before sessions_, whose
  // servers use it).
  PayloadPool payloads_;
  // Slot id -> session; a migrated-out slot holds nullptr forever.
  std::vector<std::unique_ptr<FleetSession>> sessions_;
  // Summed EFFECTIVE demand of sessions currently on the host (local
  // sessions contribute no NIC share).
  double admitted_cpu_us_per_sec_ = 0;
  int64_t admitted_nic_bytes_per_sec_ = 0;
  size_t parked_ = 0;
  size_t local_count_ = 0;
  size_t live_sessions_ = 0;
  bool controller_running_ = false;
};

}  // namespace thinc

#endif  // THINC_SRC_FLEET_FLEET_H_
