// Cluster tier: many FleetHosts behind one placement front end, with
// cluster-scope admission and live session migration.
//
// The paper's deployment story (computer labs, campus fleets) hangs dozens
// of terminals off shared servers; past one server the operator needs many
// hosts behind one front door. A ClusterController owns H simulated
// FleetHosts — each with its own shared CPU, NIC, admission sums, and
// overload ladder — and adds three cluster-scope mechanisms:
//
//   * Placement — AddSession admits against per-host headroom (reusing each
//     host's demand-declared admission and PredictedCapacity) and places
//     least-loaded: rank hosts by (effective load fraction, live session
//     count, host index), so identical hosts fill round-robin and skewed
//     ones rebalance. PlaceBatch bin-packs a known population first-fit-
//     decreasing instead. A session with a home_host — the host its
//     terminal is physically plugged into — prefers home and runs there
//     co-located (loopback transport, CPU-only admission).
//   * Cluster-scope admission — a session only parks when NO host can take
//     it; the controller's PredictedCapacity sums per-host capacity.
//   * Live migration — a periodic controller samples every host's overload
//     signals (max-core CPU lag, NIC demand lag; FleetHost::
//     ComputeOverloadSignals) and, after a host stays hot for
//     ticks_to_migrate samples, moves its most recently admitted session to
//     the coldest host that can admit it. The handoff is the PR 1 reconnect
//     protocol plus a differential resync: the source parks the session
//     (transport reset), ships ThincServer::MigrationStateBytes() over the
//     interconnect — a fixed descriptor plus the framebuffer delta since
//     the last client-acked state, degrading to one full snapshot when the
//     delta exceeds the reconnect backlog budget — and the destination
//     resumes with the client transparently rebound to a fresh Transport
//     (remote wire, or loopback when the session lands on its home host).
//     The client renegotiates and receives a RAW refresh of only the dirty
//     region; nothing is lost because the region tracking is a sound
//     over-approximation of what the client might not hold (DESIGN.md §14).
//
// Determinism: host seeds derive bijectively from the cluster seed, every
// placement/migration tie-break is by host index or slot id, and the
// controller reads only virtual-time state — same seed means identical
// placement and migration schedules and byte-identical delivered
// framebuffer content per session, at any modeled core count K (K moves
// virtual time, so the schedule is compared per-K).
#ifndef THINC_SRC_CLUSTER_CLUSTER_H_
#define THINC_SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/fleet/fleet.h"

namespace thinc {

struct ClusterOptions {
  int hosts = 2;
  // Template for every host: seed and session_name_prefix are overridden
  // per host (host h runs with seed DeriveSessionSeed(host.seed, h) and
  // prefix "cluster-h<h>-session-").
  FleetOptions host;
  // Migration controller: sampling period, sustained-overload samples
  // before a move, and per-session cooldown between moves. At most
  // kMaxInflightMigrations handoffs run at once, and a destination must be
  // cold (its own worst lag at most half of host.overload_lag) to receive a
  // session: migrating onto a warming host just moves the hotspot.
  bool migration_enabled = true;
  SimTime control_interval = 100 * kMillisecond;
  int ticks_to_migrate = 3;
  SimTime session_cooldown = 2 * kSecond;
};

// One completed (or in-flight: resume == 0) migration.
struct MigrationRecord {
  int64_t gid = -1;
  size_t from_host = 0;
  size_t to_host = 0;
  SimTime start = 0;         // extract instant; blackout begins
  SimTime resume = 0;        // insert instant on the destination
  size_t state_bytes = 0;    // shipped handoff (descriptor + delta)
  bool differential = false; // delta fit the budget (vs full snapshot)
  bool bounced = false;      // destination full at arrival; resumed on source
  // First delivery to the client after resume (== resume when the armed
  // resync had nothing to ship). Filled by FinalizeBlackouts().
  SimTime blackout_end = 0;
};

class ClusterController {
 public:
  // Host-to-host backplane over which migration state ships. Far faster
  // than session links: a campus backbone, not a client access line.
  static constexpr int64_t kInterconnectBps = 1'000'000'000;
  static constexpr SimTime kInterconnectRtt = 1 * kMillisecond;

  ClusterController(EventLoop* loop, ClusterOptions options);

  // --- Admission + placement -------------------------------------------------
  // Cluster-scope admission: places on the home host co-located when given
  // and admissible, else least-loaded among hosts that can admit. Returns
  // the cluster-wide session id, or -1 when no host can take the demand
  // (counted as parked). `profile` is the device the session serves
  // (defaults to desktop); it travels with the session across migrations.
  int64_t AddSession(const FleetSessionDemand& demand, int64_t weight = 1,
                     std::optional<size_t> home_host = std::nullopt,
                     const DeviceProfile& profile = {});
  // First-fit-decreasing bin packing of a known population: sort by
  // normalized demand (descending, stable by arrival order), place each on
  // the first host that admits it. Returns gids in input order (-1 parked).
  std::vector<int64_t> PlaceBatch(const std::vector<FleetSessionDemand>& demands,
                                  int64_t weight = 1);
  // Operator pinning: admit on a specific host, bypassing placement policy
  // (skewed initial layouts for rebalancing scenarios, arrivals that
  // predate other hosts). Still admission-checked; -1 when it doesn't fit.
  int64_t AdmitOnHost(size_t host, const FleetSessionDemand& demand,
                      int64_t weight = 1, const DeviceProfile& profile = {});
  // Sessions/demand the whole cluster can hold (sum of per-host capacity).
  int PredictedCapacity(const FleetSessionDemand& demand) const;

  // --- Migration -------------------------------------------------------------
  // Starts every host's overload-ladder controller and the cluster's own
  // migration tick; both stop rescheduling past `until`.
  void StartController(SimTime until);
  // Manual migration (tests, rebalancing tools). False when the session is
  // already in flight or the destination cannot admit it.
  bool MigrateSession(int64_t gid, size_t dest_host);
  const std::vector<MigrationRecord>& migrations() const { return records_; }
  // Fills each completed record's blackout_end from the resumed transport's
  // delivery trace (call after the run quiesces) and feeds the
  // cluster.migration_blackout_us histogram.
  void FinalizeBlackouts();
  int64_t migrations_started() const { return migrations_started_; }
  int64_t migrations_completed() const { return migrations_completed_; }

  // --- Topology --------------------------------------------------------------
  size_t host_count() const { return hosts_.size(); }
  FleetHost* host(size_t h) { return hosts_[h].get(); }
  const ClusterOptions& options() const { return options_; }
  // Effective load fraction of host h: admitted demand over headroom-scaled
  // capacity, the worse of CPU and NIC (the placement key).
  double HostLoadFraction(size_t h) const;

  // --- Per-session access by cluster-wide id ---------------------------------
  // Valid for any admitted gid, including mid-migration (the session object
  // survives the move; only its host changes).
  size_t session_count() const { return table_.size(); }
  size_t parked_count() const { return parked_; }
  size_t host_of(int64_t gid) const { return table_[gid].host; }
  bool in_flight(int64_t gid) const { return table_[gid].moving != nullptr; }
  ThincServer* server(int64_t gid) { return Session(gid)->server(); }
  ThincClient* client(int64_t gid) { return Session(gid)->client(); }
  WindowServer* window_server(int64_t gid) {
    return Session(gid)->window_server();
  }
  Transport* transport(int64_t gid) { return Session(gid)->transport(); }
  Prng* prng(int64_t gid) { return &Resolve(gid)->prng; }
  bool is_local(int64_t gid) { return Resolve(gid)->local; }
  // Clicks during a migration blackout are dropped by the client's closed
  // transport, exactly like clicks during a reconnect outage.
  void ClientClick(int64_t gid, Point location) {
    Session(gid)->ClientClick(location);
  }
  void SetInputCallback(int64_t gid, std::function<void(Point)> fn) {
    Session(gid)->SetInputCallback(std::move(fn));
  }
  // Delivered bytes to the client across every transport the session ever
  // used (current + retired-by-migration).
  int64_t BytesDeliveredToClient(int64_t gid) {
    return Session(gid)->BytesDeliveredToClient();
  }
  // FNV-1a over the client's framebuffer pixels (migration content checks:
  // must equal the no-migration run's hash after quiesce).
  uint64_t ClientFramebufferHash(int64_t gid);
  // Pixels where the client framebuffer differs from the server's reference
  // screen (0 after quiesce == zero updates lost). A scaled client (a panel
  // of another size than the screen) counts every one of its pixels.
  size_t MismatchedPixels(int64_t gid);

 private:
  struct SessionRef {
    size_t host = 0;
    size_t slot = 0;
    std::optional<size_t> home_host;
    FleetSessionDemand demand;  // as declared at cluster admission
    int64_t weight = 1;
    SimTime last_migration = 0;  // admission or last resume time
    // Owned while the handoff is in flight between hosts.
    std::unique_ptr<FleetSession> moving;
    int record_index = -1;  // records_ entry of the in-flight move
  };

  FleetSession* Resolve(int64_t gid);
  ThincSession* Session(int64_t gid) { return Resolve(gid)->session.get(); }
  // True when `gid` would run co-located on `host` (its home).
  bool LocalOn(const SessionRef& ref, size_t host) const {
    return ref.home_host.has_value() && *ref.home_host == host;
  }
  // Admits on host h (no policy); returns gid or -1.
  int64_t Admit(size_t h, const FleetSessionDemand& demand, int64_t weight,
                std::optional<size_t> home_host, bool local,
                const DeviceProfile& profile = {});
  // Least-loaded host that can admit `demand` (remote), or nullopt.
  std::optional<size_t> PickHost(const FleetSessionDemand& demand) const;
  void Tick(SimTime until);
  // Scans hot hosts (index order) and starts at most one migration.
  void TryMigrate(const std::vector<FleetHost::OverloadSignals>& sigs);
  void StartMigration(int64_t gid, size_t from, size_t to);
  void CompleteMigration(int64_t gid, size_t dest);
  size_t FramebufferBytes() const;

  EventLoop* loop_;
  ClusterOptions options_;
  std::vector<std::unique_ptr<FleetHost>> hosts_;
  std::vector<SessionRef> table_;  // gid -> session
  std::vector<int> hot_ticks_;     // per-host sustained-overload samples
  std::vector<MigrationRecord> records_;
  size_t parked_ = 0;
  int inflight_ = 0;
  int64_t migrations_started_ = 0;
  int64_t migrations_completed_ = 0;
  bool controller_running_ = false;
  // Resumed transport per record (blackout finalize), parallel to records_.
  std::vector<Transport*> record_transports_;
};

}  // namespace thinc

#endif  // THINC_SRC_CLUSTER_CLUSTER_H_
