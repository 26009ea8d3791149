#include "src/fleet/fleet.h"

#include <algorithm>
#include <string>

#include "src/telemetry/metrics.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// Prng(0) remaps to this constant; admission-time uniqueness must compare
// the seeds the streams actually run with.
constexpr uint64_t kPrngZeroRemap = 0x9E3779B97F4A7C15ULL;

uint64_t EffectiveSeed(uint64_t seed) { return seed ? seed : kPrngZeroRemap; }

// Calm controller ticks before a session steps back up the ladder.
constexpr int kTicksToRestore = 10;

}  // namespace

FleetHost::FleetHost(EventLoop* loop, FleetOptions options)
    : loop_(loop), options_(options),
      host_cpu_(loop, options.cpu_speed, options.cpu_cores),
      nic_(loop, options.link.bandwidth_bps) {
  THINC_CHECK(options_.cpu_cores >= 1);
}

uint64_t FleetHost::DeriveSessionSeed(uint64_t fleet_seed, uint64_t session_id) {
  // splitmix64 finalizer over (fleet_seed ^ (id + odd constant)): for a
  // fixed fleet seed this is a bijection of the id, so two sessions of one
  // fleet can never derive the same seed.
  uint64_t z = fleet_seed ^ (session_id + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

FleetHost::Capacity FleetHost::AdmissionCapacity() const {
  // K cores run K charges concurrently.
  return {.cpu_us_per_sec = 1e6 * options_.cpu_speed * options_.cpu_cores *
                            kAdmissionHeadroom,
          .nic_bps = static_cast<double>(options_.link.bandwidth_bps) *
                     kAdmissionHeadroom};
}

bool FleetHost::FitsHeadroom(const FleetSessionDemand& demand,
                             bool local) const {
  const Capacity capacity = AdmissionCapacity();
  if (admitted_cpu_us_per_sec_ + demand.cpu_us_per_sec >
      capacity.cpu_us_per_sec) {
    return false;
  }
  if (local) {
    // A loopback session never touches the NIC: its admission is gated by
    // CPU demand alone.
    return true;
  }
  const double nic_demand_bps =
      8.0 * static_cast<double>(admitted_nic_bytes_per_sec_ +
                                demand.nic_bytes_per_sec);
  return nic_demand_bps <= capacity.nic_bps;
}

int FleetHost::PredictedCapacity(const FleetSessionDemand& demand) const {
  const Capacity capacity = AdmissionCapacity();
  int cap = INT32_MAX;
  if (demand.cpu_us_per_sec > 0) {
    cap = std::min<int>(
        cap, static_cast<int>(capacity.cpu_us_per_sec / demand.cpu_us_per_sec));
  }
  if (demand.nic_bytes_per_sec > 0) {
    cap = std::min<int>(
        cap, static_cast<int>(capacity.nic_bps /
                              (8.0 * static_cast<double>(demand.nic_bytes_per_sec))));
  }
  return cap;
}

FleetHost::Admission FleetHost::AddSession(const FleetSessionDemand& demand,
                                           int64_t weight, bool local,
                                           const DeviceProfile& profile) {
  if (!FitsHeadroom(demand, local)) {
    ++parked_;
    return Admission::kParked;
  }

  // Ids are assigned only on admission, so id == index into sessions_ and
  // the public accessors, the seed derivation, and the telemetry host name
  // all agree on one numbering even after parks.
  auto s = std::make_unique<FleetSession>();
  s->id = sessions_.size();
  s->seed = DeriveSessionSeed(options_.seed, s->id);
  s->local = local;
  s->demand = demand;
  s->profile = profile;
  s->prng = Prng(s->seed);
  s->session = std::make_unique<ThincSession>(loop_, &host_cpu_, &payloads_,
                                              SessionOptions(*s, weight, local));
  Install(std::move(s));
  return Admission::kAdmitted;
}

ThincSessionOptions FleetHost::SessionOptions(const FleetSession& s,
                                              int64_t weight, bool local) {
  ThincSessionOptions o = {
      .screen_width = options_.screen_width,
      .screen_height = options_.screen_height,
      .server = options_.server_options,
      .transport = {.link = options_.link,
                    .send_buffer_bytes = options_.send_buffer_bytes}};
  o.server.telemetry_host = options_.session_name_prefix + std::to_string(s.id);
  o.client.telemetry_host = o.server.telemetry_host;
  o = ApplyProfile(s.profile, std::move(o));
  // Each session's loss process gets its own deterministic substream,
  // derived from the session seed by the same bijective mix that keeps
  // workload streams disjoint (constant tags the loss domain).
  o.transport.loss.seed = DeriveSessionSeed(s.seed, 0x10551ULL);
  if (local) {
    // Co-located session: frames reach the client as ref-counted loopback
    // handoffs, never through the NIC.
    o.transport.kind = TransportKind::kLoopback;
  } else {
    o.transport.nic = &nic_;
    o.transport.nic_weight = weight;
  }
  return o;
}

void FleetHost::Install(std::unique_ptr<FleetSession> s) {
  // Two sessions sharing a PRNG stream would correlate "independent"
  // workloads; the derivation makes it impossible, and this check keeps it
  // that way if the derivation ever changes. Migrated-out slots are
  // tombstones.
  for (const auto& other : sessions_) {
    THINC_CHECK_MSG(other == nullptr ||
                        EffectiveSeed(other->seed) != EffectiveSeed(s->seed),
                    "fleet sessions must not share a PRNG stream");
  }
  admitted_cpu_us_per_sec_ += s->demand.cpu_us_per_sec;
  if (s->local) {
    ++local_count_;
  } else {
    admitted_nic_bytes_per_sec_ += s->demand.nic_bytes_per_sec;
  }
  ++live_sessions_;
  sessions_.push_back(std::move(s));
}

std::unique_ptr<FleetSession> FleetHost::ExtractSession(size_t id) {
  THINC_CHECK_MSG(has_session(id), "extracting an empty fleet slot");
  std::unique_ptr<FleetSession> s = std::move(sessions_[id]);
  // Park both endpoints: the reset notifies server and client through their
  // closed callbacks (on fresh loop events), after which the server holds
  // its virtual display state and the client its last applied frame.
  s->session->Disconnect();
  admitted_cpu_us_per_sec_ -= s->demand.cpu_us_per_sec;
  if (s->local) {
    --local_count_;
  } else {
    admitted_nic_bytes_per_sec_ -= s->demand.nic_bytes_per_sec;
  }
  --live_sessions_;
  return s;
}

std::optional<size_t> FleetHost::InsertSession(
    std::unique_ptr<FleetSession>* session, int64_t weight, bool local) {
  FleetSession* s = session->get();
  THINC_CHECK(s != nullptr);
  if (!FitsHeadroom(s->demand, local)) {
    return std::nullopt;
  }
  const size_t id = sessions_.size();
  s->id = id;
  s->local = local;
  // Move the whole server-side stack onto this host's CPU and payload pool
  // before any new work is charged, then resynchronize through the
  // reconnect protocol with the differential resync armed: the client's
  // renegotiation pulls only the region drawn since it provably matched the
  // screen.
  s->session->RebindHost(&host_cpu_, &payloads_);
  s->session->Rebind(SessionOptions(*s, weight, local).transport,
                     /*differential_resync=*/true);
  Install(std::move(*session));
  return id;
}

void FleetHost::StartController(SimTime until) {
  if (controller_running_) {
    return;
  }
  controller_running_ = true;
  loop_->Schedule(options_.control_interval,
                  [this, until] { ControllerTick(until); });
}

FleetHost::OverloadSignals FleetHost::ComputeOverloadSignals() const {
  const SimTime now = loop_->now();
  OverloadSignals sig;
  // Max-per-core lag: on a K-core host the overload signal is the MOST
  // loaded core, not the least — one core pinned a second behind means some
  // session's pipeline runs a second late even if other cores idle.
  sig.cpu_lag_us = host_cpu_.max_core_lag(now);
  // NIC lag is drain time for everything queued at the uplink. The WFQ
  // scheduler itself holds at most the in-flight segment; the backlog lives
  // in the per-session socket buffers feeding it.
  int64_t socket_bytes = 0;
  int64_t sched_bytes = 0;
  for (const auto& s : sessions_) {
    if (s == nullptr || s->local) {
      // Migrated-out tombstone, or loopback backlog that never wants the
      // wire (its pressure shows up as CPU lag, not NIC lag).
      continue;
    }
    const Transport* t = s->session->transport();
    socket_bytes += static_cast<int64_t>(t->SendBufferCapacity() -
                                         t->FreeSpace(Transport::kServer));
    sched_bytes += static_cast<int64_t>(s->session->server()->buffered_bytes());
  }
  const SimTime wire_busy = std::max<SimTime>(0, nic_.busy_until() - now);
  auto drain_time = [this](int64_t bytes) {
    return static_cast<SimTime>(
        bytes * 8 * kSecond /
        std::max<int64_t>(1, options_.link.bandwidth_bps));
  };
  sig.nic_lag_us = wire_busy + drain_time(socket_bytes);
  // At degraded levels the ladder's socket-backlog budget caps socket bytes
  // at a few tens of KiB per session while the real backlog waits in the
  // update scheduler, so nic_lag under-reads uplink demand exactly while
  // degraded. The restore decision therefore also watches scheduler-resident
  // bytes (an upper bound on what still wants the wire — eviction and
  // coalescing only shrink it); restoring on the budget-capped socket metric
  // alone limit-cycles: restore -> socket refloods -> degrade again.
  sig.nic_demand_lag_us = wire_busy + drain_time(socket_bytes + sched_bytes);
  return sig;
}

void FleetHost::ControllerTick(SimTime until) {
  const SimTime now = loop_->now();
  const OverloadSignals sig = ComputeOverloadSignals();
  const SimTime cpu_lag = sig.cpu_lag_us;
  const SimTime nic_lag = sig.nic_lag_us;
  const SimTime nic_demand_lag = sig.nic_demand_lag_us;
  static Counter* ticks = MetricsRegistry::Get().GetCounter("fleet.controller_ticks");
  static Gauge* level_g = MetricsRegistry::Get().GetGauge("fleet.degrade_level");
  static Counter* downs = MetricsRegistry::Get().GetCounter("fleet.degradations");
  ticks->Inc();

  if (options_.degradation_enabled) {
    // Degrade on host-wide pressure only: the shared CPU or NIC running
    // further behind than a burst can explain admits no per-session remedy —
    // every session sheds load together. Scheduler backlog is deliberately
    // not a *degrade* trigger (it pins high during any single page burst
    // even on an idle host), but it does gate *restores*: stepping back up
    // is only safe once the pent-up demand it represents has drained, not
    // merely once the budget-capped socket metric looks calm.
    const bool host_hot =
        cpu_lag > options_.overload_lag || nic_lag > options_.overload_lag;
    const bool demand_hot = nic_demand_lag > options_.overload_lag;
    int max_level = 0;
    for (auto& s : sessions_) {
      if (s == nullptr) {
        continue;  // migrated-out tombstone
      }
      ThincServer* server = s->session->server();
      if (host_hot) {
        s->under_ticks = 0;
        if (++s->over_ticks >= options_.ticks_to_degrade) {
          s->over_ticks = 0;
          const int level = server->degradation_level();
          if (level < kMaxDegradationLevel) {
            server->SetDegradationLevel(level + 1);
            downs->Inc();
          }
        }
      } else if (demand_hot) {
        // Hold the current level: not hot enough to degrade further, but the
        // backlog behind the socket budget would reflood the wire on
        // restore.
        s->over_ticks = 0;
        s->under_ticks = 0;
      } else {
        s->over_ticks = 0;
        if (++s->under_ticks >= kTicksToRestore) {
          s->under_ticks = 0;
          const int level = server->degradation_level();
          if (level > 0) {
            server->SetDegradationLevel(level - 1);
          }
        }
      }
      max_level = std::max(max_level, server->degradation_level());
    }
    level_g->Set(max_level);
  }

  if (now + options_.control_interval <= until) {
    loop_->Schedule(options_.control_interval,
                    [this, until] { ControllerTick(until); });
  } else {
    controller_running_ = false;
  }
}

}  // namespace thinc
