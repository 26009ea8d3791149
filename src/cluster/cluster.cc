#include "src/cluster/cluster.h"

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>

#include "src/util/logging.h"

namespace thinc {
namespace {

// FNV-1a over raw pixel words — the client-side content hash migration
// checks compare (same function family the transports use for delivered
// bytes, applied to the framebuffer instead of the stream).
uint64_t HashSurface(const Surface& s) {
  uint64_t h = 1469598103934665603ULL;
  for (int32_t y = 0; y < s.height(); ++y) {
    for (int32_t x = 0; x < s.width(); ++x) {
      const uint32_t p = s.At(x, y);
      for (int i = 0; i < 4; ++i) {
        h ^= (p >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

// Concurrent handoffs, and how cold a destination must be: its worst lag
// at most this fraction of the overload bar.
constexpr int kMaxInflightMigrations = 1;
constexpr double kDestColdFraction = 0.5;

}  // namespace

ClusterController::ClusterController(EventLoop* loop, ClusterOptions options)
    : loop_(loop), options_(options) {
  THINC_CHECK(options_.hosts >= 1);
  hosts_.reserve(options_.hosts);
  hot_ticks_.assign(options_.hosts, 0);
  for (int h = 0; h < options_.hosts; ++h) {
    FleetOptions host_options = options_.host;
    // Bijective per-host seed: no two hosts (and hence no two sessions
    // anywhere in the cluster, per FleetHost's per-session derivation) can
    // share a PRNG stream.
    host_options.seed =
        FleetHost::DeriveSessionSeed(options_.host.seed, static_cast<uint64_t>(h));
    host_options.session_name_prefix =
        "cluster-h" + std::to_string(h) + "-session-";
    hosts_.push_back(std::make_unique<FleetHost>(loop, host_options));
  }
}

double ClusterController::HostLoadFraction(size_t h) const {
  const FleetHost& host = *hosts_[h];
  const FleetHost::Capacity cap = host.AdmissionCapacity();
  double frac = cap.cpu_us_per_sec > 0
                    ? host.admitted_cpu_us_per_sec() / cap.cpu_us_per_sec
                    : 0.0;
  if (cap.nic_bps > 0) {
    frac = std::max(
        frac, 8.0 * static_cast<double>(host.admitted_nic_bytes_per_sec()) /
                  cap.nic_bps);
  }
  return frac;
}

std::optional<size_t> ClusterController::PickHost(
    const FleetSessionDemand& demand) const {
  // Least-loaded with deterministic tie-breaks: load fraction, then live
  // session count (so zero-demand populations still spread round-robin),
  // then host index.
  std::optional<size_t> best;
  auto key = [this](size_t h) {
    return std::make_tuple(HostLoadFraction(h), hosts_[h]->live_session_count(),
                           h);
  };
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (!hosts_[h]->CanAdmit(demand, /*local=*/false)) {
      continue;
    }
    if (!best.has_value() || key(h) < key(*best)) {
      best = h;
    }
  }
  return best;
}

int64_t ClusterController::Admit(size_t h, const FleetSessionDemand& demand,
                                 int64_t weight,
                                 std::optional<size_t> home_host, bool local,
                                 const DeviceProfile& profile) {
  FleetHost::Admission a = hosts_[h]->AddSession(demand, weight, local, profile);
  THINC_CHECK_MSG(a == FleetHost::Admission::kAdmitted,
                  "cluster admit raced host admission");
  SessionRef ref;
  ref.host = h;
  ref.slot = hosts_[h]->session_count() - 1;
  ref.home_host = home_host;
  ref.demand = demand;
  ref.weight = weight;
  ref.last_migration = loop_->now();
  const int64_t gid = static_cast<int64_t>(table_.size());
  table_.push_back(std::move(ref));
  return gid;
}

int64_t ClusterController::AddSession(const FleetSessionDemand& demand,
                                      int64_t weight,
                                      std::optional<size_t> home_host,
                                      const DeviceProfile& profile) {
  // Home placement first: a terminal plugged into one of the cluster's own
  // hosts runs co-located there (loopback, CPU-only admission) whenever the
  // home host can take it.
  if (home_host.has_value() && *home_host < hosts_.size() &&
      hosts_[*home_host]->CanAdmit(demand, /*local=*/true)) {
    return Admit(*home_host, demand, weight, home_host, /*local=*/true,
                 profile);
  }
  std::optional<size_t> h = PickHost(demand);
  if (!h.has_value()) {
    ++parked_;
    return -1;
  }
  return Admit(*h, demand, weight, home_host, /*local=*/false, profile);
}

std::vector<int64_t> ClusterController::PlaceBatch(
    const std::vector<FleetSessionDemand>& demands, int64_t weight) {
  // First-fit-decreasing: order by normalized demand (the worse of the two
  // resources against one host's headroom-scaled capacity; every host is
  // built from the same template), stable on ties, then scan hosts in index
  // order for the first fit.
  const FleetHost::Capacity cap = hosts_.front()->AdmissionCapacity();
  auto score = [&](const FleetSessionDemand& d) {
    double s = cap.cpu_us_per_sec > 0 ? d.cpu_us_per_sec / cap.cpu_us_per_sec
                                      : 0.0;
    if (cap.nic_bps > 0) {
      s = std::max(s,
                   8.0 * static_cast<double>(d.nic_bytes_per_sec) / cap.nic_bps);
    }
    return s;
  };
  std::vector<size_t> order(demands.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return score(demands[a]) > score(demands[b]);
  });
  std::vector<int64_t> gids(demands.size(), -1);
  for (size_t i : order) {
    for (size_t h = 0; h < hosts_.size(); ++h) {
      if (hosts_[h]->CanAdmit(demands[i], /*local=*/false)) {
        gids[i] = Admit(h, demands[i], weight, std::nullopt, /*local=*/false);
        break;
      }
    }
    if (gids[i] < 0) {
      ++parked_;
    }
  }
  return gids;
}

int64_t ClusterController::AdmitOnHost(size_t h,
                                       const FleetSessionDemand& demand,
                                       int64_t weight,
                                       const DeviceProfile& profile) {
  if (h >= hosts_.size() || !hosts_[h]->CanAdmit(demand, /*local=*/false)) {
    return -1;
  }
  return Admit(h, demand, weight, std::nullopt, /*local=*/false, profile);
}

int ClusterController::PredictedCapacity(
    const FleetSessionDemand& demand) const {
  int64_t total = 0;
  for (const auto& host : hosts_) {
    total += host->PredictedCapacity(demand);
  }
  return static_cast<int>(
      std::min<int64_t>(total, std::numeric_limits<int32_t>::max()));
}

FleetSession* ClusterController::Resolve(int64_t gid) {
  SessionRef& ref = table_[gid];
  if (ref.moving != nullptr) {
    return ref.moving.get();
  }
  return hosts_[ref.host]->session(ref.slot);
}

uint64_t ClusterController::ClientFramebufferHash(int64_t gid) {
  return HashSurface(client(gid)->framebuffer());
}

size_t ClusterController::MismatchedPixels(int64_t gid) {
  int64_t diff = 0;
  client(gid)->framebuffer().Equals(window_server(gid)->screen(), &diff);
  return static_cast<size_t>(diff);
}

size_t ClusterController::FramebufferBytes() const {
  return static_cast<size_t>(options_.host.screen_width) *
         options_.host.screen_height * sizeof(Pixel);
}

void ClusterController::StartController(SimTime until) {
  for (auto& host : hosts_) {
    host->StartController(until);
  }
  if (controller_running_) {
    return;
  }
  controller_running_ = true;
  loop_->Schedule(options_.control_interval, [this, until] { Tick(until); });
}

void ClusterController::Tick(SimTime until) {
  const SimTime now = loop_->now();
  std::vector<FleetHost::OverloadSignals> sigs(hosts_.size());
  for (size_t h = 0; h < hosts_.size(); ++h) {
    sigs[h] = hosts_[h]->ComputeOverloadSignals();
    const bool hot =
        std::max(sigs[h].cpu_lag_us, sigs[h].nic_demand_lag_us) >
        options_.host.overload_lag;
    hot_ticks_[h] = hot ? hot_ticks_[h] + 1 : 0;
  }
  if (options_.migration_enabled &&
      inflight_ < kMaxInflightMigrations) {
    TryMigrate(sigs);
  }
  if (now + options_.control_interval <= until) {
    loop_->Schedule(options_.control_interval, [this, until] { Tick(until); });
  } else {
    controller_running_ = false;
  }
}

void ClusterController::TryMigrate(
    const std::vector<FleetHost::OverloadSignals>& sigs) {
  const SimTime now = loop_->now();
  const SimTime cold_bar = static_cast<SimTime>(
      static_cast<double>(options_.host.overload_lag) *
      kDestColdFraction);
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (hot_ticks_[h] < options_.ticks_to_migrate) {
      continue;
    }
    // Victim: the most recently admitted session still on the hot host and
    // out of cooldown — LIFO keeps long-lived sessions stable, and the
    // highest gid is a deterministic pick.
    int64_t victim = -1;
    for (int64_t gid = static_cast<int64_t>(table_.size()) - 1; gid >= 0;
         --gid) {
      const SessionRef& ref = table_[gid];
      if (ref.moving != nullptr || ref.host != h) {
        continue;
      }
      if (now - ref.last_migration < options_.session_cooldown) {
        continue;
      }
      victim = gid;
      break;
    }
    if (victim < 0) {
      continue;
    }
    // Destination: coldest host that can admit the victim's declared
    // demand (same least-loaded key as placement) and sits safely under
    // the overload bar.
    const SessionRef& ref = table_[victim];
    std::optional<size_t> dest;
    auto key = [this](size_t d) {
      return std::make_tuple(HostLoadFraction(d),
                             hosts_[d]->live_session_count(), d);
    };
    for (size_t d = 0; d < hosts_.size(); ++d) {
      if (d == h) {
        continue;
      }
      if (std::max(sigs[d].cpu_lag_us, sigs[d].nic_demand_lag_us) > cold_bar) {
        continue;
      }
      if (!hosts_[d]->CanAdmit(ref.demand, LocalOn(ref, d))) {
        continue;
      }
      if (!dest.has_value() || key(d) < key(*dest)) {
        dest = d;
      }
    }
    if (!dest.has_value()) {
      continue;
    }
    StartMigration(victim, h, *dest);
    hot_ticks_[h] = 0;
    return;  // at most one new handoff per tick
  }
}

bool ClusterController::MigrateSession(int64_t gid, size_t dest_host) {
  SessionRef& ref = table_[gid];
  if (ref.moving != nullptr || dest_host >= hosts_.size() ||
      dest_host == ref.host) {
    return false;
  }
  if (!hosts_[dest_host]->CanAdmit(ref.demand, LocalOn(ref, dest_host))) {
    return false;
  }
  StartMigration(gid, ref.host, dest_host);
  return true;
}

void ClusterController::StartMigration(int64_t gid, size_t from, size_t to) {
  SessionRef& ref = table_[gid];
  // Size the handoff BEFORE parking: the delta budget check wants the live
  // transport's delivered state (an idle session ships descriptor only).
  const size_t state_bytes =
      hosts_[from]->server(ref.slot)->MigrationStateBytes();
  const bool differential =
      state_bytes <
      ThincServer::kMigrationDescriptorBytes + FramebufferBytes();
  ref.moving = hosts_[from]->ExtractSession(ref.slot);
  MigrationRecord rec;
  rec.gid = gid;
  rec.from_host = from;
  rec.to_host = to;
  rec.start = loop_->now();
  rec.state_bytes = state_bytes;
  rec.differential = differential;
  ref.record_index = static_cast<int>(records_.size());
  records_.push_back(rec);
  record_transports_.push_back(nullptr);
  ++inflight_;
  ++migrations_started_;
  // The state ships over the interconnect; the session resumes when the
  // last byte lands on the destination.
  const SimTime transfer =
      kInterconnectRtt +
      static_cast<SimTime>(static_cast<int64_t>(state_bytes) * 8 * kSecond /
                           kInterconnectBps);
  loop_->Schedule(transfer, [this, gid, to] { CompleteMigration(gid, to); });
}

void ClusterController::CompleteMigration(int64_t gid, size_t dest) {
  SessionRef& ref = table_[gid];
  MigrationRecord& rec = records_[ref.record_index];
  std::optional<size_t> slot =
      hosts_[dest]->InsertSession(&ref.moving, ref.weight, LocalOn(ref, dest));
  if (!slot.has_value()) {
    // Headroom consumed while the state was in flight: bounce back to the
    // source, whose share was released at extraction and (barring a same-
    // instant admit) still fits.
    slot = hosts_[rec.from_host]->InsertSession(&ref.moving, ref.weight,
                                                LocalOn(ref, rec.from_host));
    THINC_CHECK_MSG(slot.has_value(),
                    "bounced migration no longer fits its source host");
    dest = rec.from_host;
    rec.bounced = true;
  }
  rec.to_host = dest;
  rec.resume = loop_->now();
  record_transports_[ref.record_index] = hosts_[dest]->transport(*slot);
  ref.host = dest;
  ref.slot = *slot;
  ref.last_migration = loop_->now();
  ref.record_index = -1;
  --inflight_;
  ++migrations_completed_;
}

void ClusterController::FinalizeBlackouts() {
  for (size_t i = 0; i < records_.size(); ++i) {
    MigrationRecord& rec = records_[i];
    if (rec.resume == 0 || rec.blackout_end != 0) {
      continue;  // still in flight, or already finalized
    }
    rec.blackout_end = rec.resume;
    const Transport* t = record_transports_[i];
    if (t != nullptr) {
      for (const TraceRecord& d : t->TraceTo(Transport::kClient)) {
        if (d.time >= rec.resume) {
          rec.blackout_end = d.time;
          break;
        }
      }
    }
  }
}

}  // namespace thinc
