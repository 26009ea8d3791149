// Cluster-tier bench: knee scaling across hosts, hundreds-scale placement
// at a latency SLO, and live-migration blackout (DESIGN.md §14).
//
// Three questions, one per section:
//
//   * Does capacity scale with hosts? Each host of an H-host cluster should
//     carry the same per-host session knee a single host does — placement
//     is least-loaded and hosts are independent replicas, so the cluster
//     knee must land within 15% of per-host-knee x H.
//   * What does the cluster hold at the SLO in the hundreds? 32 hosts x
//     per-host-knee sessions, ladder + migration on, pooled p95 against
//     the same 1 s SLO — and one deliberately oversubscribed point beyond
//     it for contrast.
//   * What does a live migration cost the migrated user? A 2-host cluster
//     with every session pinned onto host 0 (an operator skew placement
//     would never create): the migration controller must move sessions to
//     the idle host, each handoff shipping a differential state delta over
//     the interconnect. Blackout — extract to first post-resume delivery —
//     must stay under one full-framebuffer refresh at the session link
//     rate, and no update may be lost (client framebuffers byte-identical
//     to a no-migration run after quiesce).
//
// The knee sweep drives real client clicks (input path through the shared
// NIC); migration scenarios drive SCHEDULED window-server renders instead,
// so draws land on the server whatever the connection state and a migrated
// run renders exactly the final screens of a no-migration run — which is
// what makes the zero-lost-updates hash check exact.
//
// Emits BENCH_cluster.json (virtual-time quantities only: byte-identical
// across reruns) and TRACE_cluster.json (Chrome trace of the migration
// scenario).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "bench/web_fleet.h"
#include "src/cluster/cluster.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/workload/web.h"

using namespace thinc;

namespace {

constexpr int kPagesPerSession = 4;
constexpr int kScaleHosts = 32;

// H hosts shaped like bench_fleet_capacity's web-sweep host (per-session
// 512x384 screens, a 1 Mbit/s NIC, a 16x CPU, seed 11), so cluster knees
// compare directly with per-host ones.
ClusterOptions WebCluster(int hosts) {
  ClusterOptions co;
  co.hosts = hosts;
  co.host.screen_width = 512;
  co.host.screen_height = 384;
  co.host.link =
      LinkParams{1'000'000, 20 * kMillisecond, 256 << 10, "cluster-nic"};
  co.host.cpu_speed = 16.0;
  co.host.seed = 11;
  // Sockets sized for the shared link (committed bytes are un-sheddable);
  // fast overload sampling, one-burst-deep lag threshold — the fleet
  // capacity bench's provisioning, so per-host knees are comparable.
  co.host.send_buffer_bytes = 32 << 10;
  co.host.control_interval = 50 * kMillisecond;
  co.host.overload_lag = 1 * kSecond;
  // Migration controller: react within a few bursts, move one session at a
  // time, and give a moved session a think-time of peace before moving it
  // again.
  co.control_interval = 100 * kMillisecond;
  co.ticks_to_migrate = 3;
  co.session_cooldown = bench::kThink;
  return co;
}

// One full-framebuffer refresh at the session link rate: the blackout a
// non-differential handoff would impose, and the bound migration must beat.
double FullRefreshMs(const FleetOptions& host) {
  const double fb_bits = static_cast<double>(host.screen_width) *
                         host.screen_height * sizeof(Pixel) * 8.0;
  return fb_bits / static_cast<double>(host.link.bandwidth_bps) * 1000.0;
}

// --- Shared run harness ------------------------------------------------------

struct ClusterRun {
  int hosts = 0;
  int n = 0;
  bool ladder = false;
  bool migration = false;
  SimTime end_vtime = 0;
  int64_t wire_bytes = 0;
  std::vector<uint64_t> hashes;        // per gid, client framebuffer
  size_t mismatched_pixels = 0;        // summed over gids
  double pooled_p95_ms = 0;
  int64_t spans_completed = 0;
  // Migration outcome.
  int64_t migrations = 0;
  int64_t differential = 0;
  int64_t bounced = 0;
  int64_t state_bytes_total = 0;
  std::vector<int64_t> blackouts_us;
  uint64_t fired = 0;  // loop events (wall rate is printed, never emitted)
  double wall_ms = 0;
};

struct RunSpec {
  int hosts = 0;
  int n = 0;               // total sessions
  bool ladder = false;
  bool migration = false;
  bool pin_host0 = false;  // operator skew: admit everything on host 0
  bool clicks = true;      // click-driven (knee) vs scheduled renders
  int pages = kPagesPerSession;
  const char* trace_path = nullptr;
};

ClusterRun RunCluster(const RunSpec& spec, const TelemetryConfig& tcfg) {
  const auto t0 = std::chrono::steady_clock::now();
  TelemetryScope telemetry(tcfg);
  ClusterOptions co = WebCluster(spec.hosts);
  co.migration_enabled = spec.migration;
  co.host.degradation_enabled = spec.ladder;
  const WebWorkload web(co.host.screen_width, co.host.screen_height,
                        co.host.seed);
  EventLoop loop;
  ClusterController cluster(&loop, co);
  // Click-driven runs key page walks off the per-host slot, so every host
  // is a replica of bench_fleet_capacity's single host and the per-host
  // knee compares across H. Pinned runs render on schedule instead (see
  // file comment).
  bench::RunOpenLoopWeb(
      &loop, &cluster, web,
      {.sessions = spec.n,
       .pages = spec.pages,
       .page_group = spec.clicks ? spec.hosts : 1,
       .scheduled_renders = !spec.clicks},
      [&cluster, &spec](int i) {
        const int64_t gid = spec.pin_host0 ? cluster.AdmitOnHost(0, {})
                                           : cluster.AddSession({});
        THINC_CHECK_MSG(gid == i, "zero-demand session refused admission");
      });
  cluster.FinalizeBlackouts();

  ClusterRun r;
  r.hosts = spec.hosts;
  r.n = spec.n;
  r.ladder = spec.ladder;
  r.migration = spec.migration;
  r.end_vtime = loop.now();
  r.fired = loop.fired_count();
  for (int64_t gid = 0; gid < spec.n; ++gid) {
    r.wire_bytes += cluster.BytesDeliveredToClient(gid);
    r.hashes.push_back(cluster.ClientFramebufferHash(gid));
    r.mismatched_pixels += cluster.MismatchedPixels(gid);
  }
  const bench::UpdateLatencies latencies = bench::CollectUpdateLatencies();
  r.spans_completed = latencies.completed();
  r.pooled_p95_ms = latencies.PercentileMs(0.95);
  for (const MigrationRecord& rec : cluster.migrations()) {
    if (rec.resume == 0) {
      continue;  // still in flight at quiesce (drained loop: never)
    }
    ++r.migrations;
    r.differential += rec.differential ? 1 : 0;
    r.bounced += rec.bounced ? 1 : 0;
    r.state_bytes_total += static_cast<int64_t>(rec.state_bytes);
    r.blackouts_us.push_back(rec.blackout_end - rec.start);
  }
  if (spec.trace_path != nullptr &&
      Telemetry::Get().WriteChromeTrace(spec.trace_path)) {
    std::printf("wrote %s (one pid per session; load in Perfetto)\n",
                spec.trace_path);
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

// --- Section 1: knee vs hosts ------------------------------------------------

struct KneeResult {
  int hosts = 0;
  int knee_per_host = 0;  // largest k with pooled p95 <= SLO at N = k*hosts
  std::vector<ClusterRun> runs;
};

KneeResult SweepKnee(int hosts) {
  KneeResult kr;
  kr.hosts = hosts;
  for (int k : {2, 4, 5, 6, 7, 8}) {
    ClusterRun r = RunCluster({.hosts = hosts, .n = k * hosts}, {.spans = true});
    std::printf("%6d %4d %4d %14.1f %10lld %12lld %10.0f\n", hosts, k, r.n,
                r.pooled_p95_ms, static_cast<long long>(r.spans_completed),
                static_cast<long long>(r.wire_bytes),
                static_cast<double>(r.fired) / (r.wall_ms / 1000.0));
    std::fflush(stdout);
    kr.runs.push_back(std::move(r));
  }
  kr.knee_per_host = bench::Knee(
      kr.runs, [hosts](const ClusterRun& r) { return r.n / hosts; });
  return kr;
}

// --- Section 3: migration scenario -------------------------------------------

struct MigrationScenario {
  ClusterRun with;      // migration on
  ClusterRun without;   // migration off (same draws)
  double blackout_p50_ms = 0;
  double blackout_p95_ms = 0;
  double full_refresh_ms = 0;
};

// Ten sessions pinned on host 0 of 2, run with migration (its Chrome trace
// goes to TRACE_cluster.json) and without.
MigrationScenario RunMigrationScenario() {
  MigrationScenario m;
  const TelemetryConfig traced{.spans = true, .chrome_trace = true};
  RunSpec spec{.hosts = 2,
               .n = 10,
               .migration = true,
               .pin_host0 = true,
               .clicks = false,  // content determinism: see file comment
               .trace_path = "TRACE_cluster.json"};
  m.with = RunCluster(spec, traced);
  spec.migration = false;
  spec.trace_path = nullptr;
  m.without = RunCluster(spec, traced);
  m.blackout_p50_ms = bench::Ms(bench::PercentileUs(m.with.blackouts_us, 0.50));
  m.blackout_p95_ms = bench::Ms(bench::PercentileUs(m.with.blackouts_us, 0.95));
  m.full_refresh_ms = FullRefreshMs(WebCluster(spec.hosts).host);
  THINC_CHECK_MSG(m.with.migrations >= 1,
                  "skewed cluster never migrated a session");
  THINC_CHECK_MSG(m.without.migrations == 0,
                  "migration ran while disabled");
  THINC_CHECK_MSG(m.with.mismatched_pixels == 0,
                  "migration lost updates (client != server screen)");
  THINC_CHECK_MSG(m.without.mismatched_pixels == 0,
                  "baseline run failed to converge");
  THINC_CHECK_MSG(m.with.hashes == m.without.hashes,
                  "migrated run delivered different final content");
  THINC_CHECK_MSG(m.blackout_p95_ms < m.full_refresh_ms,
                  "migration blackout worse than a full-refresh handoff");
  return m;
}

void WriteRunJson(std::FILE* f, const ClusterRun& r) {
  std::fprintf(f,
               "      {\"hosts\": %d, \"n\": %d, \"ladder\": %s, "
               "\"migration\": %s, \"pooled_p95_ms\": %.3f, \"updates\": "
               "%lld, \"wire_bytes\": %lld, \"migrations\": %lld, "
               "\"end_vtime_us\": %lld}",
               r.hosts, r.n, r.ladder ? "true" : "false",
               r.migration ? "true" : "false", r.pooled_p95_ms,
               static_cast<long long>(r.spans_completed),
               static_cast<long long>(r.wire_bytes),
               static_cast<long long>(r.migrations),
               static_cast<long long>(r.end_vtime));
}

}  // namespace

int main() {
  const ClusterOptions base = WebCluster(1);
  bench::PrintHeader(
      "Cluster tier: knee scaling, hundreds-scale SLO, migration blackout",
      "(least-loaded placement; per-session screens, fleet web workload)");
  std::printf("per-session screen %dx%d, %d pages/session, think %.1f s, "
              "host NIC %lld Mbps, interconnect %lld Mbps\n",
              base.host.screen_width, base.host.screen_height,
              kPagesPerSession, static_cast<double>(bench::kThink) / kSecond,
              static_cast<long long>(base.host.link.bandwidth_bps / 1'000'000),
              static_cast<long long>(ClusterController::kInterconnectBps / 1'000'000));

  // -- Knee vs hosts: H independent hosts must hold H x the per-host knee.
  std::printf("\n-- Knee vs hosts (ladder off, migration off; SLO pooled "
              "p95 <= %.0f ms) --\n", bench::kKneeMs);
  std::printf("%6s %4s %4s %14s %10s %12s %10s\n", "hosts", "k", "N",
              "pooled_p95_ms", "updates", "wire_bytes", "events/s");
  std::vector<KneeResult> knees;
  for (int hosts : {1, 2, 4}) {
    knees.push_back(SweepKnee(hosts));
  }
  const int knee1 = knees[0].knee_per_host;
  std::printf("\nper-host knee: ");
  for (const KneeResult& kr : knees) {
    std::printf("H=%d -> %d sessions/host (%d total)   ", kr.hosts,
                kr.knee_per_host, kr.knee_per_host * kr.hosts);
  }
  std::printf("\n");
  for (const KneeResult& kr : knees) {
    const double deviation =
        std::abs(kr.knee_per_host - knee1) / std::max(1.0, double(knee1));
    THINC_CHECK_MSG(deviation <= 0.15,
                    "cluster knee not within 15%% of per-host knee x hosts");
  }

  // -- Hundreds-scale: the cluster at the knee (SLO held) and past it.
  std::printf("\n-- Hundreds-scale (H=%d, ladder on, migration on) --\n",
              kScaleHosts);
  std::printf("%6s %4s %4s %14s %10s %12s %10s %6s\n", "hosts", "k", "N",
              "pooled_p95_ms", "updates", "migrations", "events/s", "SLO");
  std::vector<ClusterRun> scale_runs;
  for (int k : {knee1, knee1 + 2}) {
    ClusterRun r = RunCluster({.hosts = kScaleHosts,
                               .n = k * kScaleHosts,
                               .ladder = true,
                               .migration = true,
                               .pages = 2},
                              {.spans = true});
    std::printf("%6d %4d %4d %14.1f %10lld %12lld %10.0f %6s\n", kScaleHosts,
                k, r.n, r.pooled_p95_ms,
                static_cast<long long>(r.spans_completed),
                static_cast<long long>(r.migrations),
                static_cast<double>(r.fired) / (r.wall_ms / 1000.0),
                r.pooled_p95_ms <= bench::kKneeMs ? "yes" : "no");
    std::fflush(stdout);
    scale_runs.push_back(std::move(r));
  }

  // -- Migration blackout: skewed 2-host cluster, everything on host 0.
  std::printf("\n-- Migration blackout (10 sessions pinned on host 0 of 2) "
              "--\n");
  const MigrationScenario m = RunMigrationScenario();
  std::printf(
      "migrations: %lld (%lld differential, %lld bounced), state shipped "
      "%lld bytes total\n",
      static_cast<long long>(m.with.migrations),
      static_cast<long long>(m.with.differential),
      static_cast<long long>(m.with.bounced),
      static_cast<long long>(m.with.state_bytes_total));
  std::printf(
      "blackout p50 %.1f ms, p95 %.1f ms — full-refresh handoff bound "
      "%.0f ms\n",
      m.blackout_p50_ms, m.blackout_p95_ms, m.full_refresh_ms);
  std::printf(
      "pooled p95: %.1f ms with migration vs %.1f ms without (same draws; "
      "0 lost updates, identical final content)\n",
      m.with.pooled_p95_ms, m.without.pooled_p95_ms);

  std::FILE* f = std::fopen("BENCH_cluster.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n  \"config\": {\"screen\": [%d, %d], \"pages_per_session\": %d, "
        "\"think_ms\": %lld, \"host_nic_bps\": %lld, \"interconnect_bps\": "
        "%lld, \"slo_ms\": %.0f},\n",
        base.host.screen_width, base.host.screen_height, kPagesPerSession,
        static_cast<long long>(bench::kThink / kMillisecond),
        static_cast<long long>(base.host.link.bandwidth_bps),
        static_cast<long long>(ClusterController::kInterconnectBps),
        bench::kKneeMs);
    std::fprintf(f, "  \"knee\": {\n    \"per_host\": {");
    for (size_t i = 0; i < knees.size(); ++i) {
      std::fprintf(f, "%s\"h%d\": %d", i > 0 ? ", " : "", knees[i].hosts,
                   knees[i].knee_per_host);
    }
    std::fprintf(f, "},\n    \"sweep\": [\n");
    bool first = true;
    for (const KneeResult& kr : knees) {
      for (const ClusterRun& r : kr.runs) {
        if (!first) {
          std::fprintf(f, ",\n");
        }
        first = false;
        WriteRunJson(f, r);
      }
    }
    std::fprintf(f, "\n    ]\n  },\n  \"scale\": {\n    \"sweep\": [\n");
    for (size_t i = 0; i < scale_runs.size(); ++i) {
      WriteRunJson(f, scale_runs[i]);
      std::fprintf(f, i + 1 < scale_runs.size() ? ",\n" : "\n");
    }
    std::fprintf(
        f,
        "    ]\n  },\n  \"migration\": {\"sessions\": %d, \"migrations\": "
        "%lld, \"differential\": %lld, \"bounced\": %lld, "
        "\"state_bytes_total\": %lld, \"blackout_p50_ms\": %.3f, "
        "\"blackout_p95_ms\": %.3f, \"full_refresh_bound_ms\": %.3f, "
        "\"p95_ms_with\": %.3f, \"p95_ms_without\": %.3f, "
        "\"lost_updates\": %lld}\n}\n",
        m.with.n, static_cast<long long>(m.with.migrations),
        static_cast<long long>(m.with.differential),
        static_cast<long long>(m.with.bounced),
        static_cast<long long>(m.with.state_bytes_total), m.blackout_p50_ms,
        m.blackout_p95_ms, m.full_refresh_ms, m.with.pooled_p95_ms,
        m.without.pooled_p95_ms,
        static_cast<long long>(m.with.mismatched_pixels));
    std::fclose(f);
    std::printf("\nwrote BENCH_cluster.json\n");
  }
  std::printf(
      "\nExpected shape: the per-host knee is flat in H (hosts are\n"
      "independent replicas behind least-loaded placement); at hundreds of\n"
      "sessions the cluster holds the SLO at knee sessions/host and blows\n"
      "past it two beyond; migration blackout stays orders of magnitude\n"
      "under the full-refresh handoff bound because the delta is\n"
      "differential.\n");
  return 0;
}
