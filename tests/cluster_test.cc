// Cluster tier tests: placement policy, cluster-scope admission, and live
// session migration (DESIGN.md §14).
//
// The migration workload is driven by SCHEDULED window-server draws (not
// client clicks): draws land on the server whatever the connection state,
// so a migrated run and a no-migration run render identical final screens
// and their post-quiesce client framebuffer hashes must match exactly —
// the zero-lost-updates check. Click paths are exercised separately.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/device/device.h"
#include "src/net/link.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

// 1 Mbit/s per-host NIC: the fleet web-sweep shape, small enough that a
// handful of page-rendering sessions genuinely oversubscribe a host.
LinkParams ClusterNic() {
  return LinkParams{1'000'000, 20 * kMillisecond, 64 << 10, "cluster-nic"};
}

ClusterOptions SmallCluster(int hosts, uint64_t seed = 11) {
  ClusterOptions co;
  co.hosts = hosts;
  co.host.screen_width = 160;
  co.host.screen_height = 120;
  co.host.link = ClusterNic();
  co.host.cpu_speed = 16.0;
  co.host.seed = seed;
  co.host.degradation_enabled = false;
  co.migration_enabled = false;
  return co;
}

constexpr size_t kSmallFb = 160 * 120 * sizeof(Pixel);

// --- Placement ---------------------------------------------------------------

TEST(ClusterPlacementTest, LeastLoadedFillsIdenticalHostsRoundRobin) {
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(3));
  for (int64_t i = 0; i < 6; ++i) {
    const int64_t gid = cluster.AddSession({});
    ASSERT_EQ(gid, i);
    EXPECT_EQ(cluster.host_of(gid), static_cast<size_t>(i % 3)) << "gid " << i;
  }
  for (size_t h = 0; h < 3; ++h) {
    EXPECT_EQ(cluster.host(h)->live_session_count(), 2u);
  }
  EXPECT_EQ(cluster.parked_count(), 0u);
}

TEST(ClusterPlacementTest, HomeHostSessionRunsCoLocated) {
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(3));
  const int64_t gid = cluster.AddSession({}, /*weight=*/1, /*home_host=*/1);
  ASSERT_GE(gid, 0);
  EXPECT_EQ(cluster.host_of(gid), 1u);
  EXPECT_TRUE(cluster.is_local(gid));
  EXPECT_EQ(cluster.transport(gid)->kind(), TransportKind::kLoopback);
  // A homeless session is remote wherever it lands.
  const int64_t remote = cluster.AddSession({});
  EXPECT_FALSE(cluster.is_local(remote));
  EXPECT_EQ(cluster.transport(remote)->kind(), TransportKind::kWire);
}

TEST(ClusterPlacementTest, PlaceBatchPacksFirstFitDecreasing) {
  // Per-host NIC capacity under headroom: 0.9 * 125000 = 112500 B/s. The
  // arrival-order demands below only fit two hosts when packed
  // first-fit-DECREASING (70+40 and 60+30); naive in-order first-fit would
  // pack 60+30 on host 0 and then strand the 40k session.
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(2));
  std::vector<FleetSessionDemand> demands = {
      {0, 60'000}, {0, 30'000}, {0, 70'000}, {0, 40'000}};
  std::vector<int64_t> gids = cluster.PlaceBatch(demands);
  ASSERT_EQ(gids.size(), 4u);
  for (int64_t gid : gids) {
    ASSERT_GE(gid, 0);
  }
  EXPECT_EQ(cluster.parked_count(), 0u);
  EXPECT_EQ(cluster.host_of(gids[2]), 0u);  // 70k seeds host 0
  EXPECT_EQ(cluster.host_of(gids[0]), 1u);  // 60k opens host 1
  EXPECT_EQ(cluster.host_of(gids[3]), 0u);  // 40k fits beside 70k
  EXPECT_EQ(cluster.host_of(gids[1]), 1u);  // 30k beside 60k
}

TEST(ClusterAdmissionTest, ParksOnlyWhenNoHostFits) {
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(2));
  const FleetSessionDemand d{0, 60'000};  // one per host under 112.5k B/s
  EXPECT_EQ(cluster.PredictedCapacity(d), 2);
  EXPECT_GE(cluster.AddSession(d), 0);
  EXPECT_GE(cluster.AddSession(d), 0);
  EXPECT_EQ(cluster.AddSession(d), -1) << "cluster full: must park";
  EXPECT_EQ(cluster.parked_count(), 1u);
  EXPECT_EQ(cluster.session_count(), 2u);
}

TEST(ClusterAdmissionTest, PredictedCapacitySumsPerHostCapacity) {
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(4));
  const FleetSessionDemand d{50'000, 25'000};
  EXPECT_EQ(cluster.PredictedCapacity(d),
            4 * cluster.host(0)->PredictedCapacity(d));
}

TEST(ClusterPlacementTest, PlacementIsReproducible) {
  auto run = [] {
    EventLoop loop;
    ClusterController cluster(&loop, SmallCluster(3, /*seed=*/7));
    std::vector<size_t> hosts;
    for (int i = 0; i < 9; ++i) {
      const int64_t gid = cluster.AddSession({0, 10'000});
      hosts.push_back(cluster.host_of(gid));
    }
    return hosts;
  };
  EXPECT_EQ(run(), run());
}

// --- Reconnect backlog budget --------------------------------------------------

TEST(BacklogBudgetTest, DefaultsToTwoFramebuffers) {
  EXPECT_EQ(ThincServer::kBacklogCapFramebuffers, 2u);
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(1));
  const int64_t gid = cluster.AddSession({});
  EXPECT_EQ(cluster.server(gid)->MigrationDeltaBudgetBytes(), 2 * kSmallFb);
}

// --- Manual migration --------------------------------------------------------

TEST(ClusterMigrationTest, ManualMigrationShipsDifferentialAndConverges) {
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(2));
  WebWorkload web(160, 120, /*seed=*/5);
  const int64_t gid = cluster.AddSession({});
  ASSERT_EQ(cluster.host_of(gid), 0u);
  web.RenderPage(cluster.window_server(gid), 0, cluster.host(0)->host_cpu());
  loop.Run();  // page fully delivered: client is current
  // A small dirty rect, migrated before it can be delivered: the handoff
  // must ship (about) that delta, not a full framebuffer.
  cluster.window_server(gid)->FillRect(kScreenDrawable, Rect{10, 10, 40, 30},
                                       MakePixel(200, 40, 40));
  ASSERT_TRUE(cluster.MigrateSession(gid, 1));
  EXPECT_TRUE(cluster.in_flight(gid));
  loop.Run();
  EXPECT_FALSE(cluster.in_flight(gid));
  EXPECT_EQ(cluster.host_of(gid), 1u);
  EXPECT_EQ(cluster.host(0)->live_session_count(), 0u);
  EXPECT_EQ(cluster.host(1)->live_session_count(), 1u);
  ASSERT_EQ(cluster.migrations().size(), 1u);
  const MigrationRecord& rec = cluster.migrations()[0];
  EXPECT_TRUE(rec.differential);
  EXPECT_FALSE(rec.bounced);
  EXPECT_GE(rec.state_bytes, ThincServer::kMigrationDescriptorBytes);
  EXPECT_LT(rec.state_bytes,
            ThincServer::kMigrationDescriptorBytes + kSmallFb / 2)
      << "a 40x30 delta must not ship a full framebuffer";
  EXPECT_GT(rec.resume, rec.start);
  EXPECT_EQ(cluster.MismatchedPixels(gid), 0u);
  // The resumed session keeps working on the new host.
  web.RenderPage(cluster.window_server(gid), 1, cluster.host(1)->host_cpu());
  loop.Run();
  EXPECT_EQ(cluster.MismatchedPixels(gid), 0u);
}

TEST(ClusterMigrationTest, MismatchedPixelsCountsAScaledPanelWhole) {
  // A phone shows an 80x60 panel of the 160x120 desktop. The panel never
  // equals the screen, so every one of its pixels counts, and the count
  // reads no pixel past the panel.
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(2));
  DeviceProfile phone = SmartphoneProfile();
  phone.screen_width = 80;
  phone.screen_height = 60;
  phone.link.reset();
  const int64_t gid = cluster.AddSession({}, 1, std::nullopt, phone);
  ASSERT_GE(gid, 0);
  cluster.window_server(gid)->FillRect(kScreenDrawable, Rect{10, 10, 40, 30},
                                       MakePixel(200, 40, 40));
  loop.Run();
  ASSERT_EQ(cluster.client(gid)->framebuffer().width(), 80);
  ASSERT_EQ(cluster.client(gid)->framebuffer().height(), 60);
  EXPECT_EQ(cluster.MismatchedPixels(gid), 80u * 60u);
}

TEST(ClusterMigrationTest, InFlightSessionRefusesSecondMigration) {
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(3));
  const int64_t gid = cluster.AddSession({});
  ASSERT_TRUE(cluster.MigrateSession(gid, 1));
  EXPECT_FALSE(cluster.MigrateSession(gid, 2)) << "already in flight";
  loop.Run();
  EXPECT_EQ(cluster.host_of(gid), 1u);
  // Settled again: a further move works.
  EXPECT_TRUE(cluster.MigrateSession(gid, 2));
  loop.Run();
  EXPECT_EQ(cluster.host_of(gid), 2u);
}

TEST(ClusterMigrationTest, KindSwitchesLocalToRemoteAndBack) {
  EventLoop loop;
  ClusterController cluster(&loop, SmallCluster(2));
  WebWorkload web(160, 120, /*seed=*/6);
  // Born co-located on its home host: loopback, no NIC share.
  const int64_t gid = cluster.AddSession({}, /*weight=*/1, /*home_host=*/0);
  ASSERT_TRUE(cluster.is_local(gid));
  web.RenderPage(cluster.window_server(gid), 0, cluster.host(0)->host_cpu());
  loop.Run();
  const int64_t local_bytes = cluster.BytesDeliveredToClient(gid);
  EXPECT_GT(local_bytes, 0);
  // Away from home: the same session continues over a wire.
  ASSERT_TRUE(cluster.MigrateSession(gid, 1));
  loop.Run();
  EXPECT_FALSE(cluster.is_local(gid));
  EXPECT_EQ(cluster.transport(gid)->kind(), TransportKind::kWire);
  web.RenderPage(cluster.window_server(gid), 1, cluster.host(1)->host_cpu());
  loop.Run();
  EXPECT_EQ(cluster.MismatchedPixels(gid), 0u);
  EXPECT_GT(cluster.BytesDeliveredToClient(gid), local_bytes)
      << "delivered-byte accounting must span retired transports";
  // Back home: co-located again, over loopback.
  ASSERT_TRUE(cluster.MigrateSession(gid, 0));
  loop.Run();
  EXPECT_TRUE(cluster.is_local(gid));
  EXPECT_EQ(cluster.transport(gid)->kind(), TransportKind::kLoopback);
  web.RenderPage(cluster.window_server(gid), 2, cluster.host(0)->host_cpu());
  loop.Run();
  EXPECT_EQ(cluster.MismatchedPixels(gid), 0u);
}

TEST(ClusterMigrationTest, ContentMatchesNoMigrationRunEvenWithInFlightDraws) {
  // Identical scheduled draw streams; one run migrates mid-stream, with one
  // draw landing while the session is in flight between hosts. After
  // quiesce both clients must hold byte-identical framebuffers.
  auto run = [](bool migrate) {
    EventLoop loop;
    ClusterController cluster(&loop, SmallCluster(2));
    WebWorkload web(160, 120, /*seed=*/8);
    const int64_t gid = cluster.AddSession({});
    for (int page = 0; page < 4; ++page) {
      loop.ScheduleAt((page + 1) * 500 * kMillisecond, [&cluster, &web, gid,
                                                        page] {
        web.RenderPage(cluster.window_server(gid), page,
                       cluster.host(cluster.host_of(gid))->host_cpu());
      });
    }
    if (migrate) {
      // Scheduled BEFORE page 2's draw at the same instant: the draw fires
      // while the handoff is in flight and must not be lost.
      loop.ScheduleAt(1500 * kMillisecond,
                      [&cluster, gid] { cluster.MigrateSession(gid, 1); });
    }
    loop.Run();
    EXPECT_EQ(cluster.MismatchedPixels(gid), 0u);
    if (migrate) {
      EXPECT_EQ(cluster.host_of(gid), 1u);
      EXPECT_EQ(cluster.migrations_completed(), 1);
    }
    return cluster.ClientFramebufferHash(gid);
  };
  EXPECT_EQ(run(true), run(false));
}

// --- Automatic migration under overload --------------------------------------

struct AutoRunResult {
  // (gid, from, to, start) per completed migration, in start order.
  std::vector<std::tuple<int64_t, size_t, size_t, SimTime>> schedule;
  std::vector<uint64_t> hashes;       // per gid
  std::vector<int64_t> bytes;         // per gid
  size_t mismatched = 0;              // summed over gids
  size_t moved_off_host0 = 0;
  int64_t completed = 0;
  SimTime end_vtime = 0;
  size_t spans = 0;  // lifecycle spans recorded
};

// Six zero-demand sessions pinned onto host 0 of a 2-host cluster (an
// operator skew admission control would never create), all rendering pages
// into a 1 Mbit/s NIC: host 0 oversubscribes, host 1 idles. The ladder is
// off, so only migration can relieve the hotspot. `telemetry` is configured
// for the run.
AutoRunResult RunSkewedCluster(bool migration, int cores,
                               const TelemetryConfig& telemetry = {}) {
  TelemetryScope scope(telemetry);
  EventLoop loop;
  ClusterOptions co = SmallCluster(2, /*seed=*/11);
  // Starve the NIC well below the offered page load so host 0's demand lag
  // grows without bound until sessions leave.
  co.host.link.bandwidth_bps = 400'000;
  co.host.cpu_cores = cores;
  co.migration_enabled = migration;
  co.control_interval = 50 * kMillisecond;
  co.ticks_to_migrate = 2;
  co.session_cooldown = 500 * kMillisecond;
  co.host.overload_lag = 300 * kMillisecond;
  ClusterController cluster(&loop, co);
  WebWorkload web(160, 120, /*seed=*/11);
  constexpr int kSessions = 6;
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(cluster.AdmitOnHost(0, {}), i);
  }
  for (int64_t gid = 0; gid < kSessions; ++gid) {
    for (int page = 0; page < 5; ++page) {
      loop.ScheduleAt(gid * 100 * kMillisecond + page * 800 * kMillisecond,
                      [&cluster, &web, gid, page] {
                        web.RenderPage(
                            cluster.window_server(gid),
                            static_cast<int32_t>((gid * 7 + page) %
                                                 web.page_count()),
                            cluster.host(cluster.host_of(gid))->host_cpu());
                      });
    }
  }
  cluster.StartController(6 * kSecond);
  loop.Run();
  cluster.FinalizeBlackouts();
  AutoRunResult r;
  for (const MigrationRecord& rec : cluster.migrations()) {
    if (rec.resume == 0) {
      continue;  // in flight at quiesce (cannot happen: loop drained)
    }
    r.schedule.emplace_back(rec.gid, rec.from_host, rec.to_host, rec.start);
    EXPECT_GE(rec.blackout_end, rec.resume);
  }
  for (int64_t gid = 0; gid < kSessions; ++gid) {
    r.hashes.push_back(cluster.ClientFramebufferHash(gid));
    r.bytes.push_back(cluster.BytesDeliveredToClient(gid));
    r.mismatched += cluster.MismatchedPixels(gid);
    if (cluster.host_of(gid) != 0) {
      ++r.moved_off_host0;
    }
  }
  r.completed = cluster.migrations_completed();
  r.end_vtime = loop.now();
  r.spans = Telemetry::Get().spans().size();
  return r;
}

TEST(ClusterMigrationTest, OverloadTriggersMigrationWithZeroLostUpdates) {
  AutoRunResult r = RunSkewedCluster(/*migration=*/true, /*cores=*/1);
  EXPECT_GE(r.completed, 1) << "sustained overload never triggered a move";
  EXPECT_GE(r.moved_off_host0, 1u);
  EXPECT_EQ(r.mismatched, 0u) << "migration lost updates";
  AutoRunResult off = RunSkewedCluster(/*migration=*/false, /*cores=*/1);
  EXPECT_EQ(off.completed, 0);
  EXPECT_EQ(off.mismatched, 0u);
  // Satellite 3: same draws, same final screens — migrating must not change
  // what any client ends up holding.
  EXPECT_EQ(r.hashes, off.hashes);
}

TEST(ClusterDeterminismTest, MigrationScheduleReproducibleAtOneCore) {
  // The rerun records lifecycle spans: telemetry must change neither the
  // migration schedule nor what any client receives, nor when.
  AutoRunResult a = RunSkewedCluster(/*migration=*/true, /*cores=*/1);
  AutoRunResult b =
      RunSkewedCluster(/*migration=*/true, /*cores=*/1, {.spans = true});
  ASSERT_GE(a.completed, 1);
  EXPECT_GT(b.spans, 0u) << "telemetry recorded nothing";
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.hashes, b.hashes);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.end_vtime, b.end_vtime);
}

TEST(ClusterDeterminismTest, MigrationScheduleReproducibleAtTwoCores) {
  // K moves virtual time, so the K=2 schedule legitimately differs from
  // K=1; what must hold is rerun reproducibility at each K and zero lost
  // updates at both.
  AutoRunResult a = RunSkewedCluster(/*migration=*/true, /*cores=*/2);
  AutoRunResult b = RunSkewedCluster(/*migration=*/true, /*cores=*/2);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.hashes, b.hashes);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.mismatched, 0u);
}

}  // namespace
}  // namespace thinc
