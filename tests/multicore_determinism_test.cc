// The multi-core hard invariant (DESIGN.md §12): the modeled core count K
// moves VIRTUAL TIME only. Same seed ⇒ byte-identical wire at any K — core
// selection and parallel slices never decide what bytes are produced or in
// what order they cross each session's connection.
//
// The fingerprint is Connection::DeliveredHashTo: an FNV-1a hash over every
// byte delivered to the client in delivery order, independent of segment
// boundaries.

#include <gtest/gtest.h>

#include <vector>

#include "src/fleet/fleet.h"
#include "src/net/connection.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

constexpr int kSessions = 4;
constexpr int kPages = 3;
constexpr int32_t kW = 320;
constexpr int32_t kH = 240;

struct FleetRun {
  std::vector<uint64_t> wire_hash;  // per session, to-client
  std::vector<int64_t> wire_bytes;
  SimTime end_vtime = 0;
  SimTime host_busy_until = 0;
  SimTime last_delivery = 0;  // max across sessions
};

// `page_window` is the virtual time between page renders. The byte-identity
// invariant requires the host to drain each page before the next render
// instant: once a backlog straddles a render, the scheduler's overlap
// coalescing — content-adaptive under overload BY DESIGN, like the ladder —
// merges differently depending on drain progress, which K legitimately
// changes. Provision the window for the slowest K under test.
FleetRun RunWebFleet(int cores, double cpu_speed,
                     SimTime page_window = 500 * kMillisecond) {
  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = kW;
  fo.screen_height = kH;
  fo.link = LinkParams{100'000'000, 200, 1 << 20, "lan"};
  fo.seed = 7;
  fo.cpu_cores = cores;
  fo.cpu_speed = cpu_speed;
  // The ladder reacts to CPU lag, which K legitimately changes; keep it out
  // of the loop so this test isolates the invariant ("K never changes the
  // bytes") from the controller's intended reaction to timing.
  fo.degradation_enabled = false;
  // Roomy sockets: command split points depend on free socket space at
  // commit time, which is timing-sensitive by design. A buffer larger than
  // any single page keeps every frame unsplit at all K.
  fo.send_buffer_bytes = 8 << 20;
  FleetHost fleet(&loop, fo);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(fleet.AddSession({}), FleetHost::Admission::kAdmitted);
  }
  WebWorkload web(kW, kH, /*seed=*/7);
  for (int page = 0; page < kPages; ++page) {
    // Renders happen at fixed virtual instants (synchronously here), so the
    // scheduler sees identical inserts at identical times at every K.
    for (int i = 0; i < kSessions; ++i) {
      web.RenderPage(fleet.window_server(i), page, fleet.host_cpu());
    }
    loop.RunUntil((page + 1) * page_window);
  }
  loop.Run();
  FleetRun out;
  for (int i = 0; i < kSessions; ++i) {
    out.wire_hash.push_back(
        fleet.connection(static_cast<size_t>(i))->DeliveredHashTo(Connection::kClient));
    out.wire_bytes.push_back(
        fleet.connection(static_cast<size_t>(i))->BytesDeliveredTo(Connection::kClient));
    out.last_delivery = std::max(
        out.last_delivery,
        fleet.connection(static_cast<size_t>(i))->LastDeliveryTo(Connection::kClient));
  }
  out.end_vtime = loop.now();
  out.host_busy_until = fleet.host_cpu()->busy_until();
  return out;
}

TEST(MultiCoreDeterminismTest, WireBytesIdenticalAcrossCoreCounts) {
  FleetRun k1 = RunWebFleet(1, 2.0);
  FleetRun k2 = RunWebFleet(2, 2.0);
  FleetRun k4 = RunWebFleet(4, 2.0);
  ASSERT_EQ(k1.wire_hash.size(), k2.wire_hash.size());
  ASSERT_EQ(k1.wire_hash.size(), k4.wire_hash.size());
  for (size_t i = 0; i < k1.wire_hash.size(); ++i) {
    EXPECT_EQ(k1.wire_bytes[i], k2.wire_bytes[i]) << "session " << i;
    EXPECT_EQ(k1.wire_bytes[i], k4.wire_bytes[i]) << "session " << i;
    EXPECT_EQ(k1.wire_hash[i], k2.wire_hash[i]) << "session " << i;
    EXPECT_EQ(k1.wire_hash[i], k4.wire_hash[i]) << "session " << i;
  }
  EXPECT_GT(k1.wire_bytes[0], 0) << "empty run proves nothing";
}

TEST(MultiCoreDeterminismTest, SameSeedSameCoresIsFullyReproducible) {
  // At a fixed K every observable must reproduce exactly — including
  // virtual time, which across DIFFERENT K is allowed to move.
  FleetRun a = RunWebFleet(2, 2.0);
  FleetRun b = RunWebFleet(2, 2.0);
  EXPECT_EQ(a.wire_hash, b.wire_hash);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.end_vtime, b.end_vtime);
  EXPECT_EQ(a.host_busy_until, b.host_busy_until);
  EXPECT_EQ(a.last_delivery, b.last_delivery);
}

TEST(MultiCoreDeterminismTest, MoreCoresFinishCpuBoundWorkSooner) {
  // A deliberately slow host (0.25x) makes the run CPU-bound; the second
  // core must shorten the host's completion horizon while — per the
  // invariant above — shipping the same bytes. The window is stretched so
  // even the single-core host drains each page before the next render.
  FleetRun k1 = RunWebFleet(1, 0.25, 4 * kSecond);
  FleetRun k2 = RunWebFleet(2, 0.25, 4 * kSecond);
  EXPECT_EQ(k1.wire_hash, k2.wire_hash);
  EXPECT_LT(k2.host_busy_until, k1.host_busy_until);
  EXPECT_LE(k2.last_delivery, k1.last_delivery);
}

// --- Admission arithmetic ----------------------------------------------------

TEST(MultiCoreFleetTest, PredictedCapacityScalesWithCores) {
  EventLoop loop;
  FleetOptions fo;
  fo.link = LinkParams{100'000'000, 200, 1 << 20, "lan"};
  fo.cpu_speed = 2.0;
  FleetSessionDemand demand;
  demand.cpu_us_per_sec = 450'000;
  fo.cpu_cores = 1;
  FleetHost k1(&loop, fo);
  fo.cpu_cores = 2;
  FleetHost k2(&loop, fo);
  EXPECT_EQ(k1.PredictedCapacity(demand), 4);   // 1.8e6 * 0.9... / 4.5e5
  EXPECT_EQ(k2.PredictedCapacity(demand), 8);   // exactly double
}

TEST(MultiCoreFleetTest, AdmissionControlAdmitsProportionallyMoreSessions) {
  FleetSessionDemand demand;
  demand.cpu_us_per_sec = 450'000;
  auto admitted = [&](int cores) {
    EventLoop loop;
    FleetOptions fo;
    fo.screen_width = 64;
    fo.screen_height = 64;
    fo.link = LinkParams{100'000'000, 200, 1 << 20, "lan"};
    fo.cpu_cores = cores;
    FleetHost fleet(&loop, fo);
    int n = 0;
    while (fleet.AddSession(demand) == FleetHost::Admission::kAdmitted) {
      ++n;
    }
    return n;
  };
  const int k1 = admitted(1);
  EXPECT_EQ(admitted(2), 2 * k1);
}

}  // namespace
}  // namespace thinc