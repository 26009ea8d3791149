#include "src/fleet/fleet.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "src/baselines/thinc_system.h"
#include "src/core/scheduler.h"
#include "src/net/nic.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

constexpr int64_t kMss = 1460;

LinkParams Lan() { return LinkParams{100'000'000, 200, 1 << 20, "lan"}; }

FleetOptions SmallFleet(LinkParams link, uint64_t seed = 1) {
  FleetOptions fo;
  fo.screen_width = 160;
  fo.screen_height = 120;
  fo.link = link;
  fo.seed = seed;
  return fo;
}

// --- Satellite: per-session PRNG stream derivation --------------------------

TEST(FleetSeedTest, DerivedSeedsAreUniquePerSession) {
  std::set<uint64_t> seen;
  for (uint64_t id = 0; id < 4096; ++id) {
    EXPECT_TRUE(seen.insert(FleetHost::DeriveSessionSeed(42, id)).second)
        << "seed collision at id " << id;
  }
}

TEST(FleetSeedTest, DerivationDependsOnFleetSeed) {
  EXPECT_NE(FleetHost::DeriveSessionSeed(1, 0), FleetHost::DeriveSessionSeed(2, 0));
}

TEST(FleetSeedTest, SessionsGetDistinctStreams) {
  EventLoop loop;
  FleetHost fleet(&loop, SmallFleet(Lan(), /*seed=*/9));
  ASSERT_EQ(fleet.AddSession({}), FleetHost::Admission::kAdmitted);
  ASSERT_EQ(fleet.AddSession({}), FleetHost::Admission::kAdmitted);
  EXPECT_NE(fleet.session_seed(0), fleet.session_seed(1));
  // The streams themselves diverge immediately.
  EXPECT_NE(fleet.prng(0)->Next(), fleet.prng(1)->Next());
}

// --- Shared NIC: weighted-fair queueing -------------------------------------

// Saturates `nic` with one always-ready synthetic flow per weight and
// returns bytes granted per flow over `duration`.
std::vector<int64_t> RunSaturatedFlows(const std::vector<int64_t>& weights,
                                       SimTime duration) {
  EventLoop loop;
  NicScheduler nic(&loop, 8'000'000);  // 1 MB/s
  std::vector<std::function<void()>> pumps(weights.size());
  std::vector<int> ids(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    ids[i] = nic.AttachFlow(weights[i], [&pumps, i] { pumps[i](); });
    pumps[i] = [&loop, &nic, &pumps, &ids, i, duration] {
      if (loop.now() >= duration) {
        return;
      }
      SimTime depart;
      if (nic.TryReserve(ids[i], kMss, &depart)) {
        loop.ScheduleAt(depart, [&pumps, i] { pumps[i](); });
      }
      // On refusal the flow is parked; the kick re-enters this pump.
    };
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    loop.Schedule(0, [&pumps, i] { pumps[i](); });
  }
  loop.RunUntil(duration);
  std::vector<int64_t> granted;
  for (size_t i = 0; i < weights.size(); ++i) {
    granted.push_back(nic.granted_bytes(ids[i]));
  }
  return granted;
}

TEST(NicSchedulerTest, EqualWeightsSplitEvenlyWithinOneMss) {
  std::vector<int64_t> granted = RunSaturatedFlows({1, 1}, 2 * kSecond);
  EXPECT_GT(granted[0], 500 * kMss);  // both made real progress
  EXPECT_LE(std::abs(granted[0] - granted[1]), kMss);
}

TEST(NicSchedulerTest, WeightsHonoredWithinOneMss) {
  std::vector<int64_t> granted = RunSaturatedFlows({3, 1}, 2 * kSecond);
  // Flow 0 should receive 3x flow 1's service, to within one segment of
  // quantization per flow.
  EXPECT_LE(std::abs(granted[0] - 3 * granted[1]), 4 * kMss);
  EXPECT_GT(granted[1], 100 * kMss);  // the light flow is not starved
}

TEST(NicSchedulerTest, SameInstantArrivalCannotJumpParkedFlow) {
  // A fresh retry landing exactly when the wire frees, ordered after the
  // grant callback but before the parked flow's kicked pump, must still
  // queue behind the smaller-tag parked flow. Flows stay parked through the
  // kick; only a successful TryReserve (or ReleaseFlow) clears the flag.
  EventLoop loop;
  NicScheduler nic(&loop, 8'000'000);  // 1 MB/s
  std::vector<int> grant_order;
  int a = 0, b = 0, c = 0;
  // Kicks retry on a fresh loop event, like Connection's pump does.
  auto retry = [&loop, &nic, &grant_order](int* id) {
    return [&loop, &nic, &grant_order, id] {
      loop.Schedule(0, [&nic, &grant_order, id] {
        SimTime d;
        if (nic.TryReserve(*id, kMss, &d)) {
          grant_order.push_back(*id);
        }
      });
    };
  };
  a = nic.AttachFlow(1, {});
  b = nic.AttachFlow(1, retry(&b));
  c = nic.AttachFlow(1, retry(&c));
  SimTime depart = 0;
  ASSERT_TRUE(nic.TryReserve(a, kMss, &depart));    // wire busy until depart
  SimTime ignored = 0;
  ASSERT_FALSE(nic.TryReserve(b, kMss, &ignored));  // b parks; grant at depart
  // c's first try lands at depart, after the grant callback in event order.
  loop.ScheduleAt(depart, [&] {
    SimTime d;
    if (nic.TryReserve(c, kMss, &d)) {
      grant_order.push_back(c);
    }
  });
  loop.Run();
  ASSERT_EQ(grant_order.size(), 2u);
  EXPECT_EQ(grant_order[0], b);  // the parked flow keeps its place
  EXPECT_EQ(grant_order[1], c);
}

TEST(NicSchedulerTest, SingleFlowMatchesPrivateWireExactly) {
  // A 1-flow shared NIC must produce the identical delivery schedule as the
  // built-in private wire (this is what keeps a 1-session fleet
  // byte-identical to the non-fleet path).
  LinkParams link{1'500'000, 100 * kMillisecond, 64 << 10, "wan"};
  auto run = [&](bool shared) {
    EventLoop loop;
    NicScheduler nic(&loop, link.bandwidth_bps);
    Connection conn(&loop, link);
    if (shared) {
      conn.AttachUplink(&nic, 1);
    }
    std::vector<uint8_t> data(200 * 1024, 0xAB);
    size_t sent = 0;
    conn.SetWritable(Connection::kServer, [&] {
      sent += conn.Send(Connection::kServer,
                        std::span<const uint8_t>(data).subspan(
                            0, std::min(data.size() - sent,
                                        conn.FreeSpace(Connection::kServer))));
    });
    sent = conn.Send(Connection::kServer, data);
    loop.Run();
    return conn.TraceTo(Connection::kClient);
  };
  auto private_trace = run(false);
  auto shared_trace = run(true);
  ASSERT_EQ(private_trace.size(), shared_trace.size());
  for (size_t i = 0; i < private_trace.size(); ++i) {
    EXPECT_EQ(private_trace[i].time, shared_trace[i].time) << "segment " << i;
    EXPECT_EQ(private_trace[i].bytes, shared_trace[i].bytes) << "segment " << i;
  }
}

// --- Admission control -------------------------------------------------------

TEST(FleetAdmissionTest, CpuHeadroomParksExactlyTheNPlusFirst) {
  FleetOptions fo = SmallFleet(Lan());
  fo.cpu_speed = 2.0;  // capacity: 1e6 * 2.0 * 0.9 = 1.8e6 ref-us/sec
  EventLoop loop;
  FleetHost fleet(&loop, fo);
  FleetSessionDemand d{400'000, 0};  // 4 fit, a 5th would need 2e6
  EXPECT_EQ(fleet.PredictedCapacity(d), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.AddSession(d), FleetHost::Admission::kAdmitted) << i;
  }
  EXPECT_EQ(fleet.AddSession(d), FleetHost::Admission::kParked);
  EXPECT_EQ(fleet.session_count(), 4u);
  EXPECT_EQ(fleet.parked_count(), 1u);
}

TEST(FleetAdmissionTest, NicHeadroomCapsSessions) {
  FleetOptions fo = SmallFleet(Lan());  // 100 Mbps NIC, 90 Mbps usable
  EventLoop loop;
  FleetHost fleet(&loop, fo);
  FleetSessionDemand d{0, 2'500'000};  // 20 Mbps each: 4 fit
  EXPECT_EQ(fleet.PredictedCapacity(d), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.AddSession(d), FleetHost::Admission::kAdmitted) << i;
  }
  EXPECT_EQ(fleet.AddSession(d), FleetHost::Admission::kParked);
  EXPECT_EQ(fleet.parked_count(), 1u);
}

TEST(FleetAdmissionTest, ParkedAttemptsDoNotConsumeIds) {
  FleetOptions fo = SmallFleet(Lan());  // capacity: 1.8e6 ref-us/sec
  EventLoop loop;
  FleetHost fleet(&loop, fo);
  FleetSessionDemand heavy{1'000'000, 0};
  ASSERT_EQ(fleet.AddSession(heavy), FleetHost::Admission::kAdmitted);
  ASSERT_EQ(fleet.AddSession(heavy), FleetHost::Admission::kParked);
  FleetSessionDemand light{100'000, 0};
  ASSERT_EQ(fleet.AddSession(light), FleetHost::Admission::kAdmitted);
  // Ids are dense in admission order — the parked attempt consumed none —
  // so the public accessor index and the internal id (seed derivation,
  // telemetry host name) are the same numbering.
  EXPECT_EQ(fleet.session_count(), 2u);
  EXPECT_EQ(fleet.session_seed(1), FleetHost::DeriveSessionSeed(fo.seed, 1));
}

// --- Shared CPU --------------------------------------------------------------

struct FleetRunResult {
  SimTime end_time = 0;
  SimTime host_busy_until = 0;
  std::vector<int64_t> bytes_per_session;
};

FleetRunResult RunSharedCpuFleet(size_t n_sessions) {
  EventLoop loop;
  FleetHost fleet(&loop, SmallFleet(Lan(), /*seed=*/5));
  WebWorkload web(160, 120, /*seed=*/5);
  for (size_t i = 0; i < n_sessions; ++i) {
    EXPECT_EQ(fleet.AddSession({}), FleetHost::Admission::kAdmitted);
  }
  // Same-timestamp contention: every session renders the same page at t=0.
  for (size_t i = 0; i < n_sessions; ++i) {
    web.RenderPage(fleet.window_server(i), 0, fleet.host_cpu());
  }
  loop.Run();
  FleetRunResult r;
  r.end_time = loop.now();
  r.host_busy_until = fleet.host_cpu()->busy_until();
  for (size_t i = 0; i < n_sessions; ++i) {
    r.bytes_per_session.push_back(
        fleet.connection(i)->BytesDeliveredTo(Connection::kClient));
  }
  return r;
}

TEST(FleetSharedCpuTest, ChargesSerializeThroughOneHostQueue) {
  FleetRunResult one = RunSharedCpuFleet(1);
  FleetRunResult two = RunSharedCpuFleet(2);
  // Two sessions rendering at the same instant serialize on the shared CPU:
  // the host watermark roughly doubles instead of overlapping for free.
  EXPECT_GE(two.host_busy_until, one.host_busy_until * 19 / 10);
  // Every session still delivers its full page.
  EXPECT_EQ(two.bytes_per_session[0], two.bytes_per_session[1]);
}

TEST(FleetSharedCpuTest, SameTimestampContentionIsDeterministic) {
  FleetRunResult a = RunSharedCpuFleet(4);
  FleetRunResult b = RunSharedCpuFleet(4);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.host_busy_until, b.host_busy_until);
  EXPECT_EQ(a.bytes_per_session, b.bytes_per_session);
}

// --- N=1 byte-identity with the non-fleet path -------------------------------

// Both session owners apply a device profile the same way: a ThincSystem
// and a one-session fleet serving the same device deliver the same trace,
// end time and bytes.
TEST(FleetTest, SingleSessionFleetMatchesThincSystemOnTheWire) {
  struct Case {
    const char* name;
    std::optional<DeviceProfile> profile;  // unset: the profile-less system
    LinkParams link;
    int32_t width;
    int32_t height;
  };
  const LinkParams wan{1'500'000, 100 * kMillisecond, 64 << 10, "wan"};
  DeviceProfile clean_phone = SmartphoneProfile();
  clean_phone.lossy = false;
  DeviceProfile lossy_phone = SmartphoneProfile();
  // The fleet seeds session 0's loss process from its own seed.
  lossy_phone.loss.seed = FleetHost::DeriveSessionSeed(
      FleetHost::DeriveSessionSeed(/*fleet_seed=*/1, 0), 0x10551);
  const Case cases[] = {
      {"desktop", std::nullopt, wan, 320, 240},
      {"terminal", PiTerminalProfile(), wan, 320, 240},
      {"phone", clean_phone, *clean_phone.link, 640, 480},
      {"lossy phone", lossy_phone, *lossy_phone.link, 640, 480},
  };
  constexpr int kPages = 3;

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<TraceRecord> baseline;
    SimTime baseline_end = 0;
    uint64_t baseline_hash = 0;
    {
      EventLoop loop;
      std::optional<ThincSystem> sys;
      if (c.profile.has_value()) {
        sys.emplace(&loop, *c.profile, c.link, c.width, c.height);
      } else {
        sys.emplace(&loop, c.link, c.width, c.height);
      }
      WebWorkload web(c.width, c.height, /*seed=*/7);
      for (int i = 0; i < kPages; ++i) {
        sys->ClientClick(web.LinkPosition(i));
        web.RenderPage(sys->api(), i, sys->app_cpu());
        loop.Run();
      }
      baseline = sys->connection()->TraceTo(Connection::kClient);
      baseline_end = loop.now();
      baseline_hash = sys->connection()->DeliveredHashTo(Connection::kClient);
    }

    std::vector<TraceRecord> fleet_trace;
    SimTime fleet_end = 0;
    uint64_t fleet_hash = 0;
    {
      EventLoop loop;
      FleetOptions fo;
      fo.screen_width = c.width;
      fo.screen_height = c.height;
      fo.link = c.link;
      FleetHost fleet(&loop, fo);
      ASSERT_EQ(fleet.AddSession({}, /*weight=*/1, /*local=*/false,
                                 c.profile.value_or(DesktopProfile())),
                FleetHost::Admission::kAdmitted);
      WebWorkload web(c.width, c.height, /*seed=*/7);
      for (int i = 0; i < kPages; ++i) {
        fleet.ClientClick(0, web.LinkPosition(i));
        web.RenderPage(fleet.window_server(0), i, fleet.host_cpu());
        loop.Run();
      }
      fleet_trace = fleet.connection(0)->TraceTo(Connection::kClient);
      fleet_end = loop.now();
      fleet_hash = fleet.connection(0)->DeliveredHashTo(Connection::kClient);
    }

    EXPECT_EQ(baseline_end, fleet_end);
    EXPECT_EQ(baseline_hash, fleet_hash);
    ASSERT_EQ(baseline.size(), fleet_trace.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].time, fleet_trace[i].time) << "segment " << i;
      EXPECT_EQ(baseline[i].bytes, fleet_trace[i].bytes) << "segment " << i;
    }
  }
}

// --- Degradation: scheduler starvation relief --------------------------------

std::vector<Pixel> SolidPixels(int n, Pixel p) { return std::vector<Pixel>(n, p); }

TEST(SchedulerAgingTest, AgedBandFrontFlushesAheadOfLowerBands) {
  UpdateScheduler sched;
  sched.set_starvation_limit(300 * kMillisecond);
  // A big RAW (high band) queued at t=0.
  Rect big{0, 0, 100, 100};
  sched.Insert(std::make_unique<RawCommand>(big, SolidPixels(100 * 100, kWhite)),
               /*now=*/0);
  // Fresh small RAW (band 0) long after.
  const SimTime now = 400 * kMillisecond;
  Rect small{200, 0, 4, 4};
  sched.Insert(std::make_unique<RawCommand>(small, SolidPixels(16, kBlack)), now);
  // The big command aged past the limit: it flushes ahead of band 0.
  std::unique_ptr<Command> first = sched.PopNext(now);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->region().Bounds().width, 100);
  std::unique_ptr<Command> second = sched.PopNext(now);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->region().Bounds().width, 4);
}

TEST(SchedulerAgingTest, WithoutLimitOrTimestampOrderIsUnchanged) {
  UpdateScheduler sched;  // no starvation limit
  Rect big{0, 0, 100, 100};
  sched.Insert(std::make_unique<RawCommand>(big, SolidPixels(100 * 100, kWhite)),
               0);
  Rect small{200, 0, 4, 4};
  sched.Insert(std::make_unique<RawCommand>(small, SolidPixels(16, kBlack)),
               400 * kMillisecond);
  std::unique_ptr<Command> first = sched.PopNext(400 * kMillisecond);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->region().Bounds().width, 4);  // SRSF order preserved
}

TEST(SchedulerAgingTest, TransparentCommandsAreNeverPromoted) {
  UpdateScheduler sched;
  sched.set_starvation_limit(300 * kMillisecond);
  // Big RAW at t=0, then a COPY depending on it (same band, behind it).
  Rect big{0, 0, 100, 100};
  sched.Insert(std::make_unique<RawCommand>(big, SolidPixels(100 * 100, kWhite)),
               0);
  // Copy reads from inside the big RAW's output (source = dst + delta).
  sched.Insert(std::make_unique<CopyCommand>(Region(Rect{120, 10, 20, 20}),
                                             Point{-110, 0}),
               0);
  const SimTime now = 400 * kMillisecond;
  Rect small{200, 0, 4, 4};
  sched.Insert(std::make_unique<RawCommand>(small, SolidPixels(16, kBlack)), now);
  // First pop: the aged RAW is promoted.
  std::unique_ptr<Command> first = sched.PopNext(now);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->type(), MsgType::kRaw);
  EXPECT_EQ(first->region().Bounds().width, 100);
  // The aged COPY is now a band front, but transparent commands must stay
  // behind their dependencies: the fresh band-0 command flushes first.
  std::unique_ptr<Command> second = sched.PopNext(now);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->region().Bounds().width, 4);
  std::unique_ptr<Command> third = sched.PopNext(now);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->type(), MsgType::kCopy);
}

// --- Degradation ladder on the server ----------------------------------------

struct OverloadRun {
  int max_level = 0;  // highest ladder level at the end of the controller
  // Per session, what reached the client.
  std::vector<uint64_t> delivered_hashes;
  std::vector<int64_t> delivered_bytes;
  SimTime end_vtime = 0;
  size_t spans = 0;  // lifecycle spans recorded
};

// Four sessions rendering into a deliberately starved uplink, with
// `telemetry` configured for the run: the sessions cannot drain their
// sockets, so the controller must walk them up the ladder.
OverloadRun RunOverloadedFleet(const TelemetryConfig& telemetry) {
  TelemetryScope scope(telemetry);
  LinkParams slow{200'000, 50 * kMillisecond, 64 << 10, "slow"};
  EventLoop loop;
  FleetOptions fo = SmallFleet(slow, /*seed=*/3);
  fo.screen_width = 320;
  fo.screen_height = 240;
  fo.ticks_to_degrade = 1;
  FleetHost fleet(&loop, fo);
  WebWorkload web(320, 240, /*seed=*/3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.AddSession({}), FleetHost::Admission::kAdmitted);
  }
  fleet.StartController(4 * kSecond);
  for (int page = 0; page < 4; ++page) {
    for (int i = 0; i < 4; ++i) {
      web.RenderPage(fleet.window_server(i), page, fleet.host_cpu());
    }
    loop.RunUntil((page + 1) * 200 * kMillisecond);
  }
  loop.RunUntil(4 * kSecond);
  OverloadRun r;
  for (size_t i = 0; i < fleet.session_count(); ++i) {
    r.max_level = std::max(r.max_level, fleet.degradation_level(i));
  }
  loop.Run();  // drain; controller has stopped rescheduling
  for (size_t i = 0; i < fleet.session_count(); ++i) {
    r.delivered_hashes.push_back(
        fleet.transport(i)->DeliveredHashTo(Transport::kClient));
    r.delivered_bytes.push_back(
        fleet.transport(i)->BytesDeliveredTo(Transport::kClient));
  }
  r.end_vtime = loop.now();
  r.spans = Telemetry::Get().spans().size();
  return r;
}

TEST(FleetDegradationTest, ControllerEngagesLadderUnderOverload) {
  const OverloadRun off = RunOverloadedFleet(TelemetryConfig{});
  EXPECT_GE(off.max_level, 1) << "overloaded fleet never degraded";
  // Telemetry fully on must not perturb the shared CPU and NIC arbitration
  // or the ladder: every session receives the same bytes by the same time.
  const OverloadRun on = RunOverloadedFleet(
      {.spans = true, .chrome_trace = true, .flight_recorder = true});
  EXPECT_GT(on.spans, 0u) << "telemetry recorded nothing";
  EXPECT_EQ(on.max_level, off.max_level);
  EXPECT_EQ(on.delivered_hashes, off.delivered_hashes);
  EXPECT_EQ(on.delivered_bytes, off.delivered_bytes);
  EXPECT_EQ(on.end_vtime, off.end_vtime);
}

TEST(FleetDegradationTest, SubsampleFidelityShrinksEncodeInPlace) {
  const int32_t w = 240, h = 160;
  std::vector<Pixel> px = WebWorkload::ImageContent(/*page=*/3, /*image=*/0, w, h);
  RawCommand full(Rect{10, 20, w, h}, px);
  RawCommand low(Rect{10, 20, w, h}, px);
  ASSERT_TRUE(low.SubsampleFidelity(4));
  // Same geometry on the wire, much smaller payload after encoding: pixel
  // replication hands the PNG-like filters long runs to collapse.
  EXPECT_EQ(low.rect(), full.rect());
  EXPECT_LT(low.EncodedSize() * 2, full.EncodedSize());
  // Once-only: a split part inherits the degraded flag, so re-applying
  // (e.g. after a requeue at a still-degraded level) is a no-op.
  EXPECT_FALSE(low.SubsampleFidelity(4));
  std::unique_ptr<Command> split = low.SplitOff(/*max_bytes=*/8 << 10);
  ASSERT_NE(split, nullptr);
  EXPECT_FALSE(static_cast<RawCommand*>(split.get())->SubsampleFidelity(4));
}

TEST(FleetDegradationTest, SubsampleSkipsSmallAndDegenerateRects) {
  std::vector<Pixel> tiny(16 * 16, 0xFF00FF00u);
  RawCommand small(Rect{0, 0, 16, 16}, tiny);
  EXPECT_FALSE(small.SubsampleFidelity(4));  // below compress threshold
  std::vector<Pixel> strip(2048 * 1, 0xFF00FF00u);
  RawCommand thin(Rect{0, 0, 2048, 1}, strip);
  EXPECT_FALSE(thin.SubsampleFidelity(4));  // height would collapse to zero
}

TEST(FleetDegradationTest, DisabledLadderStaysAtFullFidelity) {
  LinkParams slow{200'000, 50 * kMillisecond, 64 << 10, "slow"};
  EventLoop loop;
  FleetOptions fo = SmallFleet(slow, /*seed=*/3);
  fo.degradation_enabled = false;
  FleetHost fleet(&loop, fo);
  WebWorkload web(160, 120, /*seed=*/3);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(fleet.AddSession({}), FleetHost::Admission::kAdmitted);
  }
  fleet.StartController(1 * kSecond);
  for (int i = 0; i < 2; ++i) {
    web.RenderPage(fleet.window_server(i), 0, fleet.host_cpu());
  }
  loop.Run();
  for (size_t i = 0; i < fleet.session_count(); ++i) {
    EXPECT_EQ(fleet.degradation_level(i), 0);
  }
}


// --- Local (co-located) sessions --------------------------------------------

TEST(FleetLocalSessionTest, LocalSessionsBypassNicAdmission) {
  FleetOptions fo = SmallFleet(Lan());  // 100 Mbps NIC, 90 Mbps usable
  EventLoop loop;
  FleetHost fleet(&loop, fo);
  FleetSessionDemand d{0, 2'500'000};  // 20 Mbps each: 4 wire sessions fit
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.AddSession(d), FleetHost::Admission::kAdmitted) << i;
  }
  EXPECT_EQ(fleet.AddSession(d), FleetHost::Admission::kParked)
      << "the NIC is full for wire sessions";
  // A co-located session never touches the NIC: the same declared demand is
  // admitted because its NIC component is zeroed (CPU demand still counts).
  EXPECT_EQ(fleet.AddSession(d, /*weight=*/1, /*local=*/true),
            FleetHost::Admission::kAdmitted);
  const size_t id = fleet.session_count() - 1;
  EXPECT_TRUE(fleet.is_local(id));
  EXPECT_EQ(fleet.local_count(), 1u);
  EXPECT_EQ(fleet.connection(id), nullptr) << "local sessions have no wire";
  EXPECT_EQ(fleet.transport(id)->kind(), TransportKind::kLoopback);
}

TEST(FleetLocalSessionTest, LocalSessionConvergesOverLoopback) {
  FleetOptions fo = SmallFleet(Lan());
  EventLoop loop;
  FleetHost fleet(&loop, fo);
  ASSERT_EQ(fleet.AddSession({}, /*weight=*/1, /*local=*/true),
            FleetHost::Admission::kAdmitted);
  fleet.window_server(0)->FillRect(kScreenDrawable, Rect{10, 10, 80, 60},
                                   MakePixel(20, 180, 90));
  loop.Run();
  EXPECT_GT(fleet.transport(0)->BytesDeliveredTo(Transport::kClient), 0);
  int64_t diff = 0;
  EXPECT_TRUE(fleet.window_server(0)->screen().Equals(
      fleet.client(0)->framebuffer(), &diff))
      << diff << " pixels differ";
}

}  // namespace
}  // namespace thinc
