// Device-conformance tier: the heterogeneous client matrix (phone/terminal
// profiles), the lossy WAN path, the packet-pair estimator's loss guard, and
// the replayable interactive input traces.
//
// The organizing claims, each tested here:
//   * a DeviceProfile threads one device's reality (screen, decode CPU,
//     ladder, path) through ThincSystem, FleetHost, and ClusterController
//     without changing anything for desktop sessions;
//   * loss and jitter move virtual TIME, never BYTES — wire streams stay
//     byte-identical to clean runs and across reruns;
//   * the overload ladder is profile-aware: phones verifiably shed
//     resolution before desktops lose any fidelity;
//   * input traces are pure functions of (cadence, seed, duration) and
//     replay to the identical schedule.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/adapt/net_estimator.h"
#include "src/baselines/thinc_system.h"
#include "src/cluster/cluster.h"
#include "src/device/device.h"
#include "src/net/lossy.h"
#include "src/workload/input_trace.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

LinkParams Lan() { return LinkParams{100'000'000, 200, 1 << 20, "lan"}; }

// A phone-shaped profile scaled to test-sized hosted desktops: same class,
// ladder, loss model, and decode speed as the canonical smartphone, but a
// panel that fits under the small screens the tests draw on.
DeviceProfile TestPhone(int32_t w, int32_t h) {
  DeviceProfile p = SmartphoneProfile();
  p.screen_width = w;
  p.screen_height = h;
  // Keep the fast test link; the canonical cellular link shape is asserted
  // separately. Loss stays on.
  p.link.reset();
  return p;
}

// Scripted drawing session against a ThincSystem built from `profile`;
// returns the delivered-to-client hash.
uint64_t RunProfileSession(const DeviceProfile& profile, int cores,
                           int64_t* bytes_out = nullptr,
                           int64_t* client_busy_out = nullptr) {
  EventLoop loop;
  ThincSystem sys(&loop, profile, Lan(), 128, 96, ThincServerOptions{},
                  cores);
  WindowServer* ws = sys.window_server();
  Prng rng(17);
  for (int step = 0; step < 4; ++step) {
    ws->FillRect(kScreenDrawable, Rect{0, 0, 128, 96},
                 MakePixel(static_cast<uint8_t>(30 * step), 90, 150));
    std::vector<Pixel> noise(48 * 24);
    for (Pixel& p : noise) {
      p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    }
    ws->PutImage(kScreenDrawable, Rect{4 * step, 20, 48, 24}, noise);
    loop.RunUntil((step + 1) * 150 * kMillisecond);
  }
  loop.Run();
  if (bytes_out != nullptr) {
    *bytes_out = sys.BytesToClient();
  }
  if (client_busy_out != nullptr) {
    *client_busy_out = sys.client_cpu()->total_busy();
  }
  return sys.connection()->DeliveredHashTo(Transport::kClient);
}

// --- Profiles ----------------------------------------------------------------

TEST(DeviceMatrixTest, CanonicalProfilesDescribeTheMatrix) {
  const DeviceProfile desktop = DesktopProfile();
  EXPECT_EQ(desktop.klass, DeviceClass::kDesktop);
  EXPECT_EQ(desktop.decode_speed, 1.0);
  EXPECT_FALSE(desktop.lossy);
  EXPECT_FALSE(desktop.link.has_value());
  EXPECT_EQ(desktop.screen_width, 0) << "desktop runs the hosted size";

  const DeviceProfile phone = SmartphoneProfile();
  EXPECT_EQ(phone.klass, DeviceClass::kSmartphone);
  EXPECT_EQ(phone.screen_width, 480);
  EXPECT_EQ(phone.screen_height, 320);
  EXPECT_LT(phone.decode_speed, 0.5);
  EXPECT_TRUE(phone.lossy);
  ASSERT_TRUE(phone.link.has_value());
  EXPECT_LT(phone.link->bandwidth_bps, Lan().bandwidth_bps);
  EXPECT_GT(phone.link->rtt, Lan().rtt);
  EXPECT_EQ(phone.cadence, InputCadence::kPhoneTouch);

  const DeviceProfile term = PiTerminalProfile();
  EXPECT_EQ(term.klass, DeviceClass::kTerminal);
  EXPECT_EQ(term.screen_width, 0) << "terminal drives its full native screen";
  EXPECT_LT(term.decode_speed, 1.0);
  EXPECT_FALSE(term.lossy);
  EXPECT_EQ(term.cadence, InputCadence::kTerminalKiosk);

  EXPECT_STREQ(DeviceClassName(DeviceClass::kDesktop), "desktop");
  EXPECT_STREQ(DeviceClassName(DeviceClass::kSmartphone), "phone");
  EXPECT_STREQ(DeviceClassName(DeviceClass::kTerminal), "terminal");
}

TEST(DeviceMatrixTest, DefaultProfileMatchesLegacyConstructorByteForByte) {
  // The device-profile constructor with DesktopProfile() must be
  // indistinguishable from the historical constructor: same bytes, same
  // hash.
  int64_t legacy_bytes = 0;
  uint64_t legacy = 0;
  {
    EventLoop loop;
    ThincSystem sys(&loop, Lan(), 128, 96);
    WindowServer* ws = sys.window_server();
    Prng rng(17);
    for (int step = 0; step < 4; ++step) {
      ws->FillRect(kScreenDrawable, Rect{0, 0, 128, 96},
                   MakePixel(static_cast<uint8_t>(30 * step), 90, 150));
      std::vector<Pixel> noise(48 * 24);
      for (Pixel& p : noise) {
        p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
      }
      ws->PutImage(kScreenDrawable, Rect{4 * step, 20, 48, 24}, noise);
      loop.RunUntil((step + 1) * 150 * kMillisecond);
    }
    loop.Run();
    legacy_bytes = sys.BytesToClient();
    legacy = sys.connection()->DeliveredHashTo(Transport::kClient);
  }
  int64_t profile_bytes = 0;
  const uint64_t via_profile =
      RunProfileSession(DesktopProfile(), 1, &profile_bytes);
  EXPECT_GT(legacy_bytes, 0);
  EXPECT_EQ(legacy_bytes, profile_bytes);
  EXPECT_EQ(legacy, via_profile);
}

TEST(DeviceMatrixTest, PhoneViewportNegotiatedAtSessionStart) {
  EventLoop loop;
  ThincSystem sys(&loop, TestPhone(64, 48), Lan(), 128, 96);
  loop.Run();
  EXPECT_EQ(sys.transport_kind(), TransportKind::kLossy);
  EXPECT_EQ(sys.client()->framebuffer().width(), 64);
  EXPECT_EQ(sys.client()->framebuffer().height(), 48);
}

TEST(DeviceMatrixTest, PhoneViewportShipsFewerBytesThanDesktop) {
  int64_t desktop_bytes = 0, phone_bytes = 0;
  RunProfileSession(DesktopProfile(), 1, &desktop_bytes);
  DeviceProfile phone = TestPhone(64, 48);
  phone.lossy = false;  // isolate the viewport effect from path effects
  RunProfileSession(phone, 1, &phone_bytes);
  EXPECT_GT(desktop_bytes, 0);
  EXPECT_GT(phone_bytes, 0);
  EXPECT_LT(phone_bytes, desktop_bytes)
      << "a quarter-size panel must receive resampled, smaller updates";
}

TEST(DeviceMatrixTest, TerminalDecodeChargesItsSlowerCpu) {
  // The Pi-class terminal decodes the same byte stream at 0.5x: its decode
  // account must be busy roughly twice as long as the desktop's.
  int64_t desktop_bytes = 0, term_bytes = 0;
  int64_t desktop_busy = 0, term_busy = 0;
  const uint64_t d =
      RunProfileSession(DesktopProfile(), 1, &desktop_bytes, &desktop_busy);
  const uint64_t t =
      RunProfileSession(PiTerminalProfile(), 1, &term_bytes, &term_busy);
  EXPECT_EQ(desktop_bytes, term_bytes)
      << "decode speed must not change wire bytes";
  EXPECT_EQ(d, t);
  EXPECT_GT(desktop_busy, 0);
  EXPECT_GT(term_busy, desktop_busy * 3 / 2);
}

TEST(DeviceMatrixTest, ProfileSessionDeterministicAcrossRerunsAndCores) {
  // Same profile, same seed: byte-identical wire at K in {1, 2}.
  int64_t b1 = 0, b1b = 0, b2 = 0;
  const DeviceProfile phone = TestPhone(64, 48);
  const uint64_t h1 = RunProfileSession(phone, 1, &b1);
  const uint64_t h1b = RunProfileSession(phone, 1, &b1b);
  const uint64_t h2 = RunProfileSession(phone, 2, &b2);
  EXPECT_GT(b1, 0);
  EXPECT_EQ(b1, b1b);
  EXPECT_EQ(h1, h1b);
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(h1, h2);
}

// --- Profile-aware degradation ladder ----------------------------------------

TEST(DeviceMatrixTest, LadderDegradesPhoneResolutionFirst) {
  const DegradationSchedule desktop = DegradationSchedule::Default();
  const DegradationSchedule phone = DegradationSchedule::ResolutionFirst();
  // Level 1: the phone already sheds resolution; the desktop is still at
  // full fidelity.
  EXPECT_EQ(phone.fidelity_subsample[1], 2);
  EXPECT_EQ(desktop.fidelity_subsample[1], 1);
  EXPECT_EQ(desktop.fidelity_subsample[2], 1);
  // The desktop first loses fidelity only at level 3, by which point the
  // phone has been shedding resolution for two rungs.
  EXPECT_EQ(desktop.fidelity_subsample[3], 2);
  EXPECT_GE(phone.fidelity_subsample[3], desktop.fidelity_subsample[3]);
  // In exchange the phone batches less aggressively at level 1 (latency
  // stays interactive while resolution drops).
  EXPECT_LT(phone.flush_stretch[1], desktop.flush_stretch[1]);
  // Both schedules are monotone: walking up the ladder never restores
  // quality on any axis.
  for (int i = 1; i <= kMaxDegradationLevel; ++i) {
    for (const DegradationSchedule* s : {&desktop, &phone}) {
      EXPECT_GE(s->flush_stretch[i], s->flush_stretch[i - 1]);
      EXPECT_GE(s->video_decimation[i], s->video_decimation[i - 1]);
      EXPECT_GE(s->fidelity_subsample[i], s->fidelity_subsample[i - 1]);
      EXPECT_LE(s->socket_backlog_budget[i], s->socket_backlog_budget[i - 1]);
    }
  }
}

TEST(DeviceMatrixTest, ServerAppliesTheProfileLadder) {
  EventLoop loop;
  ThincSystem desktop(&loop, DesktopProfile(), Lan(), 128, 96);
  ThincSystem phone(&loop, TestPhone(64, 48), Lan(), 128, 96);
  loop.Run();
  for (int level = 0; level <= kMaxDegradationLevel; ++level) {
    desktop.server()->SetDegradationLevel(level);
    phone.server()->SetDegradationLevel(level);
    EXPECT_EQ(desktop.server()->current_fidelity_subsample(),
              DegradationSchedule::Default().fidelity_subsample[level]);
    EXPECT_EQ(phone.server()->current_fidelity_subsample(),
              DegradationSchedule::ResolutionFirst().fidelity_subsample[level]);
  }
  // The acceptance shape: at the first overload rung the phone is already
  // subsampling while the desktop still ships full fidelity.
  desktop.server()->SetDegradationLevel(1);
  phone.server()->SetDegradationLevel(1);
  EXPECT_EQ(desktop.server()->current_fidelity_subsample(), 1);
  EXPECT_EQ(phone.server()->current_fidelity_subsample(), 2);
}

// --- Lossy transport unit behavior -------------------------------------------

TEST(LossyTransportTest, ZeroLossConfigMatchesCleanWireTiming) {
  LossyOptions silent;
  silent.p_good_to_bad = 0;
  silent.loss_good = 0;
  silent.loss_bad = 0;
  silent.jitter_max = 0;
  std::vector<uint8_t> msg(6000, 0xAB);
  SimTime clean_last = 0, lossy_last = 0;
  {
    EventLoop loop;
    Connection conn(&loop, Lan());
    conn.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
    conn.Send(Transport::kServer, msg);
    loop.Run();
    clean_last = conn.LastDeliveryTo(Transport::kClient);
  }
  {
    EventLoop loop;
    LossyTransport lt(&loop, Lan(), silent);
    lt.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
    lt.Send(Transport::kServer, msg);
    loop.Run();
    lossy_last = lt.LastDeliveryTo(Transport::kClient);
    EXPECT_EQ(lt.segments_lost(), 0);
    EXPECT_GT(lt.segments_sent(), 0);
  }
  EXPECT_EQ(clean_last, lossy_last)
      << "with the loss process silenced, the lossy path IS the wire";
}

TEST(LossyTransportTest, ForcedLossDelaysDeliveryByWholeRtos) {
  // Loss within epsilon of certain (the model requires < 1) and a retransmit
  // cap of 2: with the fixed seed every attempt's draw loses, so each
  // segment times out exactly twice before the assumed-through delivery and
  // arrival shifts by 2 RTOs.
  LossyOptions forced;
  forced.p_good_to_bad = 0;
  forced.loss_good = 0.999999;
  forced.loss_bad = 0.999999;
  forced.jitter_max = 0;
  forced.max_retransmits = 2;
  forced.rto = 30 * kMillisecond;
  std::vector<uint8_t> msg(1000, 0x5C);
  SimTime clean_last = 0, lossy_last = 0;
  {
    EventLoop loop;
    Connection conn(&loop, Lan());
    conn.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
    conn.Send(Transport::kServer, msg);
    loop.Run();
    clean_last = conn.LastDeliveryTo(Transport::kClient);
  }
  {
    EventLoop loop;
    LossyTransport lt(&loop, Lan(), forced);
    lt.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
    lt.Send(Transport::kServer, msg);
    loop.Run();
    lossy_last = lt.LastDeliveryTo(Transport::kClient);
    EXPECT_EQ(lt.segments_lost(), 2 * lt.segments_sent());
  }
  EXPECT_EQ(lossy_last, clean_last + 2 * forced.rto);
}

TEST(LossyTransportTest, HeavyJitterStillDeliversInSendOrder) {
  // Jitter far larger than serialization shuffles raw arrivals wildly; the
  // per-direction delivery floor must hand the receiver the exact sent
  // stream anyway.
  LossyOptions jittery;
  jittery.p_good_to_bad = 0;
  jittery.loss_good = 0;
  jittery.jitter_max = 50 * kMillisecond;
  jittery.jitter_quantum = 1 * kMillisecond;
  jittery.seed = 3;
  EventLoop loop;
  LossyTransport lt(&loop, Lan(), jittery);
  std::vector<uint8_t> received;
  lt.SetReceiver(Transport::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  std::vector<uint8_t> expected;
  Prng rng(8);
  for (int i = 0; i < 30; ++i) {
    std::vector<uint8_t> chunk(500 + rng.NextBelow(3000));
    for (uint8_t& b : chunk) {
      b = static_cast<uint8_t>(rng.Next());
    }
    lt.Send(Transport::kServer, chunk);
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  loop.Run();
  EXPECT_EQ(received, expected);
}

TEST(LossyTransportTest, GilbertElliottChainActuallyBursts) {
  // With the default chain the Bad state must both occur and lose packets:
  // lifetime counters show real, but bounded, loss.
  EventLoop loop;
  LossyOptions loss;
  loss.seed = 12;
  LossyTransport lt(&loop, Lan(), loss);
  lt.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
  for (int i = 0; i < 100; ++i) {
    lt.Send(Transport::kServer, std::vector<uint8_t>(4096, 0x11));
  }
  loop.Run();
  EXPECT_GT(lt.segments_sent(), 100);
  EXPECT_GT(lt.segments_lost(), 0);
  EXPECT_LT(lt.segments_lost(), lt.segments_sent())
      << "default chain is lossy, not a black hole";
}

TEST(LossyTransportTest, DirectionsUseIndependentStreams) {
  // The two directions derive distinct PRNG substreams: forcing loss on
  // with the same seed, the uplink and downlink timings differ, yet both
  // deliver their bytes.
  EventLoop loop;
  LossyOptions loss;
  loss.p_good_to_bad = 0.3;
  loss.loss_bad = 0.5;
  loss.seed = 9;
  LossyTransport lt(&loop, Lan(), loss);
  std::vector<uint8_t> down, up;
  lt.SetReceiver(Transport::kClient, [&](std::span<const uint8_t> d) {
    down.insert(down.end(), d.begin(), d.end());
  });
  lt.SetReceiver(Transport::kServer, [&](std::span<const uint8_t> d) {
    up.insert(up.end(), d.begin(), d.end());
  });
  const std::vector<uint8_t> msg(8000, 0x3D);
  lt.Send(Transport::kServer, msg);
  lt.Send(Transport::kClient, msg);
  loop.Run();
  EXPECT_EQ(down, msg);
  EXPECT_EQ(up, msg);
  EXPECT_NE(lt.LastDeliveryTo(Transport::kClient),
            lt.LastDeliveryTo(Transport::kServer))
      << "identical payloads, independent loss draws";
}

// --- Packet-pair estimation under loss ---------------------------------------

TEST(LossyEstimatorTest, RetransmissionBetweenPairDoesNotInflateEstimate) {
  // Regression: a retransmitted segment landing between a back-to-back pair
  // used to produce a near-zero inter-arrival gap and a wildly inflated
  // bandwidth estimate. Both the pair ending at and starting from the
  // disturbed delivery must be discarded.
  NetEstimator est;
  est.OnDelivery(Transport::kServer, 1000, 1460);
  est.OnDelivery(Transport::kServer, 1117, 1460);  // honest 117 us gap
  ASSERT_TRUE(est.HasBandwidth());
  const int64_t honest = est.BandwidthBps();
  est.OnDeliveryDisturbed(Transport::kServer);
  est.OnDelivery(Transport::kServer, 1118, 1460);  // 1 us behind: poisoned
  EXPECT_EQ(est.BandwidthBps(), honest)
      << "the pair ENDING at the disturbed segment must be discarded";
  est.OnDelivery(Transport::kServer, 1119, 1460);  // 1 us after disturbed
  EXPECT_EQ(est.BandwidthBps(), honest)
      << "the pair STARTING from the disturbed segment must be discarded";
  // The next honest pair measures again.
  est.OnDelivery(Transport::kServer, 5000, 1460);
  est.OnDelivery(Transport::kServer, 5117, 1460);
  EXPECT_EQ(est.BandwidthBps(), honest);
}

TEST(LossyEstimatorTest, DisturbanceBeforeAnyEstimateIsHarmless) {
  NetEstimator est;
  est.OnDeliveryDisturbed(Transport::kServer);
  est.OnDelivery(Transport::kServer, 100, 1460);
  EXPECT_FALSE(est.HasBandwidth());
  est.OnDelivery(Transport::kServer, 217, 1460);
  est.OnDelivery(Transport::kServer, 334, 1460);
  EXPECT_TRUE(est.HasBandwidth());
}

TEST(LossyEstimatorTest, ClientDirectionDisturbanceIgnored) {
  NetEstimator est;
  est.OnDelivery(Transport::kServer, 1000, 1460);
  est.OnDeliveryDisturbed(Transport::kClient);  // uplink noise: not ours
  est.OnDelivery(Transport::kServer, 1117, 1460);
  EXPECT_TRUE(est.HasBandwidth());
}

TEST(LossyEstimatorTest, EstimateOverLossyPathMatchesCleanWire) {
  // End-to-end: the estimator observing a lossy transport must converge to
  // the same link rate it reads off the clean wire — quantized jitter keeps
  // clean equal-jitter pairs frequent, and the disturbance guard discards
  // the rest. Above all it must never OVERestimate.
  int64_t clean_bw = 0, lossy_bw = 0;
  {
    EventLoop loop;
    Connection conn(&loop, Lan(), 1 << 20);
    NetEstimator est;
    conn.SetObserver(&est);
    conn.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
    for (int i = 0; i < 60; ++i) {
      conn.Send(Transport::kServer, std::vector<uint8_t>(8 * 1460, 0x77));
    }
    loop.Run();
    ASSERT_TRUE(est.HasBandwidth());
    clean_bw = est.BandwidthBps();
  }
  {
    EventLoop loop;
    LossyOptions loss;
    loss.seed = 21;
    LossyTransport lt(&loop, Lan(), loss, 1 << 20);
    NetEstimator est;
    lt.SetObserver(&est);
    lt.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
    for (int i = 0; i < 60; ++i) {
      lt.Send(Transport::kServer, std::vector<uint8_t>(8 * 1460, 0x77));
    }
    loop.Run();
    EXPECT_GT(lt.segments_lost(), 0) << "loss must actually bite";
    ASSERT_TRUE(est.HasBandwidth());
    lossy_bw = est.BandwidthBps();
  }
  EXPECT_LE(lossy_bw, clean_bw) << "the guard must prevent overestimation";
  EXPECT_EQ(lossy_bw, clean_bw)
      << "clean pairs survive loss, so the estimate converges exactly";
}

// --- Input traces -------------------------------------------------------------

InputTraceOptions TraceOptions(InputCadence cadence, uint64_t seed = 5) {
  InputTraceOptions o;
  o.cadence = cadence;
  o.duration = 30 * kSecond;
  o.seed = seed;
  o.screen_width = 480;
  o.screen_height = 320;
  return o;
}

TEST(InputTraceTest, SameSeedSameSchedule) {
  for (InputCadence c : {InputCadence::kDesktopKeyboard,
                         InputCadence::kPhoneTouch,
                         InputCadence::kTerminalKiosk}) {
    const std::vector<InputEvent> a = GenerateInputTrace(TraceOptions(c));
    const std::vector<InputEvent> b = GenerateInputTrace(TraceOptions(c));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time, b[i].time);
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].location.x, b[i].location.x);
      EXPECT_EQ(a[i].location.y, b[i].location.y);
    }
  }
}

TEST(InputTraceTest, DistinctSeedsDiverge) {
  const std::vector<InputEvent> a =
      GenerateInputTrace(TraceOptions(InputCadence::kPhoneTouch, 5));
  const std::vector<InputEvent> b =
      GenerateInputTrace(TraceOptions(InputCadence::kPhoneTouch, 6));
  bool differs = a.size() != b.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].time != b[i].time || a[i].location.x != b[i].location.x;
  }
  EXPECT_TRUE(differs);
}

TEST(InputTraceTest, CadencesHaveDistinctShapes) {
  const InputTraceStats desktop = SummarizeInputTrace(
      GenerateInputTrace(TraceOptions(InputCadence::kDesktopKeyboard)));
  const InputTraceStats phone = SummarizeInputTrace(
      GenerateInputTrace(TraceOptions(InputCadence::kPhoneTouch)));
  const InputTraceStats kiosk = SummarizeInputTrace(
      GenerateInputTrace(TraceOptions(InputCadence::kTerminalKiosk)));
  // The desktop types; the phone flicks; the kiosk only taps, rarely.
  EXPECT_GT(desktop.keystrokes, 0u);
  EXPECT_EQ(desktop.scrolls, 0u);
  EXPECT_GT(phone.scrolls, 0u);
  EXPECT_EQ(phone.keystrokes, 0u);
  EXPECT_EQ(kiosk.events, kiosk.taps);
  EXPECT_GT(desktop.events, phone.events);
  EXPECT_GT(phone.events, kiosk.events);
  EXPECT_LT(desktop.mean_gap, phone.mean_gap);
  EXPECT_LT(phone.mean_gap, kiosk.mean_gap);
}

TEST(InputTraceTest, EventsInBoundsAndStrictlyIncreasing) {
  for (InputCadence c : {InputCadence::kDesktopKeyboard,
                         InputCadence::kPhoneTouch,
                         InputCadence::kTerminalKiosk}) {
    const InputTraceOptions o = TraceOptions(c);
    const std::vector<InputEvent> trace = GenerateInputTrace(o);
    ASSERT_FALSE(trace.empty());
    SimTime prev = -1;
    for (const InputEvent& e : trace) {
      EXPECT_GT(e.time, prev);
      EXPECT_LT(e.time, o.duration);
      EXPECT_GE(e.location.x, 0);
      EXPECT_LT(e.location.x, o.screen_width);
      EXPECT_GE(e.location.y, 0);
      EXPECT_LT(e.location.y, o.screen_height);
      prev = e.time;
    }
  }
}

TEST(InputTraceTest, ReplayFiresEveryEventAtItsScheduledTime) {
  const std::vector<InputEvent> trace =
      GenerateInputTrace(TraceOptions(InputCadence::kPhoneTouch));
  EventLoop loop;
  loop.Schedule(7 * kSecond, [] {});  // replay starts at a nonzero now
  loop.Run();
  const SimTime base = loop.now();
  std::vector<SimTime> fired;
  ReplayInputTrace(&loop, trace,
                   [&](const InputEvent&) { fired.push_back(loop.now() - base); });
  loop.Run();
  ASSERT_EQ(fired.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(fired[i], trace[i].time);
  }
}

TEST(InputTraceTest, TraceDrivenSessionWireIsDeterministic) {
  // A phone trace driving clicks through a lossy phone session: the full
  // loop (input -> server echo -> lossy wire) must produce byte-identical
  // streams across reruns and across server core counts.
  auto run = [](int cores) {
    EventLoop loop;
    ThincSystem sys(&loop, TestPhone(64, 48), Lan(), 128, 96,
                    ThincServerOptions{}, cores);
    WindowServer* ws = sys.window_server();
    sys.SetInputCallback([ws](Point p) {
      // Echo every real click as a small draw at the click site.
      ws->FillRect(kScreenDrawable,
                   Rect{p.x % 100, p.y % 70, 16, 12}, MakePixel(250, 80, 10));
    });
    InputTraceOptions o = TraceOptions(InputCadence::kPhoneTouch, 23);
    o.duration = 10 * kSecond;
    o.screen_width = 64;
    o.screen_height = 48;
    ReplayInputTrace(&loop, GenerateInputTrace(o), [&sys](const InputEvent& e) {
      sys.ClientClick(e.location);
    });
    loop.Run();
    return sys.connection()->DeliveredHashTo(Transport::kClient);
  };
  const uint64_t a = run(1);
  const uint64_t b = run(1);
  const uint64_t c = run(2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

// --- Fleet: mixed population -------------------------------------------------

FleetOptions MixedFleet(uint64_t seed = 1) {
  FleetOptions fo;
  fo.screen_width = 160;
  fo.screen_height = 120;
  fo.link = LinkParams{100'000'000, 200, 1 << 20, "fleet-lan"};
  fo.seed = seed;
  fo.degradation_enabled = false;
  return fo;
}

TEST(DeviceFleetTest, MixedPopulationAdmitsAndTracksProfiles) {
  EventLoop loop;
  FleetHost fleet(&loop, MixedFleet());
  ASSERT_EQ(fleet.AddSession({}, 1, false, DesktopProfile()),
            FleetHost::Admission::kAdmitted);
  ASSERT_EQ(fleet.AddSession({}, 1, false, TestPhone(80, 60)),
            FleetHost::Admission::kAdmitted);
  ASSERT_EQ(fleet.AddSession({}, 1, false, PiTerminalProfile()),
            FleetHost::Admission::kAdmitted);
  loop.Run();
  EXPECT_EQ(fleet.profile(0).klass, DeviceClass::kDesktop);
  EXPECT_EQ(fleet.profile(1).klass, DeviceClass::kSmartphone);
  EXPECT_EQ(fleet.profile(2).klass, DeviceClass::kTerminal);
  EXPECT_EQ(fleet.transport(0)->kind(), TransportKind::kWire);
  EXPECT_EQ(fleet.transport(1)->kind(), TransportKind::kLossy);
  EXPECT_EQ(fleet.transport(2)->kind(), TransportKind::kWire);
  // The phone negotiated its panel; the others run the hosted size.
  EXPECT_EQ(fleet.client(1)->framebuffer().width(), 80);
  EXPECT_EQ(fleet.client(1)->framebuffer().height(), 60);
  EXPECT_EQ(fleet.client(0)->framebuffer().width(), 160);
  EXPECT_EQ(fleet.client(2)->framebuffer().width(), 160);
}

TEST(DeviceFleetTest, PhoneLossSeedsDeriveFromSessionSeeds) {
  EventLoop loop;
  FleetHost fleet(&loop, MixedFleet(/*seed=*/77));
  ASSERT_EQ(fleet.AddSession({}, 1, false, TestPhone(80, 60)),
            FleetHost::Admission::kAdmitted);
  ASSERT_EQ(fleet.AddSession({}, 1, false, TestPhone(80, 60)),
            FleetHost::Admission::kAdmitted);
  auto* a = static_cast<LossyTransport*>(fleet.transport(0));
  auto* b = static_cast<LossyTransport*>(fleet.transport(1));
  EXPECT_NE(a->lossy_options().seed, b->lossy_options().seed)
      << "two phone sessions must draw independent loss streams";
  EXPECT_NE(a->lossy_options().seed, LossyOptions{}.seed)
      << "the profile's template seed must be overridden per session";
}

TEST(DeviceFleetTest, ProfileLaddersApplyPerSession) {
  EventLoop loop;
  FleetHost fleet(&loop, MixedFleet());
  ASSERT_EQ(fleet.AddSession({}, 1, false, DesktopProfile()),
            FleetHost::Admission::kAdmitted);
  ASSERT_EQ(fleet.AddSession({}, 1, false, TestPhone(80, 60)),
            FleetHost::Admission::kAdmitted);
  loop.Run();
  fleet.server(0)->SetDegradationLevel(1);
  fleet.server(1)->SetDegradationLevel(1);
  EXPECT_EQ(fleet.server(0)->current_fidelity_subsample(), 1)
      << "desktop keeps full fidelity at level 1";
  EXPECT_EQ(fleet.server(1)->current_fidelity_subsample(), 2)
      << "phone sheds resolution at level 1";
}

TEST(DeviceFleetTest, MixedFleetRunsDeterministically) {
  auto run = [] {
    EventLoop loop;
    FleetHost fleet(&loop, MixedFleet(/*seed=*/31));
    fleet.AddSession({}, 1, false, DesktopProfile());
    fleet.AddSession({}, 1, false, TestPhone(80, 60));
    fleet.AddSession({}, 1, false, PiTerminalProfile());
    WebWorkload web(160, 120, /*seed=*/4);
    for (size_t id = 0; id < 3; ++id) {
      web.RenderPage(fleet.window_server(id), static_cast<int32_t>(id),
                     fleet.host_cpu());
    }
    loop.Run();
    std::vector<uint64_t> hashes;
    for (size_t id = 0; id < 3; ++id) {
      hashes.push_back(fleet.transport(id)->DeliveredHashTo(Transport::kClient));
    }
    return hashes;
  };
  const std::vector<uint64_t> a = run();
  const std::vector<uint64_t> b = run();
  EXPECT_EQ(a, b);
  // Sessions are genuinely distinct streams.
  EXPECT_NE(a[0], a[1]);
}

// --- Cluster: profiles travel with sessions ----------------------------------

ClusterOptions DeviceCluster(int hosts) {
  ClusterOptions co;
  co.hosts = hosts;
  co.host = MixedFleet(/*seed=*/11);
  co.host.cpu_speed = 16.0;
  co.migration_enabled = false;
  return co;
}

TEST(DeviceClusterTest, PlacementForwardsProfiles) {
  EventLoop loop;
  ClusterController cluster(&loop, DeviceCluster(2));
  const int64_t desktop = cluster.AddSession({});
  const int64_t phone =
      cluster.AddSession({}, 1, std::nullopt, TestPhone(80, 60));
  ASSERT_GE(desktop, 0);
  ASSERT_GE(phone, 0);
  loop.Run();
  EXPECT_EQ(cluster.transport(desktop)->kind(), TransportKind::kWire);
  EXPECT_EQ(cluster.transport(phone)->kind(), TransportKind::kLossy);
  EXPECT_EQ(cluster.client(phone)->framebuffer().width(), 80);
  EXPECT_EQ(cluster.client(phone)->framebuffer().height(), 60);
}

TEST(DeviceClusterTest, MigrationCarriesTheDeviceProfile) {
  EventLoop loop;
  ClusterController cluster(&loop, DeviceCluster(2));
  const int64_t gid = cluster.AdmitOnHost(0, {}, 1, TestPhone(80, 60));
  ASSERT_GE(gid, 0);
  cluster.window_server(gid)->FillRect(kScreenDrawable, Rect{5, 5, 60, 40},
                                       MakePixel(10, 200, 90));
  loop.Run();
  const int64_t bytes_before = cluster.BytesDeliveredToClient(gid);
  EXPECT_GT(bytes_before, 0);
  ASSERT_TRUE(cluster.MigrateSession(gid, 1));
  loop.Run();
  EXPECT_EQ(cluster.host_of(gid), 1u);
  // The destination rebuilt the session from its traveling profile: still a
  // lossy wire, still the phone panel.
  EXPECT_EQ(cluster.transport(gid)->kind(), TransportKind::kLossy);
  EXPECT_EQ(cluster.client(gid)->framebuffer().width(), 80);
  EXPECT_EQ(cluster.client(gid)->framebuffer().height(), 60);
  FleetHost* dest = cluster.host(1);
  bool phone_profile_on_dest = false;
  for (size_t slot = 0; slot < dest->session_count(); ++slot) {
    if (dest->has_session(slot) &&
        dest->profile(slot).klass == DeviceClass::kSmartphone) {
      phone_profile_on_dest = true;
    }
  }
  EXPECT_TRUE(phone_profile_on_dest);
  // And the session keeps delivering over the new lossy wire.
  cluster.window_server(gid)->FillRect(kScreenDrawable, Rect{30, 30, 50, 50},
                                       MakePixel(240, 10, 60));
  loop.Run();
  EXPECT_GT(cluster.BytesDeliveredToClient(gid), bytes_before);
}

}  // namespace
}  // namespace thinc
