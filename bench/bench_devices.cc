// Heterogeneous device matrix: per-device-class interactive quality and the
// mixed-population capacity argument.
//
// The paper evaluates one client class on clean pipes; a deployed host
// serves a MATRIX of devices — PC desktops, smartphone-class remote
// displays on lossy WAN paths, Pi-class terminals — each with its own
// panel, decode CPU, input cadence, and degradation ladder. This bench
// measures two things that matrix changes:
//
//   1. Device-class table — one session per canonical profile
//      (desktop / phone / terminal), driven by ITS OWN replayable input
//      trace (typing bursts, flick scrolls, sparse kiosk taps). Reports
//      per-class update latency (p50/p95 of queued->applied spans), bytes
//      shipped, retransmission count on the lossy path, and decode CPU.
//   2. Mixed-vs-uniform capacity sweep — N web sessions on one NIC-bound
//      host, all-desktop vs a 1/3-desktop / 1/3-phone / 1/3-terminal mix.
//      Phone viewports are a quarter of the hosted area, so the shared
//      NIC carries proportionally less and the capacity knee of the mixed
//      population sits at or beyond the uniform-desktop knee.
//
// Emits BENCH_devices.json.
#include <deque>
#include <vector>

#include "bench/web_fleet.h"
#include "src/device/device.h"
#include "src/fleet/fleet.h"
#include "src/net/lossy.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/workload/input_trace.h"
#include "src/workload/web.h"

using namespace thinc;

namespace {

constexpr int32_t kScreenW = 512;
constexpr int32_t kScreenH = 384;
constexpr uint64_t kSeed = 13;

LinkParams AccessLan() {
  return LinkParams{100'000'000, 20 * kMillisecond, 1 << 20, "device-lan"};
}

// The NIC-bound sweep link (the scarce resource of the capacity argument).
LinkParams FleetNic() {
  return LinkParams{1'000'000, 20 * kMillisecond, 256 << 10, "device-nic"};
}

// Phone profile scaled to the bench host: canonical smartphone class,
// ladder, loss model, and decode speed, with a quarter-area panel of the
// hosted desktop and the session link left to the shared NIC.
DeviceProfile BenchPhone() {
  DeviceProfile p = SmartphoneProfile();
  p.screen_width = kScreenW / 2;
  p.screen_height = kScreenH / 2;
  p.link.reset();
  return p;
}

// --- Device-class table ------------------------------------------------------

struct ClassRun {
  const char* name = "";
  size_t events = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  int64_t bytes = 0;
  int64_t segments_lost = 0;  // lossy-path retransmissions; 0 on clean wires
  SimTime decode_busy = 0;
  int32_t view_w = 0;
  int32_t view_h = 0;
};

// One session of `profile` on an otherwise idle host, driven by the
// profile's own input cadence for `duration` of virtual time. Keystrokes
// echo a glyph-sized update, scrolls repaint a content band, taps load a
// full web page — the per-class interactive mix.
ClassRun RunDeviceClass(const char* name, const DeviceProfile& profile,
                        SimTime duration) {
  TelemetryScope telemetry({.spans = true});
  const WebWorkload web(kScreenW, kScreenH, kSeed);
  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = kScreenW;
  fo.screen_height = kScreenH;
  fo.link = AccessLan();
  fo.cpu_speed = 16.0;
  fo.seed = kSeed;
  fo.degradation_enabled = false;
  FleetHost fleet(&loop, fo);
  THINC_CHECK(fleet.AddSession({}, /*weight=*/1, /*local=*/false, profile) ==
              FleetHost::Admission::kAdmitted);

  std::deque<InputEventKind> kinds;
  int page = 0;
  int band = 0;
  fleet.SetInputCallback(0, [&](Point p) {
    THINC_CHECK(!kinds.empty());
    const InputEventKind kind = kinds.front();
    kinds.pop_front();
    WindowServer* ws = fleet.window_server(0);
    switch (kind) {
      case InputEventKind::kKeystroke:
        // One typed glyph at the caret.
        ws->FillRect(kScreenDrawable, Rect{p.x, p.y, 8, 16},
                     MakePixel(20, 20, 20));
        break;
      case InputEventKind::kScroll:
        // A flick shifts a content band into view.
        ws->FillRect(kScreenDrawable,
                     Rect{0, (band++ % 6) * (kScreenH / 6), kScreenW,
                          kScreenH / 6},
                     MakePixel(static_cast<uint8_t>(40 + 30 * (band % 5)),
                               120, 180));
        break;
      case InputEventKind::kTap:
        // A navigation tap loads the next page.
        web.RenderPage(ws, page++ % web.page_count(), fleet.host_cpu());
        break;
    }
  });

  InputTraceOptions to;
  to.cadence = profile.cadence;
  to.duration = duration;
  to.seed = kSeed;
  to.screen_width = profile.screen_width > 0 ? profile.screen_width : kScreenW;
  to.screen_height =
      profile.screen_height > 0 ? profile.screen_height : kScreenH;
  const std::vector<InputEvent> trace = GenerateInputTrace(to);
  ReplayInputTrace(&loop, trace, [&fleet, &kinds](const InputEvent& e) {
    kinds.push_back(e.kind);
    fleet.ClientClick(0, e.location);
  });
  loop.Run();

  ClassRun r;
  r.name = name;
  r.events = trace.size();
  r.bytes = fleet.transport(0)->BytesDeliveredTo(Transport::kClient);
  if (fleet.transport(0)->kind() == TransportKind::kLossy) {
    r.segments_lost =
        static_cast<LossyTransport*>(fleet.transport(0))->segments_lost();
  }
  r.decode_busy = fleet.session(0)->session->device_cpu()->total_busy();
  r.view_w = fleet.client(0)->framebuffer().width();
  r.view_h = fleet.client(0)->framebuffer().height();
  const bench::UpdateLatencies latencies = bench::CollectUpdateLatencies();
  r.p50_ms = latencies.PercentileMs(0.50);
  r.p95_ms = latencies.PercentileMs(0.95);
  return r;
}

// --- Mixed-vs-uniform capacity sweep -----------------------------------------

constexpr int kPagesPerSession = 3;

DeviceProfile SweepProfile(int i, bool mixed) {
  if (!mixed) {
    return DesktopProfile();
  }
  switch (i % 3) {
    case 1:
      return BenchPhone();
    case 2:
      return PiTerminalProfile();
    default:
      return DesktopProfile();
  }
}

struct FleetRun {
  int n = 0;
  bool mixed = false;
  double pooled_p95_ms = 0;
  int64_t nic_bytes = 0;
  int64_t spans_completed = 0;
};

// Open-loop web fleet: every session clicks through the same pages at the
// same staggered cadence; only the population composition changes.
FleetRun RunPopulation(int n, bool mixed) {
  TelemetryScope telemetry({.spans = true});
  const WebWorkload web(kScreenW, kScreenH, kSeed);
  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = kScreenW;
  fo.screen_height = kScreenH;
  fo.link = FleetNic();
  fo.cpu_speed = 16.0;
  fo.send_buffer_bytes = 32 << 10;
  fo.seed = kSeed;
  fo.degradation_enabled = false;  // raw capacity, not degraded capacity
  FleetHost fleet(&loop, fo);
  bench::RunOpenLoopWeb(
      &loop, &fleet, web, {.sessions = n, .pages = kPagesPerSession},
      [&fleet, mixed](int i) {
        THINC_CHECK(fleet.AddSession({}, /*weight=*/1, /*local=*/false,
                                     SweepProfile(i, mixed)) ==
                    FleetHost::Admission::kAdmitted);
      });

  FleetRun r;
  r.n = n;
  r.mixed = mixed;
  for (int i = 0; i < n; ++i) {
    r.nic_bytes += fleet.transport(static_cast<size_t>(i))
                       ->BytesDeliveredTo(Transport::kClient);
  }
  const bench::UpdateLatencies latencies = bench::CollectUpdateLatencies();
  r.spans_completed = latencies.completed();
  r.pooled_p95_ms = latencies.PercentileMs(0.95);
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Heterogeneous device matrix: per-class quality and mixed capacity",
      "(trace-driven class table; then uniform-vs-mixed population sweep)");

  // -- Device-class table --
  constexpr SimTime kTableDuration = 40 * kSecond;
  const std::vector<ClassRun> table = {
      RunDeviceClass("desktop", DesktopProfile(), kTableDuration),
      RunDeviceClass("phone", SmartphoneProfile(), kTableDuration),
      RunDeviceClass("terminal", PiTerminalProfile(), kTableDuration),
  };
  std::printf("\n-- One session per class, %lld s of its own input trace --\n",
              static_cast<long long>(kTableDuration / kSecond));
  std::printf("%-10s %8s %10s %10s %12s %10s %12s %10s\n", "class", "events",
              "p50_ms", "p95_ms", "KB", "lost", "decode_ms", "viewport");
  for (const ClassRun& r : table) {
    std::printf("%-10s %8zu %10.1f %10.1f %12.1f %10lld %12.1f %7dx%d\n",
                r.name, r.events, r.p50_ms, r.p95_ms,
                static_cast<double>(r.bytes) / 1024.0,
                static_cast<long long>(r.segments_lost),
                static_cast<double>(r.decode_busy) / kMillisecond, r.view_w,
                r.view_h);
  }
  THINC_CHECK_MSG(table[1].segments_lost > 0,
                  "phone class must run over the lossy path");
  THINC_CHECK_MSG(table[2].decode_busy > table[0].decode_busy,
                  "terminal's slower decode CPU must show in busy time");

  // -- Mixed-vs-uniform sweep --
  std::printf("\n-- Fleet on a %.0f Mbps NIC: uniform desktops vs "
              "desktop/phone/terminal mix --\n",
              static_cast<double>(FleetNic().bandwidth_bps) / 1'000'000);
  std::printf("%4s %9s %14s %14s %10s\n", "N", "mix", "pooled_p95_ms",
              "nic_bytes", "updates");
  std::vector<FleetRun> runs;
  for (int n : {3, 6, 9, 12, 15}) {
    for (bool mixed : {false, true}) {
      FleetRun r = RunPopulation(n, mixed);
      std::printf("%4d %9s %14.1f %14lld %10lld\n", r.n,
                  r.mixed ? "mixed" : "uniform", r.pooled_p95_ms,
                  static_cast<long long>(r.nic_bytes),
                  static_cast<long long>(r.spans_completed));
      std::fflush(stdout);
      runs.push_back(r);
    }
  }
  const int knee_uniform = bench::Knee(
      runs, [](const FleetRun& r) { return r.mixed ? 0 : r.n; });
  const int knee_mixed = bench::Knee(
      runs, [](const FleetRun& r) { return r.mixed ? r.n : 0; });
  std::printf("capacity knee (largest N with pooled p95 <= %.0f ms): "
              "uniform-desktop -> %d sessions, mixed -> %d sessions\n",
              bench::kKneeMs, knee_uniform, knee_mixed);
  THINC_CHECK_MSG(knee_mixed >= knee_uniform,
                  "mixed population must hold the knee at or beyond the "
                  "uniform-desktop knee: phone viewports ship less");

  std::FILE* f = std::fopen("BENCH_devices.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"trace_duration_us\": %lld,\n"
                 "  \"device_classes\": [\n",
                 static_cast<long long>(kTableDuration));
    for (size_t i = 0; i < table.size(); ++i) {
      const ClassRun& r = table[i];
      std::fprintf(
          f,
          "    {\"class\": \"%s\", \"events\": %zu, \"p50_ms\": %.3f, "
          "\"p95_ms\": %.3f, \"bytes\": %lld, \"segments_lost\": %lld, "
          "\"decode_busy_us\": %lld, \"viewport\": \"%dx%d\"}%s\n",
          r.name, r.events, r.p50_ms, r.p95_ms,
          static_cast<long long>(r.bytes),
          static_cast<long long>(r.segments_lost),
          static_cast<long long>(r.decode_busy), r.view_w, r.view_h,
          i + 1 < table.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"fleet\": {\n    \"nic_bps\": %lld, "
                 "\"pages_per_session\": %d, \"knee_uniform_desktop\": %d, "
                 "\"knee_mixed\": %d,\n    \"sweep\": [\n",
                 static_cast<long long>(FleetNic().bandwidth_bps),
                 kPagesPerSession, knee_uniform, knee_mixed);
    for (size_t i = 0; i < runs.size(); ++i) {
      const FleetRun& r = runs[i];
      std::fprintf(f,
                   "      {\"n\": %d, \"mixed\": %s, \"p95_ms\": %.3f, "
                   "\"nic_bytes\": %lld, \"updates_completed\": %lld}%s\n",
                   r.n, r.mixed ? "true" : "false", r.pooled_p95_ms,
                   static_cast<long long>(r.nic_bytes),
                   static_cast<long long>(r.spans_completed),
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_devices.json\n");
  }
  std::printf(
      "\nExpected shape: the phone pays latency for its lossy WAN path but\n"
      "ships far fewer bytes through its quarter-area viewport; the terminal\n"
      "matches desktop bytes at roughly double the decode time; and the mixed\n"
      "population's capacity knee sits at or beyond the uniform-desktop knee.\n");
  return 0;
}
