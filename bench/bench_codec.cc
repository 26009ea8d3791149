// Codec ladder: the inter-frame delta rung and bandwidth-adaptive selection.
//
// Three artifacts:
//
//   1. Ladder rung sweep (Fig. 5/6 shape) — web data volume, A/V quality,
//      and desktop-repaint volume at each degradation level 0-4 on the LAN
//      (where the estimator alone never engages the delta rung, so each
//      level isolates what the LADDER adds). Level 2 is the new codec rung:
//      it forces delta coding BEFORE any fidelity loss, so desktop repaint
//      volume must drop at level 2 while the client stays pixel-exact.
//
//   2. WAN equal-fidelity A/B — the same desktop repaint stream over a
//      100 Mbit/s / 66 ms RTT wire with adaptive selection on vs off. The
//      66 ms RTT puts the selector on the (lossless) delta rung, so the
//      adaptive arm must deliver fewer bytes at zero pixel mismatch.
//
//   3. Starved-WAN latency A/B — 1 Mbit/s / 66 ms RTT, where serialization
//      dominates update latency. Adaptive selection (delta + subsample)
//      must cut the p95 round latency vs intra-only.
//
// Emits BENCH_codec.json (virtual quantities only: byte-identical across
// reruns). scripts/check.sh compares it with bench/golden/codec.json, which
// pins the adaptation-on output.
#include "bench/bench_common.h"

#include <algorithm>
#include <vector>

#include "src/baselines/thinc_system.h"
#include "src/net/link.h"
#include "src/telemetry/metrics.h"
#include "src/util/logging.h"

using namespace thinc;

namespace {

constexpr int32_t kScreenW = 160, kScreenH = 120;
constexpr int32_t kWinW = 96, kWinH = 64;

LinkParams Wan100M() {
  return LinkParams{100'000'000, 66 * kMillisecond, 1 << 20, "wan-100M"};
}

LinkParams Wan1M() {
  return LinkParams{1'000'000, 66 * kMillisecond, 256 << 10, "wan-1M"};
}

int64_t CodecCounter(const char* name) {
  return MetricsRegistry::Get().GetCounter(name)->value();
}

// The delta-friendly desktop workload: a static photo-like textured window
// with a small box moving each round. Intra codecs re-encode every pixel of
// every repaint; the delta codec collapses the unchanged texture to SKIP
// runs.
std::vector<Pixel> WindowFrame(int32_t w, int32_t h, int round) {
  std::vector<Pixel> px(static_cast<size_t>(w) * h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      uint32_t hash = static_cast<uint32_t>(x) * 73856093u ^
                      static_cast<uint32_t>(y) * 19349663u;
      hash *= 2654435761u;
      px[static_cast<size_t>(y) * w + x] =
          MakePixel(static_cast<uint8_t>(hash), static_cast<uint8_t>(hash >> 8),
                    static_cast<uint8_t>(hash >> 16));
    }
  }
  const int32_t bx = (round * 24) % (w - 16);
  const int32_t by = (round * 8) % (h - 16);
  for (int32_t y = by; y < by + 16; ++y) {
    for (int32_t x = bx; x < bx + 16; ++x) {
      px[static_cast<size_t>(y) * w + x] = MakePixel(180, 30, 30);
    }
  }
  return px;
}

struct DesktopRun {
  int64_t bytes = 0;           // server->client wire volume
  int64_t delta_hits = 0;
  int64_t delta_fallbacks = 0;
  int64_t bytes_saved = 0;     // intra size - delta size, summed over hits
  int64_t mismatched_pixels = 0;  // client vs live screen after quiesce
  int64_t p95_round_us = 0;    // p95 of render -> last delivered byte
};

// `rounds` timed window repaints on one THINC session. Render instants are
// fixed virtual times, so every run of the same configuration is
// byte-identical.
DesktopRun RunDesktop(const LinkParams& link, bool adapt, int level, int rounds,
                      SimTime round_period) {
  const int64_t hits0 = CodecCounter("codec.delta_hits");
  const int64_t fb0 = CodecCounter("codec.delta_fallbacks");
  const int64_t saved0 = CodecCounter("codec.delta_bytes_saved");
  EventLoop loop;
  ThincServerOptions so;
  so.adapt.enabled = adapt;
  so.initial_degradation_level = level;
  ThincSystem sys(&loop, link, kScreenW, kScreenH, so);
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, kScreenW, kScreenH},
                                MakePixel(30, 60, 90));
  std::vector<int64_t> round_latency;
  for (int r = 0; r < rounds; ++r) {
    const SimTime render_at = loop.now();
    sys.window_server()->PutImage(kScreenDrawable, Rect{20, 20, kWinW, kWinH},
                                  WindowFrame(kWinW, kWinH, r));
    loop.RunUntil(render_at + round_period);
    round_latency.push_back(
        sys.connection()->LastDeliveryTo(Connection::kClient) - render_at);
  }
  loop.Run();
  DesktopRun out;
  out.bytes = sys.connection()->BytesDeliveredTo(Connection::kClient);
  out.delta_hits = CodecCounter("codec.delta_hits") - hits0;
  out.delta_fallbacks = CodecCounter("codec.delta_fallbacks") - fb0;
  out.bytes_saved = CodecCounter("codec.delta_bytes_saved") - saved0;
  const Surface& screen = sys.window_server()->screen();
  const Surface& fb = sys.client()->framebuffer();
  for (int32_t y = 0; y < screen.height(); ++y) {
    for (int32_t x = 0; x < screen.width(); ++x) {
      if (screen.At(x, y) != fb.At(x, y)) {
        ++out.mismatched_pixels;
      }
    }
  }
  out.p95_round_us = bench::PercentileUs(std::move(round_latency), 0.95);
  return out;
}

// --- Ladder rung sweep -------------------------------------------------------

struct RungResult {
  int level = 0;
  double web_page_kb = 0;
  double web_latency_ms = 0;
  double av_quality = 0;
  int64_t av_bytes = 0;
  DesktopRun desktop;
};

RungResult RunRung(int level, int pages) {
  RungResult r;
  r.level = level;
  ExperimentConfig config = LanDesktopConfig();
  config.thinc_options.adapt.enabled = true;
  config.thinc_options.initial_degradation_level = level;
  const WebRunResult web = RunWebBenchmark(SystemKind::kThinc, config, pages);
  r.web_page_kb = web.AvgPageKb();
  r.web_latency_ms = web.AvgLatencyMs(false);
  // The rung applies to the A/V run too (decimation at 1+, fidelity
  // subsampling at 3+).
  const AvRunResult av =
      RunAvBenchmark(SystemKind::kThinc, config, BenchClipDuration());
  r.av_quality = av.quality;
  r.av_bytes = av.bytes;
  r.desktop = RunDesktop(LanDesktopLink(), /*adapt=*/true, level, /*rounds=*/8,
                         500 * kMillisecond);
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Codec ladder: inter-frame delta rung and adaptive selection",
      "(rung sweep on LAN; adaptive vs intra-only A/B on WAN)");

  // -- 1. Ladder rung sweep --
  const int pages = bench::WebPageCount();
  std::printf("\n-- Degradation rungs on LAN (%d web pages; 8 desktop "
              "repaints) --\n",
              pages);
  std::printf("%5s %11s %11s %11s %10s %13s %11s %10s\n", "level",
              "web_KB/page", "web_lat_ms", "av_quality", "av_KB",
              "desktop_KB", "delta_hits", "mismatch");
  std::vector<RungResult> rungs;
  for (int level = 0; level <= kMaxDegradationLevel; ++level) {
    RungResult r = RunRung(level, pages);
    std::printf("%5d %11.1f %11.1f %11.2f %10.1f %13.1f %11lld %10lld\n",
                r.level, r.web_page_kb, r.web_latency_ms, r.av_quality,
                static_cast<double>(r.av_bytes) / 1024.0,
                static_cast<double>(r.desktop.bytes) / 1024.0,
                static_cast<long long>(r.desktop.delta_hits),
                static_cast<long long>(r.desktop.mismatched_pixels));
    std::fflush(stdout);
    rungs.push_back(r);
  }
  // Level 2 is the codec rung: lossless delta before any fidelity loss.
  THINC_CHECK_MSG(rungs[2].desktop.delta_hits > 0,
                  "level 2 must force the delta rung");
  THINC_CHECK_MSG(rungs[2].desktop.mismatched_pixels == 0,
                  "the codec rung must stay pixel-exact");
  THINC_CHECK_MSG(rungs[2].desktop.bytes < rungs[1].desktop.bytes,
                  "the codec rung must cut desktop repaint volume before "
                  "fidelity subsampling is reached");

  // -- 2. WAN equal-fidelity A/B --
  constexpr int kAbRounds = 12;
  DesktopRun wan_on =
      RunDesktop(Wan100M(), /*adapt=*/true, 0, kAbRounds, 500 * kMillisecond);
  DesktopRun wan_off =
      RunDesktop(Wan100M(), /*adapt=*/false, 0, kAbRounds, 500 * kMillisecond);
  std::printf("\n-- WAN 100 Mbit/s / 66 ms RTT, %d repaints, equal fidelity --\n",
              kAbRounds);
  std::printf("%-12s %12s %12s %12s %12s %10s\n", "selection", "bytes",
              "delta_hits", "fallbacks", "saved", "mismatch");
  std::printf("%-12s %12lld %12lld %12lld %12lld %10lld\n", "adaptive",
              static_cast<long long>(wan_on.bytes),
              static_cast<long long>(wan_on.delta_hits),
              static_cast<long long>(wan_on.delta_fallbacks),
              static_cast<long long>(wan_on.bytes_saved),
              static_cast<long long>(wan_on.mismatched_pixels));
  std::printf("%-12s %12lld %12s %12s %12s %10lld\n", "intra-only",
              static_cast<long long>(wan_off.bytes), "-", "-", "-",
              static_cast<long long>(wan_off.mismatched_pixels));
  THINC_CHECK_MSG(wan_on.delta_hits > 0, "WAN RTT must engage the delta rung");
  THINC_CHECK_MSG(
      wan_on.mismatched_pixels == 0 && wan_off.mismatched_pixels == 0,
      "equal-fidelity arms must both be pixel-exact");
  THINC_CHECK_MSG(wan_on.bytes < wan_off.bytes,
                  "delta coding must reduce data volume vs intra-only at "
                  "equal fidelity");

  // -- 3. Starved-WAN latency A/B --
  constexpr int kP95Rounds = 16;
  DesktopRun slow_on =
      RunDesktop(Wan1M(), /*adapt=*/true, 0, kP95Rounds, 1500 * kMillisecond);
  DesktopRun slow_off =
      RunDesktop(Wan1M(), /*adapt=*/false, 0, kP95Rounds, 1500 * kMillisecond);
  std::printf("\n-- WAN 1 Mbit/s / 66 ms RTT, %d repaints --\n", kP95Rounds);
  std::printf("%-12s %12s %14s %12s\n", "selection", "bytes", "p95_round_ms",
              "mismatch");
  std::printf("%-12s %12lld %14.1f %12lld\n", "adaptive",
              static_cast<long long>(slow_on.bytes),
              static_cast<double>(slow_on.p95_round_us) / kMillisecond,
              static_cast<long long>(slow_on.mismatched_pixels));
  std::printf("%-12s %12lld %14.1f %12lld\n", "intra-only",
              static_cast<long long>(slow_off.bytes),
              static_cast<double>(slow_off.p95_round_us) / kMillisecond,
              static_cast<long long>(slow_off.mismatched_pixels));
  THINC_CHECK_MSG(slow_on.p95_round_us < slow_off.p95_round_us,
                  "adaptive selection must improve p95 update latency on a "
                  "starved WAN link");

  std::FILE* f = std::fopen("BENCH_codec.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"rungs\": [\n");
    for (size_t i = 0; i < rungs.size(); ++i) {
      const RungResult& r = rungs[i];
      std::fprintf(
          f,
          "    {\"level\": %d, \"web_page_kb\": %.3f, \"web_latency_ms\": "
          "%.3f, \"av_quality\": %.4f, \"av_bytes\": %lld, \"desktop_bytes\": "
          "%lld, \"desktop_delta_hits\": %lld, \"desktop_mismatched_pixels\": "
          "%lld}%s\n",
          r.level, r.web_page_kb, r.web_latency_ms, r.av_quality,
          static_cast<long long>(r.av_bytes),
          static_cast<long long>(r.desktop.bytes),
          static_cast<long long>(r.desktop.delta_hits),
          static_cast<long long>(r.desktop.mismatched_pixels),
          i + 1 < rungs.size() ? "," : "");
    }
    auto write_arm = [f](const char* name, const DesktopRun& r, bool last) {
      std::fprintf(f,
                   "    \"%s\": {\"bytes\": %lld, \"delta_hits\": %lld, "
                   "\"delta_fallbacks\": %lld, \"bytes_saved\": %lld, "
                   "\"p95_round_us\": %lld, \"mismatched_pixels\": %lld}%s\n",
                   name, static_cast<long long>(r.bytes),
                   static_cast<long long>(r.delta_hits),
                   static_cast<long long>(r.delta_fallbacks),
                   static_cast<long long>(r.bytes_saved),
                   static_cast<long long>(r.p95_round_us),
                   static_cast<long long>(r.mismatched_pixels),
                   last ? "" : ",");
    };
    std::fprintf(f, "  ],\n  \"wan_equal_fidelity\": {\n");
    write_arm("adaptive", wan_on, false);
    write_arm("intra_only", wan_off, true);
    std::fprintf(f, "  },\n  \"wan_starved\": {\n");
    write_arm("adaptive", slow_on, false);
    write_arm("intra_only", slow_off, true);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_codec.json\n");
  }
  std::printf(
      "\nExpected shape: the level-2 codec rung cuts desktop repaint volume\n"
      "with zero fidelity loss; on the WAN the estimator engages it without\n"
      "the ladder, and on a starved link delta+subsample cuts p95 latency.\n");
  return 0;
}
