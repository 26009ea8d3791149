// The paper's Section 8 evaluation in one binary: Table 2, Figures 2-7 and
// ablations A1-A6, printed in DESIGN.md §4 order.
//
// The evaluation is one matrix, systems x {LAN, WAN, PDA} x {web, A/V} plus
// THINC from the Table 2 sites, and each figure prints some columns of it.
// Every distinct run happens once, into the containers below: Figs. 2 and 3
// print the same web cells and Figs. 5 and 6 the same A/V cells; the LAN
// rows of Figs. 4 and 7 are the THINC LAN cells; Table 2 and Fig. 7 share
// the iperf probes; and an ablation's default arm (A1 and A5 "on", A3
// "push", A4's server-resize, ICA, RDP and VNC rows) is the paper cell it
// varies. Only the other ablation arms, the Fig. 2 stage-breakdown runs and
// the A2/A6 experiments run on their own.
//
// Systems per network configuration follow Section 8.1:
//   * LAN/WAN Desktop: ICA, RDP, X, NX, Sun Ray, VNC, THINC (+ local PC
//     baseline); GoToMyPC only in WAN (it is an Internet-routed service).
//   * 802.11g PDA: only the systems that support a client geometry
//     different from the server's: ICA, RDP, GoToMyPC, VNC, THINC.
//
// On the full 54-page suite the paper's shape claims are THINC_CHECKed on
// the computed cells (passing checks print nothing). With THINC_WEB_PAGES
// and THINC_AV_FULL unset, stdout is pinned by bench/golden/paper.txt,
// which scripts/check.sh diffs against.
#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/thinc_system.h"
#include "src/core/session_share.h"
#include "src/util/buffer.h"
#include "src/util/logging.h"
#include "src/util/prng.h"
#include "src/workload/web.h"

using namespace thinc;

namespace {

std::vector<SystemKind> DesktopSystems(bool include_gotomypc) {
  std::vector<SystemKind> systems = {
      SystemKind::kIca,  SystemKind::kRdp,    SystemKind::kX,
      SystemKind::kNx,   SystemKind::kSunRay, SystemKind::kVnc,
      SystemKind::kThinc};
  if (include_gotomypc) {
    systems.insert(systems.begin() + 2, SystemKind::kGotomypc);
  }
  systems.push_back(SystemKind::kLocalPc);
  return systems;
}

std::vector<SystemKind> PdaSystems() {
  return {SystemKind::kIca, SystemKind::kRdp, SystemKind::kGotomypc,
          SystemKind::kVnc, SystemKind::kThinc};
}

// One network configuration of Figs. 2/3 and 5/6 and its cells.
struct Platform {
  ExperimentConfig config;
  std::vector<SystemKind> systems;
  std::vector<WebRunResult> web;  // parallel to systems
  std::vector<AvRunResult> av;    // parallel to systems

  size_t Index(SystemKind kind) const {
    return static_cast<size_t>(std::find(systems.begin(), systems.end(), kind) -
                               systems.begin());
  }
  const WebRunResult& Web(SystemKind kind) const { return web.at(Index(kind)); }
  const AvRunResult& Av(SystemKind kind) const { return av.at(Index(kind)); }
};

// THINC from one Table 2 site (Figs. 4 and 7).
struct Site {
  RemoteSite site;
  double iperf_mbps = 0;
  WebRunResult web;
  AvRunResult av;
};

// Every run of the evaluation. platforms[0..1] (LAN, WAN Desktop) are also
// the configs the on/off ablations sweep; their off arms are indexed alike.
struct Results {
  int32_t pages = 0;
  SimTime clip = 0;
  std::vector<Platform> platforms;  // LAN, WAN, PDA
  double lan_iperf_mbps = 0;
  std::vector<Site> sites;
  std::vector<WebBreakdownResult> breakdowns;  // Fig. 2: LAN, WAN
  std::vector<WebRunResult> no_tracking;       // A1 "off": LAN, WAN
  std::vector<AvRunResult> pull;               // A3 "pull": LAN, WAN
  WebRunResult no_resize_web;                  // A4 "no-resize" (PDA)
  AvRunResult no_resize_av;
  std::vector<WebRunResult> no_compression;    // A5 "off": LAN, WAN
};

const char* const kTracePaths[] = {"TRACE_fig2_LAN.json", "TRACE_fig2_WAN.json"};

Results RunAll() {
  Results r;
  r.pages = bench::WebPageCount();
  r.clip = BenchClipDuration();
  r.platforms = {
      {LanDesktopConfig(), DesktopSystems(/*include_gotomypc=*/false), {}, {}},
      {WanDesktopConfig(), DesktopSystems(/*include_gotomypc=*/true), {}, {}},
      {Pda80211gConfig(), PdaSystems(), {}, {}}};
  for (Platform& p : r.platforms) {
    for (SystemKind kind : p.systems) {
      p.web.push_back(RunWebBenchmark(kind, p.config, r.pages));
      p.av.push_back(RunAvBenchmark(kind, p.config, r.clip));
    }
  }
  r.lan_iperf_mbps = MeasureIperfMbps(LanDesktopLink());
  for (const RemoteSite& site : RemoteSites()) {
    const ExperimentConfig config = RemoteSiteConfig(site);
    r.sites.push_back(Site{site, MeasureIperfMbps(site.link),
                           RunWebBenchmark(SystemKind::kThinc, config, r.pages),
                           RunAvBenchmark(SystemKind::kThinc, config, r.clip)});
  }
  for (int i = 0; i < 2; ++i) {
    const ExperimentConfig& base = r.platforms[i].config;
    r.breakdowns.push_back(RunThincWebBreakdown(base, r.pages, kTracePaths[i]));
    ExperimentConfig config = base;
    config.thinc_options.offscreen_tracking = false;
    r.no_tracking.push_back(RunWebBenchmark(SystemKind::kThinc, config, r.pages));
    config = base;
    config.thinc_options.server_push = false;
    r.pull.push_back(RunAvBenchmark(SystemKind::kThinc, config, r.clip));
    config = base;
    config.thinc_options.compress_raw = false;
    r.no_compression.push_back(
        RunWebBenchmark(SystemKind::kThinc, config, r.pages));
  }
  // A client with no resize support: the PDA link, but no viewport.
  ExperimentConfig no_resize = r.platforms[2].config;
  no_resize.viewport.reset();
  r.no_resize_web = RunWebBenchmark(SystemKind::kThinc, no_resize, r.pages);
  r.no_resize_av = RunAvBenchmark(SystemKind::kThinc, no_resize, r.clip);
  return r;
}

// --- Table 2 -------------------------------------------------------------------

void PrintTable2(const Results& r) {
  bench::PrintHeader(
      "Table 2: Remote Sites for WAN Experiments",
      "site  planetlab  distance_mi  rtt_ms  window_KB  iperf_Mbps  video_ok");
  for (const Site& s : r.sites) {
    std::printf("%-5s %-9s  %11d  %6.1f  %9lld  %10.1f  %s\n",
                s.site.name.c_str(), s.site.planetlab ? "yes" : "no",
                s.site.distance_miles,
                static_cast<double>(s.site.link.rtt) / kMillisecond,
                static_cast<long long>(s.site.link.tcp_window_bytes >> 10),
                s.iperf_mbps, s.iperf_mbps >= 24.5 ? "yes" : "NO");
  }
  std::printf("(local LAN testbed iperf: %.1f Mbps; full-screen video needs ~24 Mbps)\n",
              r.lan_iperf_mbps);
}

// --- Figures 2 and 3: web latency and data per page ----------------------------

// Figure 2: two measures per system, matching the paper's solid vs
// cross-hatched bars: network latency (packet-trace based) and the complete
// measure including client processing time. The paper could only instrument
// the client for X, VNC, NX, and THINC; the simulation reports both for all
// systems (the network-only column is the conservative comparison basis for
// ICA/RDP/GoToMyPC/Sun Ray, as in Section 8.2). Then, per LAN and WAN, a
// telemetry-instrumented THINC run: the per-page latency breakdown (mean
// per-update stage times from lifecycle spans) plus a Perfetto-loadable
// Chrome trace of the whole run.
void PrintFig2(const Results& r) {
  bench::PrintHeader("Figure 2: Web Benchmark - Average Page Latency",
                     "(average over the 54-page i-Bench-style suite)");
  std::printf("pages per run: %d\n", r.pages);
  for (const Platform& p : r.platforms) {
    std::printf("\n-- %s Desktop (%lld Mbps, %.1f ms RTT%s) --\n",
                p.config.name.c_str(),
                static_cast<long long>(p.config.link.bandwidth_bps / 1'000'000),
                static_cast<double>(p.config.link.rtt) / kMillisecond,
                p.config.viewport.has_value() ? ", 320x240 viewport" : "");
    std::printf("%-10s %14s %22s\n", "system", "net_latency_ms", "with_client_ms");
    for (const WebRunResult& w : p.web) {
      std::printf("%-10s %14.0f %22.0f\n", w.system.c_str(), w.AvgLatencyMs(false),
                  w.AvgLatencyMs(true));
    }
  }
  for (size_t i = 0; i < r.breakdowns.size(); ++i) {
    const WebBreakdownResult& b = r.breakdowns[i];
    std::printf("\n-- THINC stage breakdown, %s (mean per update, ms) --\n",
                r.platforms[i].config.name.c_str());
    std::printf("%-5s %9s %10s %8s %8s %10s %9s %8s %6s %9s\n", "page", "queue",
                "encode", "send", "net", "decode", "total", "updates", "hits",
                "wire_kb");
    for (size_t page = 0; page < b.pages.size(); ++page) {
      const StageBreakdown& s = b.pages[page];
      std::printf("%-5zu %9.3f %10.3f %8.3f %8.3f %10.3f %9.3f %8lld %6lld %9.1f\n",
                  page, s.queue_ms, s.encode_ms, s.send_ms, s.network_ms,
                  s.decode_ms, s.total_ms, static_cast<long long>(s.updates),
                  static_cast<long long>(s.encode_cache_hits),
                  static_cast<double>(s.wire_bytes) / 1024.0);
    }
    if (b.trace_written) {
      std::printf("wrote %s (load in Perfetto or chrome://tracing)\n",
                  kTracePaths[i]);
    }
  }
  std::printf(
      "\nPaper shape: THINC fastest in every configuration (up to 1.7x LAN, 4.8x\n"
      "WAN vs others); THINC beats the local PC; X degrades ~2.5x LAN->WAN; NX\n"
      "between THINC and X; GoToMyPC ~3 s per page; sub-second for most systems.\n");
}

void PrintFig3(const Results& r) {
  bench::PrintHeader("Figure 3: Web Benchmark - Average Page Data Transferred",
                     "(server-to-client bytes per page)");
  std::printf("pages per run: %d\n", r.pages);
  for (const Platform& p : r.platforms) {
    std::printf("\n-- %s Desktop --\n", p.config.name.c_str());
    std::printf("%-10s %14s\n", "system", "KB_per_page");
    for (const WebRunResult& w : p.web) {
      std::printf("%-10s %14.0f\n", w.system.c_str(), w.AvgPageKb());
    }
  }
  std::printf(
      "\nPaper shape: local PC least data; among thin clients THINC is smallest\n"
      "except NX (LAN) and 8-bit GoToMyPC (WAN); THINC sends ~half of VNC's\n"
      "data; server-side resize cuts THINC's PDA data by >2x vs its desktop\n"
      "volume while ICA's client resize saves nothing.\n");
}

// --- Figure 4: THINC web latency from the remote sites ---------------------------

// Section 8.1's instrumented client: it processes every update and drives no
// output hardware, which is all the simulated client ever does.
void PrintFig4(const Results& r) {
  bench::PrintHeader("Figure 4: Web Benchmark - THINC Page Latency, Remote Sites",
                     "site   rtt_ms   latency_ms   vs_LAN");
  const double lan_ms = r.platforms[0].Web(SystemKind::kThinc).AvgLatencyMs(true);
  std::printf("%-5s %7.1f %12.0f %8.2fx\n", "LAN", 0.2, lan_ms, 1.0);
  for (const Site& s : r.sites) {
    const double ms = s.web.AvgLatencyMs(true);
    std::printf("%-5s %7.1f %12.0f %8.2fx\n", s.site.name.c_str(),
                static_cast<double>(s.site.link.rtt) / kMillisecond, ms,
                ms / lan_ms);
  }
  std::printf(
      "\nPaper shape: sub-second everywhere except Korea; latency grows <2.5x to\n"
      "Finland while RTT grows >100x over the LAN.\n");
}

// --- Figures 5 and 6: A/V quality and data ---------------------------------------

void PrintClipDuration(const Results& r) {
  std::printf("clip duration: %.2f s (set THINC_AV_FULL=1 for the paper's 34.75 s)\n",
              static_cast<double>(r.clip) / kSecond);
}

std::string Frames(const AvRunResult& a) {
  return std::to_string(a.frames_displayed) + "/" + std::to_string(a.frames_total);
}

// GoToMyPC and VNC are video-only (no audio support), as in the paper.
void PrintFig5(const Results& r) {
  bench::PrintHeader("Figure 5: A/V Benchmark - A/V Quality",
                     "(352x240 24fps clip played full-screen; GoToMyPC/VNC video-only)");
  PrintClipDuration(r);
  for (const Platform& p : r.platforms) {
    std::printf("\n-- %s Desktop --\n", p.config.name.c_str());
    std::printf("%-10s %10s %14s %10s\n", "system", "quality_%", "frames", "audio_%");
    for (const AvRunResult& a : p.av) {
      std::printf("%-10s %10.1f %14s %10s\n", a.system.c_str(), a.quality * 100,
                  Frames(a).c_str(),
                  a.audio_supported
                      ? std::to_string(static_cast<int>(a.audio_fraction * 100)).c_str()
                      : "n/a");
    }
  }
  std::printf(
      "\nPaper shape: THINC is the only thin client at 100%% in every network,\n"
      "including PDA; the local PC also reaches 100%%; everything else sits far\n"
      "below (NX worst LAN ~12%%, GoToMyPC worst WAN <2%%, VNC hurt by its pull\n"
      "model, RDP/ICA ~20%%).\n");
}

void PrintFig6(const Results& r) {
  bench::PrintHeader("Figure 6: A/V Benchmark - Total Data Transferred",
                     "(systems that drop video send less data at lower quality)");
  PrintClipDuration(r);
  for (const Platform& p : r.platforms) {
    std::printf("\n-- %s Desktop --\n", p.config.name.c_str());
    std::printf("%-10s %10s %12s %10s\n", "system", "MB_total", "Mbps", "quality_%");
    for (const AvRunResult& a : p.av) {
      std::printf("%-10s %10.1f %12.1f %10.1f\n", a.system.c_str(),
                  static_cast<double>(a.bytes) / 1e6, a.bandwidth_mbps,
                  a.quality * 100);
    }
  }
  std::printf(
      "\nPaper shape: local PC ~1.2 Mbps (encoded stream only); THINC ~24 Mbps of\n"
      "YV12 at 100%% quality (117 MB for the full clip), dropping to ~3.5 Mbps in\n"
      "the PDA configuration via server-side video resizing; systems sending less\n"
      "than THINC do so by dropping frames.\n");
}

// --- Figure 7: THINC A/V quality from the remote sites ---------------------------

// Each site's relative bandwidth (iperf) as in the paper's combined figure.
void PrintFig7(const Results& r) {
  bench::PrintHeader("Figure 7: A/V Benchmark - THINC Quality, Remote Sites",
                     "site   quality_%   bandwidth_Mbps   rel_bw_vs_LAN");
  std::printf("%-5s %9.1f %16.1f %15.2f\n", "LAN",
              r.platforms[0].Av(SystemKind::kThinc).quality * 100,
              r.lan_iperf_mbps, 1.0);
  for (const Site& s : r.sites) {
    std::printf("%-5s %9.1f %16.1f %15.2f\n", s.site.name.c_str(),
                s.av.quality * 100, s.iperf_mbps, s.iperf_mbps / r.lan_iperf_mbps);
  }
  std::printf(
      "\nPaper shape: 100%% A/V quality at every site except Korea, whose 256 KB\n"
      "PlanetLab TCP window across a ~150 ms RTT caps throughput below the\n"
      "~24 Mbps the video stream needs.\n");
}

// --- A1: offscreen drawing awareness (Section 4.1) -------------------------------

// The web workload composes pages through offscreen pixmap hierarchies the
// way Mozilla does; with tracking disabled, every offscreen-to-screen copy
// degenerates to the "last resort" RAW path: higher bandwidth and, above
// all, server compression CPU. The paper claims the tracking overhead is
// negligible while the win is substantial.
void PrintA1Offscreen(const Results& r) {
  bench::PrintHeader("Ablation: Offscreen Drawing Awareness (web workload)",
                     "config           tracking  latency_ms  KB_page  server_cpu_ms");
  for (size_t i = 0; i < r.no_tracking.size(); ++i) {
    const Platform& p = r.platforms[i];
    const std::pair<const char*, const WebRunResult*> arms[] = {
        {"on", &p.Web(SystemKind::kThinc)}, {"off", &r.no_tracking[i]}};
    for (const auto& [tracking, w] : arms) {
      std::printf("%-16s %8s %11.0f %8.0f %14.0f\n", p.config.name.c_str(),
                  tracking, w->AvgLatencyMs(true), w->AvgPageKb(),
                  static_cast<double>(w->server_cpu_busy) / kMillisecond / r.pages);
    }
  }
  std::printf(
      "\nExpected: tracking off costs extra bytes and noticeably more server CPU\n"
      "per page (pixel readback + compression), while tracking itself is nearly\n"
      "free — the Section 4.1 claim.\n");
}

// --- A2: SRSF multi-queue scheduling vs plain FIFO (Section 5) -------------------

// A user clicks while a large background transfer is in flight; the small
// interactive update ("pressed button") should be delivered quickly. SRSF +
// the real-time queue let it jump the bulk data; FIFO makes it wait.
// Measured: time from click-feedback drawing to the button pixels appearing
// at the client, across progressively larger background updates.
SimTime ButtonFeedbackLatency(bool fifo, int32_t bg_size) {
  EventLoop loop;
  ThincServerOptions options;
  options.scheduler.fifo = fifo;
  LinkParams link{10'000'000, 2 * kMillisecond, 1 << 20, "mid"};  // modest link
  ThincSystem sys(&loop, link, 1024, 768, options);
  sys.SetInputCallback([](Point) {});
  sys.ClientClick(Point{900, 700});
  loop.Run();

  // Large noisy background update (a page render elsewhere on screen).
  Prng rng(1);
  std::vector<Pixel> noise(static_cast<size_t>(bg_size) * bg_size);
  for (Pixel& p : noise) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  sys.window_server()->PutImage(kScreenDrawable, Rect{0, 0, bg_size, bg_size},
                                noise);
  // The button press feedback near the cursor.
  sys.window_server()->FillRect(kScreenDrawable, Rect{890, 690, 24, 16}, kWhite);
  SimTime t0 = loop.now();
  SimTime button_at = -1;
  std::function<void()> poll = [&] {
    if (button_at < 0 && sys.ClientFramebuffer()->At(900, 700) == kWhite) {
      button_at = loop.now();
      return;
    }
    if (button_at < 0 && loop.has_pending()) {
      loop.Schedule(kMillisecond, poll);
    }
  };
  loop.Schedule(kMillisecond, poll);
  loop.Run();
  return button_at < 0 ? -1 : button_at - t0;
}

void PrintA2Scheduler() {
  bench::PrintHeader("Ablation: SRSF Scheduling vs FIFO (interactive response)",
                     "bg_update_px   srsf_ms   fifo_ms   speedup");
  for (int32_t bg : {128, 256, 384, 512, 640}) {
    SimTime srsf = ButtonFeedbackLatency(false, bg);
    SimTime fifo = ButtonFeedbackLatency(true, bg);
    std::printf("%9dx%-4d %9.1f %9.1f %8.1fx\n", bg, bg,
                static_cast<double>(srsf) / kMillisecond,
                static_cast<double>(fifo) / kMillisecond,
                static_cast<double>(fifo) / static_cast<double>(srsf));
  }
  std::printf(
      "\nExpected: SRSF keeps button feedback near-constant as the background\n"
      "update grows; FIFO response time scales with the bulk transfer size.\n");
}

// --- A3: server-push vs client-pull delivery (Section 5) --------------------------

// Video playback is the update stream that exposes the pull model: updates
// are generated faster than the client can request them, so each round trip
// caps the frame rate. The same THINC server runs in both modes.
void PrintA3PushPull(const Results& r) {
  bench::PrintHeader("Ablation: Server-Push vs Client-Pull (video playback)",
                     "config   model   quality_%   frames   Mbps");
  for (size_t i = 0; i < r.pull.size(); ++i) {
    const Platform& p = r.platforms[i];
    const std::pair<const char*, const AvRunResult*> arms[] = {
        {"push", &p.Av(SystemKind::kThinc)}, {"pull", &r.pull[i]}};
    for (const auto& [model, a] : arms) {
      std::printf("%-8s %-6s %10.1f %9s %7.1f\n", p.config.name.c_str(), model,
                  a->quality * 100, Frames(*a).c_str(), a->bandwidth_mbps);
    }
  }
  std::printf(
      "\nExpected: push sustains 100%% everywhere; pull loses quality as RTT\n"
      "grows — the round trip per update batch bounds the deliverable frame\n"
      "rate (the mechanism behind VNC's WAN collapse in Figure 5).\n");
}

// --- A4: server-side display resizing (Section 6) ----------------------------------

// Small-screen client on the 802.11g PDA network, three strategies:
//   * THINC server resize (RAW/PFILL resampled, BITMAP->RAW, SFILL as-is),
//   * no resize support at all (full-size updates, client shows them 1:1),
//   * client-side resize (ICA model: full-size data + slow client resample)
//     and viewport clipping (RDP/VNC model), via the baselines.
void PrintA4Resize(const Results& r) {
  bench::PrintHeader("Ablation: Server-Side Resize (802.11g PDA, 320x240 client)",
                     "strategy             web_ms  web_KB/page   av_quality_%  av_Mbps");
  const Platform& pda = r.platforms[2];
  struct Row {
    const char* name;
    const WebRunResult& web;
    const AvRunResult& av;
  };
  const Row rows[] = {
      {"THINC server-resize", pda.Web(SystemKind::kThinc), pda.Av(SystemKind::kThinc)},
      {"THINC no-resize", r.no_resize_web, r.no_resize_av},
      {"ICA client-resize", pda.Web(SystemKind::kIca), pda.Av(SystemKind::kIca)},
      {"RDP clipping", pda.Web(SystemKind::kRdp), pda.Av(SystemKind::kRdp)},
      {"VNC clipping", pda.Web(SystemKind::kVnc), pda.Av(SystemKind::kVnc)}};
  for (const Row& row : rows) {
    std::printf("%-20s %7.0f %12.0f %14.1f %8.1f\n", row.name,
                row.web.AvgLatencyMs(true), row.web.AvgPageKb(),
                row.av.quality * 100, row.av.bandwidth_mbps);
  }
  std::printf(
      "\nExpected: server resize cuts bandwidth by >2x vs no-resize with little\n"
      "latency cost and keeps video at 100%% within a few Mbps; ICA's client\n"
      "resize saves no bandwidth and adds client latency; clipping sends less\n"
      "but shows only a corner of the desktop.\n");
}

// --- A5: PNG-like compression of RAW updates (Section 7) ----------------------------

// RAW is the only THINC command that gets compressed; the image-heavy pages
// of the web suite are where it matters (the pages where the paper observed
// THINC falling back to "RAW encoding ... combined with simple,
// off-the-shelf compression"). Reports the big-image pages and the rest
// separately.
struct SplitStats {
  double image_kb = 0;
  double other_kb = 0;
  double image_ms = 0;
  double other_ms = 0;
};

SplitStats Split(const WebRunResult& r, const WebWorkload& workload) {
  SplitStats s;
  int images = 0;
  int others = 0;
  for (size_t i = 0; i < r.pages.size(); ++i) {
    if (workload.page(static_cast<int32_t>(i)).big_image_page) {
      s.image_kb += static_cast<double>(r.pages[i].bytes) / 1024.0;
      s.image_ms += r.pages[i].latency_with_client_ms;
      ++images;
    } else {
      s.other_kb += static_cast<double>(r.pages[i].bytes) / 1024.0;
      s.other_ms += r.pages[i].latency_with_client_ms;
      ++others;
    }
  }
  if (images > 0) {
    s.image_kb /= images;
    s.image_ms /= images;
  }
  if (others > 0) {
    s.other_kb /= others;
    s.other_ms /= others;
  }
  return s;
}

void PrintA5Compression(const Results& r) {
  bench::PrintHeader(
      "Ablation: RAW Compression (PNG-like codec on/off)",
      "config  compress  imgpage_KB  imgpage_ms  otherpage_KB  otherpage_ms");
  for (size_t i = 0; i < r.no_compression.size(); ++i) {
    const Platform& p = r.platforms[i];
    const WebWorkload workload(p.config.screen_width, p.config.screen_height);
    const std::pair<const char*, const WebRunResult*> arms[] = {
        {"on", &p.Web(SystemKind::kThinc)}, {"off", &r.no_compression[i]}};
    for (const auto& [compress, w] : arms) {
      const SplitStats s = Split(*w, workload);
      std::printf("%-7s %9s %11.0f %11.0f %13.0f %13.0f\n", p.config.name.c_str(),
                  compress, s.image_kb, s.image_ms, s.other_kb, s.other_ms);
    }
  }
  std::printf(
      "\nExpected: compression shrinks the single-large-image pages severalfold\n"
      "(at some encode CPU); text/fill pages barely change because they ship as\n"
      "semantic commands, not RAW — the Section 8.3 page-by-page observation.\n");
}

// --- A6: session-sharing scalability --------------------------------------------------

// The paper motivates consolidation ("computing resources can be
// consolidated and shared across many users") and screen sharing. This
// measures how one shared session scales with viewer count: total host CPU
// per page, aggregate bandwidth, and worst-viewer latency.
void PrintA6Sharing() {
  bench::PrintHeader(
      "Ablation: Screen-Sharing Scalability (LAN viewers)",
      "viewers  page_ms_worst  host_cpu_ms/page  total_KB/page  "
      "enc_charges/page  enc_reuses/page");
  const int32_t pages = 8;
  const BufferStats& stats = BufferStats::Get();
  for (int viewers : {1, 2, 4, 8, 16}) {
    EventLoop loop;
    SharedSessionHost host(&loop, 1024, 768);
    std::vector<SharedSessionHost::Viewer*> vs;
    for (int i = 0; i < viewers; ++i) {
      vs.push_back(host.AddViewer(LanDesktopLink()));
    }
    loop.Run();
    WebWorkload workload(1024, 768);
    const SimTime cpu0 = host.host_cpu()->total_busy();
    const int64_t charges0 = stats.encode_charges;
    const int64_t reuses0 = stats.payload_encode_hits + stats.frame_cache_hits;
    double worst_ms = 0;
    int64_t total_bytes = 0;
    std::vector<int64_t> base;
    for (auto* v : vs) {
      base.push_back(v->transport()->BytesDeliveredTo(Connection::kClient));
    }
    for (int32_t p = 0; p < pages; ++p) {
      loop.RunUntil(loop.now() + 200 * kMillisecond);
      SimTime t0 = loop.now();
      workload.RenderPage(host.window_server(), p, host.host_cpu());
      loop.Run();
      SimTime done = 0;
      for (auto* v : vs) {
        done = std::max(done, v->transport()->LastDeliveryTo(Connection::kClient));
      }
      worst_ms += static_cast<double>(done - t0) / kMillisecond / pages;
    }
    for (size_t i = 0; i < vs.size(); ++i) {
      total_bytes += vs[i]->transport()->BytesDeliveredTo(Connection::kClient) - base[i];
    }
    const int64_t charges = stats.encode_charges - charges0;
    const int64_t reuses =
        stats.payload_encode_hits + stats.frame_cache_hits - reuses0;
    std::printf("%7d %14.0f %17.1f %14.0f %16.1f %16.1f\n", viewers, worst_ms,
                static_cast<double>(host.host_cpu()->total_busy() - cpu0) /
                    kMillisecond / pages,
                static_cast<double>(total_bytes) / 1024.0 / pages,
                static_cast<double>(charges) / pages,
                static_cast<double>(reuses) / pages);
  }
  std::printf(
      "\nExpected: bandwidth scales linearly with viewers (each gets its own\n"
      "stream), but encode cost does NOT: the shared frame cache (plus its\n"
      "in-flight registry — a viewer arriving while another viewer's encode\n"
      "of the same frame is still running waits for it instead of starting\n"
      "a duplicate) amortizes the charged RAW encode CPU to ~1 encode per\n"
      "frame regardless of viewer count: enc_charges/page stays flat while\n"
      "enc_reuses/page grows with N, and so host CPU per page and worst\n"
      "viewer latency stay nearly flat too. What still rises with N is\n"
      "per-viewer translation and encryption work — the consolidation\n"
      "trade-off that ultimately bounds fan-out.\n");
}

// --- The paper's shape claims ------------------------------------------------------

// 100% as the tables print it: every frame shown, at full speed.
bool FullQuality(const AvRunResult& a) {
  return a.frames_displayed == a.frames_total && a.quality * 100 >= 99.95;
}

// The claims EXPERIMENTS.md marks [checked], on the computed cells. Not
// checked: the claims it lists as deviations (Korea's sub-second web
// latency, VNC's LAN->WAN quality halving).
void CheckPaperShape(const Results& r) {
  const Platform& lan = r.platforms[0];
  const Platform& wan = r.platforms[1];
  for (const Platform& p : r.platforms) {
    const double thinc_ms = p.Web(SystemKind::kThinc).AvgLatencyMs(true);
    for (size_t i = 0; i < p.systems.size(); ++i) {
      if (p.systems[i] != SystemKind::kThinc &&
          p.systems[i] != SystemKind::kLocalPc) {
        THINC_CHECK_MSG(thinc_ms < p.web[i].AvgLatencyMs(true),
                        "Fig. 2: THINC must be the fastest thin client");
      }
    }
  }
  THINC_CHECK_MSG(lan.Web(SystemKind::kThinc).AvgLatencyMs(true) <
                      lan.Web(SystemKind::kLocalPc).AvgLatencyMs(true),
                  "Fig. 2: THINC must beat the local PC on the LAN");
  THINC_CHECK_MSG(wan.Web(SystemKind::kX).AvgLatencyMs(true) >=
                      2 * lan.Web(SystemKind::kX).AvgLatencyMs(true),
                  "Fig. 2: X must slow at least 2x from LAN to WAN");
  THINC_CHECK_MSG(2 * lan.Web(SystemKind::kThinc).AvgPageKb() <=
                      lan.Web(SystemKind::kVnc).AvgPageKb(),
                  "Fig. 3: THINC must send at most half of VNC's LAN data");
  for (const Platform& p : r.platforms) {
    for (size_t i = 0; i < p.systems.size(); ++i) {
      const bool expect_full = p.systems[i] == SystemKind::kThinc ||
                               p.systems[i] == SystemKind::kLocalPc;
      THINC_CHECK_MSG(FullQuality(p.av[i]) == expect_full,
                      "Fig. 5: only THINC and the local PC may reach 100%");
    }
  }
  for (const Site& s : r.sites) {
    const bool korea = s.site.name == "KR";
    THINC_CHECK_MSG((s.iperf_mbps < 24.5) == korea,
                    "Table 2: Korea must be the only site under 24.5 Mbps");
    THINC_CHECK_MSG(!FullQuality(s.av) == korea,
                    "Fig. 7: Korea must be the only site below 100% A/V quality");
  }
}

}  // namespace

int main() {
  const Results r = RunAll();
  PrintTable2(r);
  PrintFig2(r);
  PrintFig3(r);
  PrintFig4(r);
  PrintFig5(r);
  PrintFig6(r);
  PrintFig7(r);
  PrintA1Offscreen(r);
  PrintA2Scheduler();
  PrintA3PushPull(r);
  PrintA4Resize(r);
  PrintA5Compression(r);
  PrintA6Sharing();
  std::fflush(stdout);
  if (r.pages == WebWorkload::kPageCount) {
    CheckPaperShape(r);
  } else {
    std::fprintf(stderr,
                 "bench_paper: paper shape checks skipped (%d of %d pages; "
                 "the claims hold on the full suite only)\n",
                 r.pages, WebWorkload::kPageCount);
  }
  return 0;
}
