#include "src/measure/experiment.h"

#include <algorithm>
#include <cstdlib>

#include "src/baselines/local_pc.h"
#include "src/baselines/rdp_system.h"
#include "src/baselines/scrape_system.h"
#include "src/baselines/sunray_system.h"
#include "src/baselines/thinc_system.h"
#include "src/baselines/x_system.h"
#include "src/core/audio.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

namespace thinc {

const char* SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kThinc:
      return "THINC";
    case SystemKind::kX:
      return "X";
    case SystemKind::kNx:
      return "NX";
    case SystemKind::kVnc:
      return "VNC";
    case SystemKind::kSunRay:
      return "SunRay";
    case SystemKind::kRdp:
      return "RDP";
    case SystemKind::kIca:
      return "ICA";
    case SystemKind::kGotomypc:
      return "GoToMyPC";
    case SystemKind::kLocalPc:
      return "localPC";
  }
  return "?";
}

ExperimentConfig LanDesktopConfig() {
  ExperimentConfig c;
  c.name = "LAN";
  c.link = LanDesktopLink();
  return c;
}

ExperimentConfig LocalLoopbackConfig() {
  ExperimentConfig c;
  c.name = "local";
  // The link only matters if the session later Reconnects onto a wire;
  // normal operation never touches it.
  c.link = LanDesktopLink();
  c.transport = TransportKind::kLoopback;
  return c;
}

ExperimentConfig WanDesktopConfig() {
  ExperimentConfig c;
  c.name = "WAN";
  c.link = WanDesktopLink();
  c.wan_profile = true;
  return c;
}

ExperimentConfig Pda80211gConfig() {
  ExperimentConfig c;
  c.name = "PDA";
  c.link = Pda80211gLink();
  c.viewport = Point{320, 240};
  return c;
}

ExperimentConfig RemoteSiteConfig(const RemoteSite& site) {
  ExperimentConfig c;
  c.name = site.name;
  c.link = site.link;
  c.wan_profile = site.link.rtt > 10 * kMillisecond;
  return c;
}

std::unique_ptr<RemoteDisplaySystem> MakeSystem(SystemKind kind, EventLoop* loop,
                                                const ExperimentConfig& config) {
  const LinkParams& link = config.link;
  const int32_t w = config.screen_width;
  const int32_t h = config.screen_height;
  switch (kind) {
    case SystemKind::kThinc:
      return std::make_unique<ThincSystem>(loop, link, w, h, config.thinc_options,
                                           /*server_cpu_cores=*/1,
                                           config.transport);
    case SystemKind::kX:
    case SystemKind::kNx:
      return std::make_unique<XSystem>(loop, link, w, h, kind, config.wan_profile);
    case SystemKind::kVnc:
    case SystemKind::kGotomypc:
      return std::make_unique<ScrapeSystem>(loop, link, w, h, kind,
                                            config.wan_profile);
    case SystemKind::kSunRay:
      return std::make_unique<SunRaySystem>(loop, link, w, h, config.wan_profile);
    case SystemKind::kRdp:
    case SystemKind::kIca:
      return std::make_unique<RdpSystem>(loop, link, w, h, kind, config.wan_profile);
    case SystemKind::kLocalPc:
      return std::make_unique<LocalPcSystem>(loop, link, w, h);
  }
  return nullptr;
}

namespace {

void ApplyViewport(RemoteDisplaySystem* sys, const ExperimentConfig& config,
                   EventLoop* loop) {
  if (!config.viewport.has_value()) {
    return;
  }
  sys->SetViewport(config.viewport->x, config.viewport->y);
  loop->Run();  // drain the initial refresh before measurement starts
}

}  // namespace

double WebRunResult::AvgLatencyMs(bool with_client) const {
  if (pages.empty()) {
    return 0;
  }
  double sum = 0;
  for (const PageResult& p : pages) {
    sum += with_client ? p.latency_with_client_ms : p.latency_ms;
  }
  return sum / static_cast<double>(pages.size());
}

double WebRunResult::AvgPageKb() const {
  if (pages.empty()) {
    return 0;
  }
  double sum = 0;
  for (const PageResult& p : pages) {
    sum += static_cast<double>(p.bytes);
  }
  return sum / static_cast<double>(pages.size()) / 1024.0;
}

namespace {

// Mean per-update stage times over the completed spans in spans[from..].
StageBreakdown SummarizeSpans(const std::vector<UpdateSpan>& spans, size_t from) {
  StageBreakdown sb;
  for (size_t s = from; s < spans.size(); ++s) {
    const UpdateSpan& span = spans[s];
    if (!span.completed()) {
      continue;  // evicted before sending, or still buffered
    }
    sb.queue_ms += static_cast<double>(span.picked.ts - span.queued.ts);
    sb.encode_ms += static_cast<double>(span.encode_us);
    sb.send_ms += static_cast<double>(span.commit_last.ts - span.commit_first.ts);
    sb.network_ms += static_cast<double>(span.delivered.ts - span.commit_last.ts);
    sb.decode_ms += static_cast<double>(span.damaged.ts - span.delivered.ts);
    sb.total_ms += static_cast<double>(span.damaged.ts - span.queued.ts);
    sb.wire_bytes += span.wire_bytes;
    if (span.encode_cache_hit) {
      ++sb.encode_cache_hits;
    }
    ++sb.updates;
  }
  if (sb.updates > 0) {
    const double n = static_cast<double>(sb.updates) * kMillisecond;
    sb.queue_ms /= n;
    sb.encode_ms /= n;
    sb.send_ms /= n;
    sb.network_ms /= n;
    sb.decode_ms /= n;
    sb.total_ms /= n;
  }
  return sb;
}

// Builds `kind` for `config` and drives the 54-page click-render-measure
// cycle against it. When `stages` is non-null, the spans created between
// each page's click and its quiescence are summarized into it per page.
WebRunResult RunWeb(SystemKind kind, const ExperimentConfig& config,
                    int32_t page_count, std::vector<StageBreakdown>* stages) {
  EventLoop loop;
  std::unique_ptr<RemoteDisplaySystem> sys = MakeSystem(kind, &loop, config);
  ApplyViewport(sys.get(), config, &loop);
  WebWorkload workload(config.screen_width, config.screen_height);

  int32_t current_page = 0;
  RemoteDisplaySystem* sys_ptr = sys.get();
  const WebWorkload* wl = &workload;
  sys->SetInputCallback([sys_ptr, wl, &current_page](Point) {
    // The browser fetches the page content, then lays out and renders.
    sys_ptr->FetchContent(wl->page(current_page).content_bytes);
    wl->RenderPage(sys_ptr->api(), current_page, sys_ptr->app_cpu());
  });

  WebRunResult result;
  result.system = SystemName(kind);
  result.config = config.name;
  page_count = std::min<int32_t>(page_count, workload.page_count());
  const std::vector<UpdateSpan>& spans = Telemetry::Get().spans();
  for (int32_t i = 0; i < page_count; ++i) {
    // Idle gap between pages so downloads are unambiguous in the trace.
    loop.RunUntil(loop.now() + 300 * kMillisecond);
    current_page = i;
    const size_t span_mark = spans.size();
    const SimTime t0 = loop.now();
    const int64_t b0 = sys->BytesToClient();
    sys->ClientClick(workload.LinkPosition(i));
    loop.Run();
    PageResult page;
    const SimTime net_done = std::max(t0, sys->LastDeliveryToClient());
    const SimTime all_done = std::max(net_done, sys->ClientLastProcessedAt());
    page.latency_ms = static_cast<double>(net_done - t0) / kMillisecond;
    page.latency_with_client_ms = static_cast<double>(all_done - t0) / kMillisecond;
    page.bytes = sys->BytesToClient() - b0;
    result.pages.push_back(page);
    if (stages != nullptr) {
      stages->push_back(SummarizeSpans(spans, span_mark));
    }
  }
  result.server_cpu_busy = sys->app_cpu()->total_busy();
  return result;
}

}  // namespace

WebRunResult RunWebBenchmark(SystemKind kind, const ExperimentConfig& config,
                             int32_t page_count) {
  return RunWeb(kind, config, page_count, /*stages=*/nullptr);
}

WebBreakdownResult RunThincWebBreakdown(const ExperimentConfig& config,
                                        int32_t page_count,
                                        const std::string& trace_json_path) {
  TelemetryScope telemetry(
      {.spans = true, .chrome_trace = !trace_json_path.empty()});
  WebBreakdownResult result;
  result.web = RunWeb(SystemKind::kThinc, config, page_count, &result.pages);
  if (!trace_json_path.empty()) {
    result.trace_written = Telemetry::Get().WriteChromeTrace(trace_json_path);
  }
  return result;
}

SimTime BenchClipDuration() {
  const char* full = std::getenv("THINC_AV_FULL");
  if (full != nullptr && full[0] == '1') {
    return static_cast<SimTime>(34.75 * kSecond);
  }
  // Quarter-length clip by default: quality is duration-normalized, so the
  // shape is unchanged while benches stay fast.
  return static_cast<SimTime>(8.6875 * kSecond);
}

AvRunResult RunAvBenchmark(SystemKind kind, const ExperimentConfig& config,
                           SimTime duration) {
  EventLoop loop;
  std::unique_ptr<RemoteDisplaySystem> sys = MakeSystem(kind, &loop, config);
  ApplyViewport(sys.get(), config, &loop);
  const Rect screen{0, 0, config.screen_width, config.screen_height};
  sys->SetVideoProbeRect(screen);

  VideoSourceOptions vo;
  vo.dst = screen;  // full-screen playback
  vo.duration = duration;
  VideoSource video(&loop, sys->api(), sys->app_cpu(), vo);

  // The local PC streams the encoded media (~1.2 Mbps) from the server.
  if (kind == SystemKind::kLocalPc) {
    const int64_t stream_bytes =
        static_cast<int64_t>(1.2e6 / 8.0 * (static_cast<double>(duration) / kSecond));
    sys->FetchContent(stream_bytes);
  }

  PcmFormat pcm;
  VirtualAudioDriver audio(&loop, pcm, 46 * kMillisecond,
                           [&sys](std::span<const uint8_t> data, SimTime ts) {
                             sys->SubmitAudio(data, ts);
                           });

  const SimTime t0 = loop.now();
  const int64_t b0 = sys->BytesToClient();
  video.Start();
  const bool audio_active = sys->SupportsAudio();
  if (audio_active) {
    audio.StartStream(duration);
  }
  loop.Run();

  AvRunResult result;
  result.system = SystemName(kind);
  result.config = config.name;
  result.frames_total = video.total_frames();
  const std::vector<SimTime>& frames = sys->VideoFrameTimes();
  result.frames_displayed =
      static_cast<int32_t>(std::min<size_t>(frames.size(),
                                            static_cast<size_t>(result.frames_total)));
  const double ideal_s = static_cast<double>(duration) / kSecond;
  result.duration_s =
      frames.empty() ? ideal_s
                     : static_cast<double>(frames.back() - t0) / kSecond;
  double completeness = result.frames_total > 0
                            ? static_cast<double>(result.frames_displayed) /
                                  result.frames_total
                            : 0;
  double slowdown = result.duration_s > ideal_s && result.duration_s > 0
                        ? ideal_s / result.duration_s
                        : 1.0;
  result.quality = completeness * slowdown;
  result.bytes = sys->BytesToClient() - b0;
  result.bandwidth_mbps = result.duration_s > 0
                              ? static_cast<double>(result.bytes) * 8.0 / 1e6 /
                                    result.duration_s
                              : 0;
  result.audio_supported = audio_active;
  if (audio_active) {
    const int64_t expected = pcm.BytesPerSecond() *
                             static_cast<int64_t>(duration) / kSecond;
    result.audio_fraction =
        expected > 0 ? std::min(1.0, static_cast<double>(sys->AudioBytesDelivered()) /
                                         static_cast<double>(expected))
                     : 0;
  }
  result.server_cpu_busy = sys->app_cpu()->total_busy();
  return result;
}

double MeasureIperfMbps(const LinkParams& link, SimTime duration) {
  EventLoop loop;
  Connection conn(&loop, link);
  std::vector<uint8_t> chunk(16 << 10, 0x42);
  auto fill = [&conn, &chunk] {
    while (conn.FreeSpace(Connection::kServer) >= chunk.size()) {
      conn.Send(Connection::kServer, chunk);
    }
  };
  conn.SetWritable(Connection::kServer, fill);
  fill();
  loop.RunUntil(duration);
  int64_t delivered = conn.BytesDeliveredTo(Connection::kClient);
  return static_cast<double>(delivered) * 8.0 / 1e6 /
         (static_cast<double>(duration) / kSecond);
}

}  // namespace thinc
