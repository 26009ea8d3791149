#include "harness.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <memory>

#include "src/baselines/thinc_system.h"
#include "src/core/audio.h"
#include "src/display/drawing_api.h"
#include "src/fleet/fleet.h"
#include "src/measure/experiment.h"
#include "src/util/prng.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

namespace perfbench {

using thinc::DrawableId;
using thinc::EventLoop;
using thinc::ExperimentConfig;
using thinc::kMillisecond;
using thinc::kSecond;
using thinc::Pixel;
using thinc::Point;
using thinc::Rect;
using thinc::RemoteDisplaySystem;
using thinc::SimTime;
using thinc::SystemKind;
using thinc::Transport;

// --- Statistics ------------------------------------------------------------------

RankedValue NearestRank(std::vector<double> values, double pct) {
  RankedValue r;
  r.samples = values.size();
  if (values.empty()) {
    return r;
  }
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least pct% of samples at or
  // below it.
  size_t rank = static_cast<size_t>(pct / 100.0 * static_cast<double>(values.size()) +
                                    0.999999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  r.value = values[rank - 1];
  r.beyond = values.size() - rank;
  return r;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- Digest ------------------------------------------------------------------------

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(std::string_view s) {
  Add(static_cast<uint64_t>(s.size()));
  for (char c : s) {
    h_ ^= static_cast<uint8_t>(c);
    h_ *= 1099511628211ull;
  }
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// --- Tracer ------------------------------------------------------------------------

void Tracer::Begin(Layer layer) { stack_.push_back(Frame{layer, Clock::now(), 0}); }

int64_t Tracer::End() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t dur = NsSince(f.start);
  self_ns_[static_cast<int>(f.layer)] += dur - f.child_ns;
  ++spans_[static_cast<int>(f.layer)];
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  return dur;
}

void Tracer::AddDisplayOp(DisplayOp op, int64_t ns) {
  op_ns_[static_cast<int>(op)] += ns;
}

// --- Spans and the DrawingApi proxy ----------------------------------------------

namespace {

// RAII span; a null tracer makes it a no-op, so untraced runs pay nothing
// but a branch.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// A forwarding DrawingApi that times every call as a display span. It must
// be transparent: a run through it produces the same digest as one without.
class TimingApi final : public thinc::DrawingApi {
 public:
  TimingApi(thinc::DrawingApi* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  int32_t screen_width() const override { return inner_->screen_width(); }
  int32_t screen_height() const override { return inner_->screen_height(); }
  thinc::DrawableId CreatePixmap(int32_t width, int32_t height) override;
  void FreePixmap(thinc::DrawableId id) override;
  void FillRect(thinc::DrawableId dst, const thinc::Rect& rect,
                thinc::Pixel color) override;
  void FillTiled(thinc::DrawableId dst, const thinc::Rect& rect,
                 const thinc::Surface& tile, thinc::Point origin) override;
  void FillStippled(thinc::DrawableId dst, const thinc::Rect& rect,
                    const thinc::Bitmap& stipple, thinc::Point origin,
                    thinc::Pixel fg, thinc::Pixel bg, bool transparent_bg) override;
  void DrawText(thinc::DrawableId dst, thinc::Point origin, std::string_view text,
                thinc::Pixel fg) override;
  void PutImage(thinc::DrawableId dst, const thinc::Rect& rect,
                std::span<const thinc::Pixel> pixels) override;
  void CopyArea(thinc::DrawableId src, thinc::DrawableId dst,
                const thinc::Rect& src_rect, thinc::Point dst_origin) override;
  void CompositeOver(thinc::DrawableId dst, const thinc::Rect& rect,
                     std::span<const thinc::Pixel> argb) override;
  void ScrollUp(thinc::DrawableId dst, const thinc::Rect& rect, int32_t dy,
                thinc::Pixel fill) override;
  int32_t VideoStreamCreate(int32_t src_width, int32_t src_height,
                            const thinc::Rect& dst) override;
  void VideoFrame(int32_t stream_id, const thinc::Yv12Frame& frame) override;
  void VideoStreamDestroy(int32_t stream_id) override;

 private:
  thinc::DrawingApi* inner_;
  Tracer* tracer_;
};


// Times one forwarded drawing call as a display span in bucket `op`.
template <typename Fn>
auto Timed(Tracer* tracer, DisplayOp op, Fn&& fn) {
  struct Close {
    Tracer* t;
    DisplayOp op;
    ~Close() { t->AddDisplayOp(op, t->End()); }
  };
  tracer->Begin(Layer::kDisplay);
  Close close{tracer, op};
  return fn();
}

DrawableId TimingApi::CreatePixmap(int32_t width, int32_t height) {
  return Timed(tracer_, DisplayOp::kOther,
               [&] { return inner_->CreatePixmap(width, height); });
}

void TimingApi::FreePixmap(DrawableId id) {
  Timed(tracer_, DisplayOp::kOther, [&] { inner_->FreePixmap(id); });
}

void TimingApi::FillRect(DrawableId dst, const Rect& rect, Pixel color) {
  Timed(tracer_, DisplayOp::kFill, [&] { inner_->FillRect(dst, rect, color); });
}

void TimingApi::FillTiled(DrawableId dst, const Rect& rect, const thinc::Surface& tile,
                          Point origin) {
  Timed(tracer_, DisplayOp::kFill,
        [&] { inner_->FillTiled(dst, rect, tile, origin); });
}

void TimingApi::FillStippled(DrawableId dst, const Rect& rect,
                             const thinc::Bitmap& stipple, Point origin, Pixel fg,
                             Pixel bg, bool transparent_bg) {
  Timed(tracer_, DisplayOp::kFill, [&] {
    inner_->FillStippled(dst, rect, stipple, origin, fg, bg, transparent_bg);
  });
}

void TimingApi::DrawText(DrawableId dst, Point origin, std::string_view text,
                         Pixel fg) {
  Timed(tracer_, DisplayOp::kText,
        [&] { inner_->DrawText(dst, origin, text, fg); });
}

void TimingApi::PutImage(DrawableId dst, const Rect& rect,
                         std::span<const Pixel> pixels) {
  Timed(tracer_, DisplayOp::kPutImage,
        [&] { inner_->PutImage(dst, rect, pixels); });
}

void TimingApi::CopyArea(DrawableId src, DrawableId dst, const Rect& src_rect,
                         Point dst_origin) {
  Timed(tracer_, DisplayOp::kCopy,
        [&] { inner_->CopyArea(src, dst, src_rect, dst_origin); });
}

void TimingApi::CompositeOver(DrawableId dst, const Rect& rect,
                              std::span<const Pixel> argb) {
  Timed(tracer_, DisplayOp::kComposite,
        [&] { inner_->CompositeOver(dst, rect, argb); });
}

void TimingApi::ScrollUp(DrawableId dst, const Rect& rect, int32_t dy, Pixel fill) {
  Timed(tracer_, DisplayOp::kCopy, [&] { inner_->ScrollUp(dst, rect, dy, fill); });
}

int32_t TimingApi::VideoStreamCreate(int32_t src_width, int32_t src_height,
                                     const Rect& dst) {
  return Timed(tracer_, DisplayOp::kOther, [&] {
    return inner_->VideoStreamCreate(src_width, src_height, dst);
  });
}

void TimingApi::VideoFrame(int32_t stream_id, const thinc::Yv12Frame& frame) {
  Timed(tracer_, DisplayOp::kVideoFrame,
        [&] { inner_->VideoFrame(stream_id, frame); });
}

void TimingApi::VideoStreamDestroy(int32_t stream_id) {
  Timed(tracer_, DisplayOp::kOther, [&] { inner_->VideoStreamDestroy(stream_id); });
}

}  // namespace

// --- Workloads ---------------------------------------------------------------------

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "web_paper") {
    return Workload::kWebPaper;
  }
  if (name == "av_paper") {
    return Workload::kAvPaper;
  }
  if (name == "fleet_web") {
    return Workload::kFleetWeb;
  }
  return std::nullopt;
}

std::vector<int32_t> FleetPageOffsets(uint64_t seed, int sessions) {
  // Every page starts the same number of sessions (within one) at any seed,
  // so seeds reshuffle who browses what without changing the total work.
  std::vector<int32_t> offsets;
  for (int i = 0; i < sessions; ++i) {
    offsets.push_back(i % thinc::WebWorkload::kPageCount);
  }
  thinc::Prng prng(seed);
  for (size_t i = offsets.size(); i > 1; --i) {
    std::swap(offsets[i - 1], offsets[prng.NextBelow(i)]);
  }
  return offsets;
}

int32_t AvClipStart(uint64_t seed, int32_t frames) {
  return static_cast<int32_t>(seed % static_cast<uint64_t>(
                                         std::max(1, kPaperClipFrames - frames + 1)));
}

namespace {

constexpr SimTime kSlice = 100 * kMillisecond;
constexpr uint64_t kFleetPageSeed = 11;

struct Cell {
  SystemKind kind;
  ExperimentConfig config;
};

// The paper's (system x network) matrix, Section 8.1: LAN with the desktop
// systems and the local PC, WAN adding GoToMyPC, PDA with the systems that
// support a client geometry different from the server's.
std::vector<Cell> PaperCells(size_t max_cells) {
  using K = SystemKind;
  const std::vector<K> lan = {K::kIca, K::kRdp, K::kX, K::kNx,
                              K::kSunRay, K::kVnc, K::kThinc, K::kLocalPc};
  const std::vector<K> wan = {K::kIca, K::kRdp, K::kGotomypc, K::kX, K::kNx,
                              K::kSunRay, K::kVnc, K::kThinc, K::kLocalPc};
  const std::vector<K> pda = {K::kIca, K::kRdp, K::kGotomypc, K::kVnc, K::kThinc};
  std::vector<Cell> cells;
  for (K k : lan) {
    cells.push_back({k, thinc::LanDesktopConfig()});
  }
  for (K k : wan) {
    cells.push_back({k, thinc::WanDesktopConfig()});
  }
  for (K k : pda) {
    cells.push_back({k, thinc::Pda80211gConfig()});
  }
  if (cells.size() > max_cells) {
    cells.resize(max_cells);
  }
  return cells;
}

// The PDA viewport negotiation of the paper harness (GoToMyPC cannot go
// below 640x480), drained before measurement starts.
void ApplyViewport(SystemKind kind, RemoteDisplaySystem* sys,
                   const ExperimentConfig& config, EventLoop* loop) {
  if (!config.viewport.has_value()) {
    return;
  }
  Point vp = *config.viewport;
  if (kind == SystemKind::kGotomypc) {
    vp = Point{640, 480};
  }
  sys->SetViewport(vp.x, vp.y);
  loop->Run();
}

// One assembled paper cell.
struct Assembled {
  std::unique_ptr<EventLoop> loop = std::make_unique<EventLoop>();
  std::unique_ptr<RemoteDisplaySystem> sys;
  std::unique_ptr<TimingApi> proxy;
  thinc::DrawingApi* api = nullptr;
};

Assembled Assemble(const Cell& cell, Tracer* tracer) {
  Assembled a;
  {
    Span span(tracer, Layer::kSetupSystem);
    a.sys = thinc::MakeSystem(cell.kind, a.loop.get(), cell.config);
  }
  {
    Span span(tracer, Layer::kSetupViewport);
    ApplyViewport(cell.kind, a.sys.get(), cell.config, a.loop.get());
  }
  a.api = a.sys->api();
  if (tracer != nullptr) {
    a.proxy = std::make_unique<TimingApi>(a.api, tracer);
    a.api = a.proxy.get();
  }
  return a;
}

void Fail(PassResult* r, bool* cell_ok, std::string message) {
  if (*cell_ok) {
    ++r->failed;
  }
  *cell_ok = false;
  if (r->failures.size() < 20) {
    r->failures.push_back(std::move(message));
  }
}

std::string CellName(const Cell& cell) {
  return std::string(thinc::SystemName(cell.kind)) + "/" + cell.config.name;
}

// --- web_paper ---------------------------------------------------------------------

PassResult RunWebPaper(const PassOptions& o) {
  PassResult r;
  Digest digest;
  Tracer* tracer = o.tracer;
  double thinc_latency_sum = 0;
  int thinc_cells = 0;
  double drain_sum = 0;
  int64_t bytes_total = 0;
  for (const Cell& cell : PaperCells(o.size.max_cells)) {
    const auto s0 = Clock::now();
    Assembled a = Assemble(cell, tracer);
    RemoteDisplaySystem* sys = a.sys.get();
    EventLoop& loop = *a.loop;
    const ExperimentConfig& config = cell.config;
    thinc::WebWorkload workload(config.screen_width, config.screen_height, o.seed);
    int32_t current_page = 0;
    thinc::DrawingApi* api = a.api;
    sys->SetInputCallback([sys, api, tracer, &workload, &current_page](Point) {
      // The browser fetches the page content, then lays out and renders.
      sys->FetchContent(workload.page(current_page).content_bytes);
      Span span(tracer, Layer::kWorkload);
      workload.RenderPage(api, current_page, sys->app_cpu());
    });
    r.setup_s += static_cast<double>(NsSince(s0)) / 1e9;
    if (o.setup_only) {
      continue;
    }

    ++r.attempted;
    bool ok = true;
    auto* thinc_sys = dynamic_cast<thinc::ThincSystem*>(sys);
    // THINC without a viewport must end every page pixel-exact.
    const bool check_pixels = thinc_sys != nullptr && !config.viewport.has_value();
    const bool capture = o.corpus != nullptr && thinc_sys != nullptr &&
                         config.name == "LAN";
    digest.Add(CellName(cell));
    const auto w0 = Clock::now();
    const int32_t pages = std::min(o.size.web_pages, workload.page_count());
    const SimTime first_click = loop.now() + 300 * kMillisecond;
    double latency_sum = 0;
    for (int32_t i = 0; i < pages; ++i) {
      {
        // Idle gap between pages so downloads are unambiguous in the trace.
        Span span(tracer, Layer::kSim);
        loop.RunUntil(loop.now() + 300 * kMillisecond);
      }
      current_page = i;
      const auto u0 = Clock::now();
      const SimTime t0 = loop.now();
      const int64_t b0 = sys->BytesToClient();
      {
        Span span(tracer, Layer::kSim);
        sys->ClientClick(workload.LinkPosition(i));
        loop.Run();
      }
      r.unit_ms.push_back(static_cast<double>(NsSince(u0)) / 1e6);
      const SimTime net_done = std::max(t0, sys->LastDeliveryToClient());
      const SimTime all_done = std::max(net_done, sys->ClientLastProcessedAt());
      const int64_t bytes = sys->BytesToClient() - b0;
      digest.Add(static_cast<uint64_t>(net_done - t0));
      digest.Add(static_cast<uint64_t>(all_done - t0));
      digest.Add(static_cast<uint64_t>(bytes));
      latency_sum += static_cast<double>(net_done - t0) / kMillisecond;
      bytes_total += bytes;
      if (check_pixels) {
        int64_t diff = 0;
        if (!thinc_sys->client()->framebuffer().Equals(
                thinc_sys->window_server()->screen(), &diff)) {
          Fail(&r, &ok,
               CellName(cell) + " page " + std::to_string(i) + ": " +
                   std::to_string(diff) + " client pixels differ from the server");
        }
      }
      if (capture && i % 6 == 0) {
        o.corpus->screens.push_back(thinc_sys->window_server()->screen());
      }
    }
    r.wall_s += static_cast<double>(NsSince(w0)) / 1e9;
    if (thinc_sys != nullptr) {
      digest.Add(thinc_sys->connection()->DeliveredHashTo(Transport::kClient));
      thinc_latency_sum += latency_sum / pages;
      ++thinc_cells;
    }
    drain_sum +=
        static_cast<double>(std::max(first_click, sys->LastDeliveryToClient()) -
                            first_click) /
        kSecond;
    r.events_fired += loop.fired_count();
    r.events_cancelled += loop.cancelled_count();
  }
  r.digest = digest.value();
  r.sim_wire_mb = static_cast<double>(bytes_total) / 1e6;
  r.sim_page_latency_ms = thinc_cells > 0 ? thinc_latency_sum / thinc_cells : 0;
  r.sim_av_quality = 1.0;  // no video in this suite
  r.sim_drain_s = r.attempted > 0 ? drain_sum / r.attempted : 0;
  return r;
}

// --- av_paper ----------------------------------------------------------------------

// The paper harness's player (VideoSource's pacing, decode charge and frame
// content) started at frame `first` of the clip instead of frame 0: the seed
// picks which segment of the clip plays. From frame 0 it drives the display
// system exactly as VideoSource does.
class Player {
 public:
  Player(EventLoop* loop, thinc::DrawingApi* api, thinc::CpuAccount* cpu,
         const thinc::VideoSourceOptions& options, int32_t first, Tracer* tracer)
      : loop_(loop), api_(api), cpu_(cpu), options_(options), next_(first),
        end_(first + static_cast<int32_t>(options.duration /
                                          static_cast<SimTime>(kSecond / options.fps))),
        tracer_(tracer) {}

  void Start() {
    stream_ = api_->VideoStreamCreate(options_.width, options_.height, options_.dst);
    Emit();
  }

 private:
  void Emit() {
    Span span(tracer_, Layer::kWorkload);
    if (next_ >= end_) {
      api_->VideoStreamDestroy(stream_);
      return;
    }
    cpu_->Charge(options_.decode_cost_us);
    api_->VideoFrame(stream_, thinc::VideoSource::FrameContent(next_, options_.width,
                                                                options_.height));
    ++next_;
    loop_->Schedule(static_cast<SimTime>(kSecond / options_.fps), [this] { Emit(); });
  }

  EventLoop* loop_;
  thinc::DrawingApi* api_;
  thinc::CpuAccount* cpu_;
  thinc::VideoSourceOptions options_;
  int32_t next_;
  int32_t end_;
  Tracer* tracer_;
  int32_t stream_ = -1;
};

PassResult RunAvPaper(const PassOptions& o) {
  PassResult r;
  Digest digest;
  Tracer* tracer = o.tracer;
  const int32_t first_frame = AvClipStart(o.seed, o.size.av_frames);
  double quality_sum = 0;
  double drain_sum = 0;
  double first_frame_sum = 0;
  int first_frame_cells = 0;
  int64_t bytes_total = 0;
  for (const Cell& cell : PaperCells(o.size.max_cells)) {
    const auto s0 = Clock::now();
    Assembled a = Assemble(cell, tracer);
    RemoteDisplaySystem* sys = a.sys.get();
    EventLoop& loop = *a.loop;
    const ExperimentConfig& config = cell.config;
    const Rect screen{0, 0, config.screen_width, config.screen_height};
    sys->SetVideoProbeRect(screen);
    thinc::VideoSourceOptions vo;
    vo.dst = screen;  // full-screen playback
    const SimTime interval = static_cast<SimTime>(kSecond / vo.fps);
    vo.duration = interval * o.size.av_frames;
    const int32_t total = o.size.av_frames;
    Player video(&loop, a.api, sys->app_cpu(), vo, first_frame, tracer);
    // The local PC streams the encoded media (~1.2 Mbps) from the server.
    if (cell.kind == SystemKind::kLocalPc) {
      sys->FetchContent(static_cast<int64_t>(
          1.2e6 / 8.0 * (static_cast<double>(vo.duration) / kSecond)));
    }
    thinc::PcmFormat pcm;
    thinc::VirtualAudioDriver audio(
        &loop, pcm, 46 * kMillisecond,
        [sys](std::span<const uint8_t> data, SimTime ts) { sys->SubmitAudio(data, ts); });
    r.setup_s += static_cast<double>(NsSince(s0)) / 1e9;
    if (o.setup_only) {
      continue;
    }

    ++r.attempted;
    bool ok = true;
    digest.Add(CellName(cell));
    const auto w0 = Clock::now();
    auto u0 = w0;
    const SimTime t0 = loop.now();
    const int64_t b0 = sys->BytesToClient();
    const bool audio_active = sys->SupportsAudio();
    {
      Span span(tracer, Layer::kWorkload);
      video.Start();
      if (audio_active) {
        audio.StartStream(vo.duration);
      }
    }
    if (o.sliced) {
      SimTime deadline = t0;
      while (loop.has_pending()) {
        deadline += kSlice;
        {
          Span span(tracer, Layer::kSim);
          loop.RunUntil(deadline);
        }
        r.unit_ms.push_back(static_cast<double>(NsSince(u0)) / 1e6);
        u0 = Clock::now();
      }
    } else {
      Span span(tracer, Layer::kSim);
      loop.Run();
    }
    r.wall_s += static_cast<double>(NsSince(w0)) / 1e9;

    // Slow-motion A/V quality, as the paper harness computes it.
    const std::vector<SimTime>& frames = sys->VideoFrameTimes();
    if (total <= 0 || frames.size() > static_cast<size_t>(total)) {
      Fail(&r, &ok,
           CellName(cell) + ": " + std::to_string(frames.size()) +
               " frames displayed of " + std::to_string(total));
    }
    const int32_t displayed =
        static_cast<int32_t>(std::min<size_t>(frames.size(), static_cast<size_t>(total)));
    const double ideal_s = static_cast<double>(vo.duration) / kSecond;
    const double duration_s =
        frames.empty() ? ideal_s : static_cast<double>(frames.back() - t0) / kSecond;
    const double completeness =
        total > 0 ? static_cast<double>(displayed) / total : 0;
    const double slowdown =
        duration_s > ideal_s && duration_s > 0 ? ideal_s / duration_s : 1.0;
    const double quality = completeness * slowdown;
    const int64_t bytes = sys->BytesToClient() - b0;
    quality_sum += quality;
    bytes_total += bytes;
    drain_sum += static_cast<double>(std::max(t0, sys->LastDeliveryToClient()) - t0) /
                 kSecond;
    digest.Add(static_cast<uint64_t>(total));
    digest.Add(static_cast<uint64_t>(frames.size()));
    for (SimTime f : frames) {
      digest.Add(static_cast<uint64_t>(f - t0));
    }
    digest.Add(static_cast<uint64_t>(bytes));
    digest.Add(static_cast<uint64_t>(sys->AudioBytesDelivered()));
    digest.Add(static_cast<uint64_t>(sys->LastDeliveryToClient() - t0));
    if (auto* thinc_sys = dynamic_cast<thinc::ThincSystem*>(sys)) {
      digest.Add(thinc_sys->connection()->DeliveredHashTo(Transport::kClient));
    }
    if (!frames.empty()) {
      first_frame_sum += static_cast<double>(frames.front() - t0) / kMillisecond;
      ++first_frame_cells;
    }
    r.events_fired += loop.fired_count();
    r.events_cancelled += loop.cancelled_count();
  }
  if (o.corpus != nullptr) {
    for (int32_t i = 0; i < o.size.av_frames; i += 4) {
      o.corpus->frames.push_back(
          thinc::VideoSource::FrameContent(first_frame + i, 352, 240));
    }
  }
  r.digest = digest.value();
  r.sim_wire_mb = static_cast<double>(bytes_total) / 1e6;
  // The A/V analogue of page latency: from pressing play to the first frame
  // on the client's screen.
  r.sim_page_latency_ms = first_frame_cells > 0 ? first_frame_sum / first_frame_cells : 0;
  r.sim_av_quality = r.attempted > 0 ? quality_sum / r.attempted : 0;
  r.sim_drain_s = r.attempted > 0 ? drain_sum / r.attempted : 0;
  return r;
}

// --- fleet_web ---------------------------------------------------------------------

PassResult RunFleetWeb(const PassOptions& o) {
  PassResult r;
  Tracer* tracer = o.tracer;
  const int n = o.size.fleet_sessions;
  const int pages = o.size.fleet_pages;
  const SimTime think = 1500 * kMillisecond;

  const auto s0 = Clock::now();
  EventLoop loop;
  thinc::FleetOptions fo;
  fo.screen_width = 512;
  fo.screen_height = 384;
  fo.link = thinc::LinkParams{1'000'000, 20 * kMillisecond, 256 << 10, "web"};
  fo.cpu_speed = 16.0;
  fo.send_buffer_bytes = 32 << 10;
  fo.seed = o.seed;
  fo.server_options.adapt.enabled = true;
  std::unique_ptr<thinc::FleetHost> fleet;
  {
    Span span(tracer, Layer::kSetupSystem);
    fleet = std::make_unique<thinc::FleetHost>(&loop, fo);
  }
  // The page set is fixed (the fleet bench's seed); the workload seed picks
  // the session seeds and which session starts on which page.
  thinc::WebWorkload web(fo.screen_width, fo.screen_height, kFleetPageSeed);
  const std::vector<int32_t> offsets = FleetPageOffsets(o.seed, n);
  for (int i = 0; i < n; ++i) {
    Span span(tracer, Layer::kSetupSystem);
    fleet->AddSession({});
  }
  // Ids are dense in admission order, so sessions [0, admitted) exist.
  const int admitted = static_cast<int>(fleet->session_count());
  std::vector<std::unique_ptr<TimingApi>> proxies;
  // Pages clicked but not yet rendered, per session (clicks cross the
  // network before the application sees them).
  std::vector<std::deque<int32_t>> pending(static_cast<size_t>(n));
  std::vector<SimTime> last_click(static_cast<size_t>(n), 0);
  for (int i = 0; i < admitted; ++i) {
    const size_t id = static_cast<size_t>(i);
    thinc::DrawingApi* api = fleet->window_server(id);
    if (tracer != nullptr) {
      proxies.push_back(std::make_unique<TimingApi>(api, tracer));
      api = proxies.back().get();
    }
    thinc::FleetHost* host = fleet.get();
    fleet->SetInputCallback(id, [host, api, tracer, &web, &pending, id](Point) {
      const int32_t page = pending[id].front();
      pending[id].pop_front();
      Span span(tracer, Layer::kWorkload);
      web.RenderPage(api, page, host->host_cpu());
    });
    // Open loop: one click every `think`, staggered across the sessions.
    for (int p = 0; p < pages; ++p) {
      const SimTime t = i * (think / n) + p * think;
      const int32_t page = (offsets[id] + p) % web.page_count();
      loop.ScheduleAt(t, [host, &web, &pending, &last_click, id, page, t] {
        pending[id].push_back(page);
        last_click[id] = t;
        host->ClientClick(id, web.LinkPosition(page));
      });
    }
  }
  const SimTime last = (n - 1) * (think / n) + (pages - 1) * think;
  fleet->StartController(last + 5 * kSecond);
  r.setup_s = static_cast<double>(NsSince(s0)) / 1e9;
  if (o.setup_only) {
    return r;
  }

  r.attempted = n;
  const auto w0 = Clock::now();
  if (o.sliced) {
    SimTime deadline = loop.now();
    auto u0 = w0;
    while (loop.has_pending()) {
      deadline += kSlice;
      {
        Span span(tracer, Layer::kSim);
        loop.RunUntil(deadline);
      }
      r.unit_ms.push_back(static_cast<double>(NsSince(u0)) / 1e6);
      u0 = Clock::now();
    }
  } else {
    Span span(tracer, Layer::kSim);
    loop.Run();
  }
  r.wall_s = static_cast<double>(NsSince(w0)) / 1e9;

  Digest digest;
  int64_t bytes_total = 0;
  SimTime drained_at = 0;
  double settle_sum = 0;
  for (int i = 0; i < n; ++i) {
    const size_t id = static_cast<size_t>(i);
    bool ok = true;
    if (i >= admitted) {
      Fail(&r, &ok, "session " + std::to_string(i) + " was not admitted");
      continue;
    }
    Transport* t = fleet->transport(id);
    const int64_t bytes = t->BytesDeliveredTo(Transport::kClient);
    const SimTime done = t->LastDeliveryTo(Transport::kClient);
    if (!t->Idle() || fleet->server(id)->buffered_commands() != 0 ||
        !pending[id].empty() || bytes == 0) {
      Fail(&r, &ok, "session " + std::to_string(i) + " did not drain");
    }
    digest.Add(fleet->session_seed(id));
    digest.Add(t->DeliveredHashTo(Transport::kClient));
    digest.Add(static_cast<uint64_t>(bytes));
    digest.Add(static_cast<uint64_t>(done));
    bytes_total += bytes;
    drained_at = std::max(drained_at, done);
    settle_sum += static_cast<double>(std::max<SimTime>(0, done - last_click[id])) /
                  kMillisecond;
    if (o.corpus != nullptr && i % 16 == 0) {
      o.corpus->screens.push_back(fleet->window_server(id)->screen());
    }
  }
  digest.Add(loop.fired_count());
  r.digest = digest.value();
  r.events_fired = loop.fired_count();
  r.events_cancelled = loop.cancelled_count();
  r.sim_wire_mb = static_cast<double>(bytes_total) / 1e6;
  // Open loop: a session's response to its last click is complete when the
  // session's last byte arrives.
  r.sim_page_latency_ms = n > 0 ? settle_sum / n : 0;
  r.sim_av_quality = 1.0;  // no video in this workload
  r.sim_drain_s = static_cast<double>(drained_at) / kSecond;  // first click at t=0
  return r;
}

}  // namespace

PassResult RunPass(Workload workload, const PassOptions& options) {
  switch (workload) {
    case Workload::kWebPaper:
      return RunWebPaper(options);
    case Workload::kAvPaper:
      return RunAvPaper(options);
    case Workload::kFleetWeb:
      return RunFleetWeb(options);
  }
  return {};
}

}  // namespace perfbench
