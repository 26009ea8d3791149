// Golden gate for the comparison platforms' wire models.
//
// Every non-THINC system of Section 8 runs on the LAN, WAN and PDA
// configurations, with the viewport applied the way the experiment harness
// applies it (GoToMyPC at its 640x480 minimum). Each cell folds into one
// FNV-1a digest the integer outputs the harness measures:
//   * a 3-page web drive: per page, the last delivery to the client, the
//     client's last-processed stamp and the bytes delivered so far, then the
//     client framebuffer's pixels;
//   * a 0.5 s A/V run: every displayed video frame time, the decoded audio
//     bytes, the bytes delivered and the application host's busy time.
// The paper golden prints only rounded aggregates and never reads a
// baseline's framebuffer; these digests pin the exact values, so a
// restructuring of the baselines must reproduce every one of them.
#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>

#include "src/baselines/system.h"
#include "src/core/audio.h"
#include "src/measure/experiment.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(int64_t v) {
    h_ ^= static_cast<uint64_t>(v);
    h_ *= 0x100000001B3ULL;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llXULL", static_cast<unsigned long long>(v));
  return buf;
}

constexpr int32_t kPages = 3;
constexpr SimTime kClip = 500 * kMillisecond;

std::unique_ptr<RemoteDisplaySystem> Build(SystemKind kind, EventLoop* loop,
                                           const ExperimentConfig& config) {
  std::unique_ptr<RemoteDisplaySystem> sys = MakeSystem(kind, loop, config);
  if (config.viewport.has_value()) {
    const Point vp = kind == SystemKind::kGotomypc ? Point{640, 480} : *config.viewport;
    sys->SetViewport(vp.x, vp.y);
    loop->Run();
  }
  return sys;
}

void AddWeb(SystemKind kind, const ExperimentConfig& config, Digest* d) {
  EventLoop loop;
  std::unique_ptr<RemoteDisplaySystem> sys = Build(kind, &loop, config);
  const WebWorkload workload(config.screen_width, config.screen_height);
  int32_t page = 0;
  RemoteDisplaySystem* s = sys.get();
  sys->SetInputCallback([s, &workload, &page](Point) {
    s->FetchContent(workload.page(page).content_bytes);
    workload.RenderPage(s->api(), page, s->app_cpu());
  });
  for (page = 0; page < kPages; ++page) {
    loop.RunUntil(loop.now() + 300 * kMillisecond);
    sys->ClientClick(workload.LinkPosition(page));
    loop.Run();
    d->Add(sys->LastDeliveryToClient());
    d->Add(sys->ClientLastProcessedAt());
    d->Add(sys->BytesToClient());
    const Surface* fb = sys->ClientFramebuffer();
    d->Add(fb->width());
    d->Add(fb->height());
    for (Pixel p : fb->pixels()) {
      d->Add(p);
    }
  }
}

void AddAv(SystemKind kind, const ExperimentConfig& config, Digest* d) {
  EventLoop loop;
  std::unique_ptr<RemoteDisplaySystem> sys = Build(kind, &loop, config);
  const Rect screen{0, 0, config.screen_width, config.screen_height};
  sys->SetVideoProbeRect(screen);
  VideoSourceOptions vo;
  vo.dst = screen;
  vo.duration = kClip;
  VideoSource video(&loop, sys->api(), sys->app_cpu(), vo);
  VirtualAudioDriver audio(&loop, PcmFormat{}, 46 * kMillisecond,
                           [&sys](std::span<const uint8_t> data, SimTime ts) {
                             sys->SubmitAudio(data, ts);
                           });
  video.Start();
  if (sys->SupportsAudio()) {
    audio.StartStream(kClip);
  }
  loop.Run();
  d->Add(static_cast<int64_t>(sys->VideoFrameTimes().size()));
  for (SimTime t : sys->VideoFrameTimes()) {
    d->Add(t);
  }
  d->Add(sys->AudioBytesDelivered());
  d->Add(sys->BytesToClient());
  d->Add(sys->app_cpu()->total_busy());
}

struct Cell {
  SystemKind kind;
  uint64_t digest;
};

void ExpectCells(const ExperimentConfig& config, std::initializer_list<Cell> cells) {
  for (const Cell& cell : cells) {
    Digest d;
    AddWeb(cell.kind, config, &d);
    AddAv(cell.kind, config, &d);
    EXPECT_EQ(Hex(d.value()), Hex(cell.digest))
        << SystemName(cell.kind) << " on " << config.name;
  }
}

TEST(BaselineGolden, Lan) {
  ExpectCells(LanDesktopConfig(), {{SystemKind::kX, 0x168FBBDFFA802C3AULL},
                                   {SystemKind::kNx, 0xBD73507B7A4C0563ULL},
                                   {SystemKind::kVnc, 0x74F0874C88D0BC37ULL},
                                   {SystemKind::kSunRay, 0x2D0D0AEEDD8E4FF8ULL},
                                   {SystemKind::kRdp, 0x805532CCAB481269ULL},
                                   {SystemKind::kIca, 0xF99C20A452E88756ULL},
                                   {SystemKind::kGotomypc, 0xE755397DFCAA2213ULL},
                                   {SystemKind::kLocalPc, 0x81E0ED3911615D77ULL}});
}

TEST(BaselineGolden, Wan) {
  ExpectCells(WanDesktopConfig(), {{SystemKind::kX, 0x77AF3F106E4DB515ULL},
                                   {SystemKind::kNx, 0x71F44A8807B7B000ULL},
                                   {SystemKind::kVnc, 0x52A13A336F9C9B18ULL},
                                   {SystemKind::kSunRay, 0x4E4DB515CFD016ECULL},
                                   {SystemKind::kRdp, 0x3894A50771EC16B4ULL},
                                   {SystemKind::kIca, 0x3245F1EFEC518CB2ULL},
                                   {SystemKind::kGotomypc, 0xC6E83E4703A1C8CBULL},
                                   {SystemKind::kLocalPc, 0x1B464349E9D472E3ULL}});
}

TEST(BaselineGolden, Pda) {
  ExpectCells(Pda80211gConfig(), {{SystemKind::kX, 0xB169B01E2590794BULL},
                                  {SystemKind::kNx, 0xCA339719557394BAULL},
                                  {SystemKind::kVnc, 0x1F08DD32B97DF807ULL},
                                  {SystemKind::kSunRay, 0x5FE590C72200CE26ULL},
                                  {SystemKind::kRdp, 0xB52D909BC9A7C36CULL},
                                  {SystemKind::kIca, 0x0598724671279E76ULL},
                                  {SystemKind::kGotomypc, 0xBAAB7B24AB30F8C1ULL},
                                  {SystemKind::kLocalPc, 0x0650550CAEE244A4ULL}});
}

}  // namespace
}  // namespace thinc
