#include "src/core/session_share.h"

#include <gtest/gtest.h>

#include "src/net/loopback.h"
#include "src/util/prng.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

void DrawDesktop(WindowServer* ws, uint64_t seed) {
  Prng rng(seed);
  ws->FillRect(kScreenDrawable, ws->screen().bounds(), MakePixel(220, 225, 235));
  ws->DrawText(kScreenDrawable, Point{10, 10}, "SHARED SESSION", kBlack);
  DrawableId pm = ws->CreatePixmap(60, 40);
  std::vector<Pixel> image(60 * 40);
  for (Pixel& p : image) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  ws->PutImage(pm, Rect{0, 0, 60, 40}, image);
  ws->CopyArea(pm, kScreenDrawable, Rect{0, 0, 60, 40}, Point{30, 40});
  ws->FreePixmap(pm);
  ws->FillRect(kScreenDrawable, Rect{100, 90, 50, 20}, MakePixel(200, 30, 30));
}

TEST(SessionShareTest, TwoViewersConvergeIdentically) {
  EventLoop loop;
  SharedSessionHost host(&loop, 200, 150);
  auto* a = host.AddViewer(LanDesktopLink());
  auto* b = host.AddViewer(WanDesktopLink());
  DrawDesktop(host.window_server(), 1);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(host.window_server()->screen().Equals(a->client()->framebuffer(), &diff))
      << diff;
  EXPECT_TRUE(host.window_server()->screen().Equals(b->client()->framebuffer(), &diff))
      << diff;
}

TEST(SessionShareTest, LateJoinerCatchesUp) {
  EventLoop loop;
  SharedSessionHost host(&loop, 200, 150);
  auto* early = host.AddViewer(LanDesktopLink());
  DrawDesktop(host.window_server(), 2);
  loop.Run();  // session already has content on screen
  auto* late = host.AddViewer(LanDesktopLink());
  loop.Run();  // the join refresh delivers the current screen
  int64_t diff = 0;
  EXPECT_TRUE(
      host.window_server()->screen().Equals(late->client()->framebuffer(), &diff))
      << diff << " pixels differ for the late joiner";
  EXPECT_TRUE(
      host.window_server()->screen().Equals(early->client()->framebuffer(), &diff));
}

TEST(SessionShareTest, LateJoinerSeesSubsequentOffscreenContent) {
  // Pixmaps created before the join are unknown to the late viewer's
  // tracker; copies from them must fall back to residual RAW and still
  // converge.
  EventLoop loop;
  SharedSessionHost host(&loop, 200, 150);
  WindowServer* ws = host.window_server();
  DrawableId pm = ws->CreatePixmap(80, 60);
  ws->FillRect(pm, Rect{0, 0, 80, 60}, MakePixel(10, 200, 10));
  ws->DrawText(pm, Point{4, 4}, "EARLY PIXMAP", kBlack);
  auto* late = host.AddViewer(LanDesktopLink());
  loop.Run();
  // Now present the pre-join pixmap.
  ws->CopyArea(pm, kScreenDrawable, Rect{0, 0, 80, 60}, Point{50, 50});
  ws->FreePixmap(pm);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(ws->screen().Equals(late->client()->framebuffer(), &diff)) << diff;
}

TEST(SessionShareTest, MixedViewportsScaleIndependently) {
  EventLoop loop;
  SharedSessionHost host(&loop, 256, 192);
  auto* desktop = host.AddViewer(LanDesktopLink());
  auto* pda = host.AddViewer(Pda80211gLink());
  pda->client()->RequestViewport(64, 48);
  loop.Run();
  DrawDesktop(host.window_server(), 3);
  loop.Run();
  EXPECT_EQ(desktop->client()->framebuffer().width(), 256);
  EXPECT_EQ(pda->client()->framebuffer().width(), 64);
  // Desktop viewer is pixel-exact; PDA viewer shows scaled content (red box
  // at 100,90 scaled by 1/4 -> ~25,23).
  int64_t diff = 0;
  EXPECT_TRUE(
      host.window_server()->screen().Equals(desktop->client()->framebuffer(), &diff))
      << diff;
  Pixel scaled = pda->client()->framebuffer().At(28, 24);
  EXPECT_GT(PixelR(scaled), 120);
  EXPECT_LT(PixelG(scaled), 120);
}

TEST(SessionShareTest, InputFromAnyViewerReachesApplication) {
  EventLoop loop;
  SharedSessionHost host(&loop, 128, 128);
  auto* a = host.AddViewer(LanDesktopLink());
  auto* b = host.AddViewer(WanDesktopLink());
  std::vector<Point> clicks;
  host.SetInputCallback([&](Point p) { clicks.push_back(p); });
  a->client()->SendInput(Point{1, 2}, 1);
  b->client()->SendInput(Point{3, 4}, 1);
  loop.Run();
  ASSERT_EQ(clicks.size(), 2u);
  EXPECT_EQ(clicks[0], (Point{1, 2}));
  EXPECT_EQ(clicks[1], (Point{3, 4}));
}

TEST(SessionShareTest, ViewerRemovalLeavesOthersRunning) {
  EventLoop loop;
  SharedSessionHost host(&loop, 128, 128);
  auto* a = host.AddViewer(LanDesktopLink());
  auto* b = host.AddViewer(LanDesktopLink());
  host.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 128, 128}, kWhite);
  loop.Run();
  host.RemoveViewer(a);
  EXPECT_EQ(host.viewer_count(), 1u);
  host.window_server()->FillRect(kScreenDrawable, Rect{10, 10, 30, 30},
                                 MakePixel(5, 5, 5));
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(host.window_server()->screen().Equals(b->client()->framebuffer(), &diff))
      << diff;
}

TEST(SessionShareTest, VideoStreamsReachAllViewersIncludingLateJoin) {
  EventLoop loop;
  SharedSessionHost host(&loop, 176, 144);
  auto* early = host.AddViewer(LanDesktopLink());
  VideoSourceOptions vo;
  vo.width = 88;
  vo.height = 72;
  vo.duration = kSecond;
  vo.dst = Rect{0, 0, 176, 144};
  VideoSource video(&loop, host.window_server(), host.host_cpu(), vo);
  SharedSessionHost::Viewer* late = nullptr;
  // Join mid-playback.
  loop.Schedule(kSecond / 2, [&] { late = host.AddViewer(LanDesktopLink()); });
  video.Start();
  loop.Run();
  EXPECT_EQ(static_cast<int32_t>(early->client()->video_frames().size()),
            video.total_frames());
  ASSERT_NE(late, nullptr);
  // The late joiner received roughly the second half of the stream.
  EXPECT_GT(late->client()->video_frames().size(), 6u);
  EXPECT_LT(late->client()->video_frames().size(),
            static_cast<size_t>(video.total_frames()));
  // And both framebuffers show the final frame.
  int64_t diff = 0;
  EXPECT_TRUE(host.window_server()->screen().Equals(
      late->client()->framebuffer(), &diff))
      << diff;
}

TEST(SessionShareTest, AudioBroadcastToAll) {
  EventLoop loop;
  SharedSessionHost host(&loop, 64, 64);
  auto* a = host.AddViewer(LanDesktopLink());
  auto* b = host.AddViewer(LanDesktopLink());
  std::vector<uint8_t> pcm(4096, 0x11);
  host.SubmitAudio(pcm, loop.now());
  loop.Run();
  EXPECT_EQ(a->client()->audio_chunks().size(), 1u);
  EXPECT_EQ(b->client()->audio_chunks().size(), 1u);
}

TEST(SessionShareTest, RandomWorkloadManyViewers) {
  EventLoop loop;
  SharedSessionHost host(&loop, 160, 120);
  std::vector<SharedSessionHost::Viewer*> viewers;
  for (int i = 0; i < 4; ++i) {
    viewers.push_back(host.AddViewer(LanDesktopLink()));
  }
  WindowServer* ws = host.window_server();
  Prng rng(9);
  for (int i = 0; i < 40; ++i) {
    Rect r{static_cast<int32_t>(rng.NextBelow(120)),
           static_cast<int32_t>(rng.NextBelow(90)),
           static_cast<int32_t>(rng.NextInRange(2, 30)),
           static_cast<int32_t>(rng.NextInRange(2, 24))};
    switch (rng.NextBelow(3)) {
      case 0:
        ws->FillRect(kScreenDrawable, r, static_cast<Pixel>(rng.Next()) | 0xFF000000);
        break;
      case 1:
        ws->DrawText(kScreenDrawable, r.origin(), "SHARE", kBlack);
        break;
      default:
        ws->CopyArea(kScreenDrawable, kScreenDrawable, r,
                     Point{static_cast<int32_t>(rng.NextBelow(60)),
                           static_cast<int32_t>(rng.NextBelow(60))});
        break;
    }
  }
  loop.Run();
  for (size_t i = 0; i < viewers.size(); ++i) {
    int64_t diff = 0;
    EXPECT_TRUE(ws->screen().Equals(viewers[i]->client()->framebuffer(), &diff))
        << "viewer " << i << ": " << diff;
  }
}

TEST(SessionShareTest, EncodedFramesSharedAcrossViewers) {
  // The zero-copy tentpole for session sharing: a RAW frame encoded for one
  // viewer's connection is reused (cache hit, no re-encode) by the others,
  // and all viewers still converge to the same screen.
  EventLoop loop;
  SharedSessionHost host(&loop, 128, 96);
  std::vector<SharedSessionHost::Viewer*> viewers;
  for (int i = 0; i < 3; ++i) {
    viewers.push_back(host.AddViewer(LanDesktopLink()));
  }
  WindowServer* ws = host.window_server();
  BufferStats::Get().Reset();
  // PutImage content goes out as RAW updates to all 3 viewers.
  Prng rng(31);
  std::vector<Pixel> image(64 * 48);
  for (Pixel& p : image) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  ws->PutImage(kScreenDrawable, Rect{8, 8, 64, 48}, image);
  loop.Run();

  const BufferStats& stats = BufferStats::Get();
  // N viewers, but the frame bytes were produced once and shared: the other
  // two viewers hit either the flush-level shared cache or the payload
  // cache instead of re-encoding.
  EXPECT_GE(stats.frame_cache_hits + stats.payload_encode_hits, 2);
  for (size_t i = 0; i < viewers.size(); ++i) {
    int64_t diff = 0;
    EXPECT_TRUE(ws->screen().Equals(viewers[i]->client()->framebuffer(), &diff))
        << "viewer " << i << ": " << diff;
  }
}


TEST(SessionShareTest, ViewerRemovedMidFlightStaysAliveForItsEvents) {
  // The removed viewer's frames are still on its wire: loop events point
  // into its transport, server and client, so removal must disconnect the
  // viewer and keep it alive, never destroy it (under ASan, destroying it
  // was a heap-use-after-free in the wire's delivery event).
  EventLoop loop;
  SharedSessionHost host(&loop, 200, 150);
  auto* lan = host.AddViewer(LanDesktopLink());
  auto* wan = host.AddViewer(WanDesktopLink());
  DrawDesktop(host.window_server(), 4);
  loop.RunUntil(loop.now() + 5 * kMillisecond);
  host.RemoveViewer(wan);
  EXPECT_EQ(host.viewer_count(), 1u);
  EXPECT_TRUE(wan->transport()->closed());
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(
      host.window_server()->screen().Equals(lan->client()->framebuffer(), &diff))
      << diff;
}

TEST(SessionShareTest, LocalViewerConvergesByReference) {
  EventLoop loop;
  SharedSessionHost host(&loop, 200, 150);
  // Encryption off keeps the commit path zero-copy (RC4 rewrites bytes);
  // a same-host handoff has nothing to snoop anyway.
  ThincServerOptions so;
  so.encrypt = false;
  auto* local = host.AddLocalViewer(so);
  auto* remote = host.AddViewer(LanDesktopLink(), so);
  DrawDesktop(host.window_server(), 6);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(
      host.window_server()->screen().Equals(local->client()->framebuffer(), &diff))
      << diff;
  EXPECT_TRUE(
      host.window_server()->screen().Equals(remote->client()->framebuffer(), &diff))
      << diff;
  // The co-located client decodes on the shared host CPU, not a terminal's.
  EXPECT_EQ(local->device_cpu(), nullptr);
  ASSERT_EQ(local->transport()->kind(), TransportKind::kLoopback);
  auto* lb = static_cast<LoopbackTransport*>(local->transport());
  EXPECT_GT(lb->SharedBytesFrom(Transport::kServer), 0)
      << "frames must reach the local viewer by reference";
  EXPECT_EQ(lb->CopiedBytesFrom(Transport::kServer), 0)
      << "no server->client payload byte may be memcpy'd on the loopback";
}

}  // namespace
}  // namespace thinc
