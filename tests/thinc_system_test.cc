#include "src/baselines/thinc_system.h"

#include <gtest/gtest.h>

#include "src/raster/fant.h"
#include "src/util/prng.h"
#include "src/workload/video.h"

namespace thinc {
namespace {

// Waits for full delivery, then checks client fb == server reference screen.
void ExpectConverged(EventLoop* loop, ThincSystem* sys) {
  loop->Run();
  int64_t diff = 0;
  EXPECT_TRUE(sys->window_server()->screen().Equals(*sys->ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(ThincSystemTest, SimpleFillConverges) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 128, 96);
  sys.window_server()->FillRect(kScreenDrawable, Rect{10, 10, 50, 50},
                                MakePixel(10, 200, 30));
  ExpectConverged(&loop, &sys);
}

TEST(ThincSystemTest, FillIsSentAsSfillNotPixels) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 512, 512);
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 512, 512}, kWhite);
  loop.Run();
  // A 512x512 fill as pixels would be 1 MB; semantic SFILL is < 100 bytes
  // (plus encryption adds nothing).
  EXPECT_LT(sys.BytesToClient(), 200);
}

TEST(ThincSystemTest, ScrollIsSentAsCopy) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 256, 256);
  WindowServer* ws = sys.window_server();
  // Put distinct content on screen first.
  std::vector<Pixel> noise(256 * 64);
  Prng rng(5);
  for (Pixel& p : noise) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  ws->PutImage(kScreenDrawable, Rect{0, 64, 256, 64}, noise);
  loop.Run();
  int64_t before = sys.BytesToClient();
  ws->ScrollUp(kScreenDrawable, Rect{0, 0, 256, 256}, 32, kWhite);
  ExpectConverged(&loop, &sys);
  // Scroll = COPY + SFILL: no pixel data retransmitted.
  EXPECT_LT(sys.BytesToClient() - before, 300);
}

TEST(ThincSystemTest, TextConvergesViaBitmap) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 256, 64);
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 256, 64}, kWhite);
  sys.window_server()->DrawText(kScreenDrawable, Point{4, 4},
                                "THE QUICK BROWN FOX 0123456789", kBlack);
  ExpectConverged(&loop, &sys);
}

TEST(ThincSystemTest, OffscreenCompositionConverges) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 200, 200);
  WindowServer* ws = sys.window_server();
  DrawableId inner = ws->CreatePixmap(40, 40);
  DrawableId outer = ws->CreatePixmap(100, 100);
  ws->FillRect(inner, Rect{0, 0, 40, 40}, MakePixel(200, 10, 10));
  ws->DrawText(inner, Point{2, 2}, "HI", kWhite);
  ws->FillRect(outer, Rect{0, 0, 100, 100}, MakePixel(10, 10, 200));
  // Pixmap hierarchy: inner composed into outer twice, outer to screen.
  ws->CopyArea(inner, outer, Rect{0, 0, 40, 40}, Point{5, 5});
  ws->CopyArea(inner, outer, Rect{0, 0, 40, 40}, Point{55, 55});
  ws->CopyArea(outer, kScreenDrawable, Rect{0, 0, 100, 100}, Point{50, 50});
  ws->FreePixmap(inner);
  ws->FreePixmap(outer);
  ExpectConverged(&loop, &sys);
}

TEST(ThincSystemTest, OffscreenFillStaysSemanticOnScreenCopy) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 512, 512);
  WindowServer* ws = sys.window_server();
  DrawableId page = ws->CreatePixmap(512, 512);
  ws->FillRect(page, Rect{0, 0, 512, 512}, MakePixel(240, 240, 240));
  ws->CopyArea(page, kScreenDrawable, Rect{0, 0, 512, 512}, Point{0, 0});
  ws->FreePixmap(page);
  loop.Run();
  // With tracking, the 1 MB of pixels never crosses the wire: the fill is
  // replayed as SFILL.
  EXPECT_LT(sys.BytesToClient(), 500);
  int64_t diff = 0;
  EXPECT_TRUE(sys.window_server()->screen().Equals(*sys.ClientFramebuffer(), &diff));
}

TEST(ThincSystemTest, OffscreenTrackingDisabledSendsPixels) {
  struct Outcome {
    int64_t bytes;
    SimTime server_busy;
  };
  auto run = [](bool tracking) {
    EventLoop loop;
    ThincServerOptions options;
    options.offscreen_tracking = tracking;
    ThincSystem sys(&loop, LanDesktopLink(), 256, 256, options);
    WindowServer* ws = sys.window_server();
    DrawableId page = ws->CreatePixmap(256, 256);
    ws->FillRect(page, Rect{0, 0, 256, 256}, MakePixel(240, 240, 240));
    for (int line = 0; line < 10; ++line) {
      ws->DrawText(page, Point{8, 8 + line * 12}, "OFFSCREEN CONTENT WITH TEXT",
                   kBlack);
    }
    ws->CopyArea(page, kScreenDrawable, Rect{0, 0, 256, 256}, Point{0, 0});
    ws->FreePixmap(page);
    loop.Run();
    int64_t diff = 0;
    EXPECT_TRUE(
        sys.window_server()->screen().Equals(*sys.ClientFramebuffer(), &diff))
        << diff;
    return Outcome{sys.BytesToClient(), sys.app_cpu()->total_busy()};
  };
  Outcome tracked = run(true);
  Outcome untracked = run(false);
  // Same final image either way. Without the Section 4.1 optimization the
  // whole pixmap crosses as pixels, which must first be compressed — the
  // "computationally expensive" path the paper describes. (On text content
  // the byte counts end up comparable because compressed text is small;
  // the CPU gap is the robust signal.)
  EXPECT_GE(untracked.bytes, tracked.bytes * 3 / 4);
  EXPECT_GT(untracked.server_busy, tracked.server_busy * 3 / 2);
}

TEST(ThincSystemTest, ScreenToPixmapAndBack) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 128, 128);
  WindowServer* ws = sys.window_server();
  ws->FillRect(kScreenDrawable, Rect{0, 0, 128, 128}, MakePixel(50, 60, 70));
  ws->DrawText(kScreenDrawable, Point{10, 10}, "SAVE ME", kWhite);
  DrawableId stash = ws->CreatePixmap(64, 32);
  ws->CopyArea(kScreenDrawable, stash, Rect{0, 0, 64, 32}, Point{0, 0});
  ws->FillRect(kScreenDrawable, Rect{0, 0, 128, 128}, kBlack);
  ws->CopyArea(stash, kScreenDrawable, Rect{0, 0, 64, 32}, Point{30, 60});
  ws->FreePixmap(stash);
  ExpectConverged(&loop, &sys);
}

TEST(ThincSystemTest, CompositeAlphaContentConverges) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 100, 100);
  WindowServer* ws = sys.window_server();
  ws->FillRect(kScreenDrawable, Rect{0, 0, 100, 100}, MakePixel(0, 100, 0));
  std::vector<Pixel> argb(50 * 20);
  for (size_t i = 0; i < argb.size(); ++i) {
    argb[i] = MakePixel(255, 0, 0, static_cast<uint8_t>(i % 256));
  }
  ws->CompositeOver(kScreenDrawable, Rect{25, 40, 50, 20}, argb);
  ExpectConverged(&loop, &sys);
}

TEST(ThincSystemTest, EncryptionOnAndOffBothConverge) {
  for (bool encrypt : {true, false}) {
    EventLoop loop;
    ThincServerOptions options;
    options.encrypt = encrypt;
    ThincSystem sys(&loop, LanDesktopLink(), 64, 64, options);
    sys.window_server()->FillRect(kScreenDrawable, Rect{5, 5, 40, 40},
                                  MakePixel(1, 2, 3));
    sys.window_server()->DrawText(kScreenDrawable, Point{8, 8}, "RC4", kWhite);
    ExpectConverged(&loop, &sys);
  }
}

TEST(ThincSystemTest, EncryptedBytesDifferFromPlaintext) {
  // Render identical content with and without encryption; the wire volume
  // matches (stream cipher) but we can't compare bytes directly here, so
  // check at least that encryption doesn't change the byte count.
  int64_t sizes[2] = {0, 0};
  int i = 0;
  for (bool encrypt : {true, false}) {
    EventLoop loop;
    ThincServerOptions options;
    options.encrypt = encrypt;
    ThincSystem sys(&loop, LanDesktopLink(), 64, 64, options);
    sys.window_server()->FillRect(kScreenDrawable, Rect{5, 5, 40, 40}, kWhite);
    loop.Run();
    sizes[i++] = sys.BytesToClient();
  }
  EXPECT_EQ(sizes[0], sizes[1]);
}

TEST(ThincSystemTest, LargeUpdateSplitsAndConverges) {
  // Random (incompressible) full-screen image: far larger than the socket
  // buffer, exercising SplitOff and the non-blocking flush path.
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 512, 384);
  std::vector<Pixel> noise(512 * 384);
  Prng rng(8);
  for (Pixel& p : noise) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  sys.window_server()->PutImage(kScreenDrawable, Rect{0, 0, 512, 384}, noise);
  ExpectConverged(&loop, &sys);
  EXPECT_GT(sys.BytesToClient(), 512 * 384 * 4 * 9 / 10);
}

TEST(ThincSystemTest, RapidOverwritesEvictStaleData) {
  EventLoop loop;
  // Slow link so earlier updates are still buffered when overwritten.
  LinkParams slow{1'000'000, 1'000, 1 << 20, "slow"};
  ThincSystem sys(&loop, slow, 128, 128);
  Prng rng(9);
  for (int i = 0; i < 30; ++i) {
    std::vector<Pixel> noise(128 * 128);
    for (Pixel& p : noise) {
      p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    }
    sys.window_server()->PutImage(kScreenDrawable, Rect{0, 0, 128, 128}, noise);
  }
  loop.Run();
  // Convergence to the FINAL image despite most intermediate versions never
  // being sent: the client-buffer eviction at work.
  int64_t diff = 0;
  EXPECT_TRUE(
      sys.window_server()->screen().Equals(*sys.ClientFramebuffer(), &diff));
  // Eviction means nowhere near 30 full frames crossed the wire.
  EXPECT_LT(sys.BytesToClient(), 3LL * 128 * 128 * 4);
}

TEST(ThincSystemTest, InputRoundTripDrivesApplication) {
  EventLoop loop;
  ThincSystem sys(&loop, WanDesktopLink(), 64, 64);
  Point received{-1, -1};
  SimTime received_at = -1;
  sys.SetInputCallback([&](Point p) {
    received = p;
    received_at = loop.now();
  });
  sys.ClientClick(Point{12, 34});
  loop.Run();
  EXPECT_EQ(received, (Point{12, 34}));
  // One-way latency: at least RTT/2.
  EXPECT_GE(received_at, 33'000);
}

TEST(ThincSystemTest, VideoStreamDeliversAllFrames) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 352, 288);
  VideoSourceOptions vo;
  vo.width = 176;
  vo.height = 144;
  vo.fps = 24;
  vo.duration = kSecond;
  vo.dst = Rect{0, 0, 352, 288};
  VideoSource video(&loop, sys.api(), sys.app_cpu(), vo);
  video.Start();
  loop.Run();
  EXPECT_EQ(static_cast<int32_t>(sys.VideoFrameTimes().size()),
            video.total_frames());
  EXPECT_EQ(sys.server()->video_frames_dropped(), 0);
  // YV12 on the wire: 1.5 B/px, not 4 B/px.
  int64_t expected = static_cast<int64_t>(video.total_frames()) * 176 * 144 * 3 / 2;
  EXPECT_LT(sys.BytesToClient(), expected + expected / 4);
  EXPECT_GT(sys.BytesToClient(), expected - expected / 10);
}

TEST(ThincSystemTest, PartlyOffscreenVideoMatchesServerScreen) {
  // The client scales each frame to the stream's whole destination and then
  // clips, as the server's reference screen does.
  for (Rect dst : {Rect{0, 0, 352, 288}, Rect{176, 0, 352, 288}, Rect{-100, -50, 352, 288}}) {
    EventLoop loop;
    ThincSystem sys(&loop, LanDesktopLink(), 352, 288);
    VideoSourceOptions vo;
    vo.width = 176;
    vo.height = 144;
    vo.duration = kSecond / 4;
    vo.dst = dst;
    VideoSource video(&loop, sys.api(), sys.app_cpu(), vo);
    video.Start();
    loop.Run();
    int64_t diff = -1;
    sys.window_server()->screen().Equals(*sys.ClientFramebuffer(), &diff);
    EXPECT_EQ(diff, 0) << dst.ToString();
  }
}

TEST(ThincSystemTest, VideoFramesDropWhenLinkTooSlow) {
  EventLoop loop;
  LinkParams slow{2'000'000, 1'000, 1 << 20, "slow"};  // 0.25 MB/s
  ThincSystem sys(&loop, slow, 352, 288);
  VideoSourceOptions vo;
  vo.width = 176;
  vo.height = 144;
  vo.duration = kSecond;
  vo.dst = Rect{0, 0, 352, 288};
  VideoSource video(&loop, sys.api(), sys.app_cpu(), vo);
  video.Start();
  loop.Run();
  // Server-side eviction dropped outdated frames rather than stalling.
  EXPECT_GT(sys.server()->video_frames_dropped(), 0);
  EXPECT_LT(static_cast<int32_t>(sys.VideoFrameTimes().size()),
            video.total_frames());
}

TEST(ThincSystemTest, AvSyncSkewSmallOnHealthyLink) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 352, 288);
  VideoSourceOptions vo;
  vo.width = 176;
  vo.height = 144;
  vo.duration = kSecond;
  vo.dst = Rect{0, 0, 352, 288};
  VideoSource video(&loop, sys.api(), sys.app_cpu(), vo);
  std::vector<uint8_t> pcm(8192, 0x42);
  // Interleave audio at ~46 ms periods, like the benchmark.
  std::function<void()> audio_tick = [&] {
    if (loop.now() < kSecond) {
      sys.SubmitAudio(pcm, loop.now());
      loop.Schedule(46 * kMillisecond, audio_tick);
    }
  };
  audio_tick();
  video.Start();
  loop.Run();
  // Both media share the server clock and the same connection: the skew
  // between their delivery delays stays in the few-millisecond range.
  EXPECT_GT(sys.client()->video_frames().size(), 0u);
  EXPECT_GT(sys.client()->audio_chunks().size(), 0u);
  EXPECT_LT(sys.client()->MaxAvSkew(), 20 * kMillisecond);
}

TEST(ThincSystemTest, AvSyncSkewVisibleOnStarvedLink) {
  EventLoop loop;
  LinkParams slow{3'000'000, kMillisecond, 1 << 20, "slow"};
  ThincSystem sys(&loop, slow, 352, 288);
  VideoSourceOptions vo;
  vo.width = 176;
  vo.height = 144;
  vo.duration = kSecond;
  vo.dst = Rect{0, 0, 352, 288};
  VideoSource video(&loop, sys.api(), sys.app_cpu(), vo);
  std::vector<uint8_t> pcm(8192, 0x42);
  std::function<void()> audio_tick = [&] {
    if (loop.now() < kSecond) {
      sys.SubmitAudio(pcm, loop.now());
      loop.Schedule(46 * kMillisecond, audio_tick);
    }
  };
  audio_tick();
  video.Start();
  loop.Run();
  // Audio cuts ahead of the backed-up video (it is prioritized), so the
  // measured skew grows — exactly what a player would compensate with the
  // timestamps.
  EXPECT_GT(sys.client()->MaxAvSkew(), 20 * kMillisecond);
}

TEST(ThincSystemTest, AudioChunksTimestamped) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 64, 64);
  std::vector<uint8_t> pcm(8192, 0x42);
  sys.SubmitAudio(pcm, loop.now());
  loop.Schedule(10'000, [&] { sys.SubmitAudio(pcm, loop.now()); });
  loop.Run();
  ASSERT_EQ(sys.client()->audio_chunks().size(), 2u);
  EXPECT_EQ(sys.client()->audio_chunks()[0].server_timestamp, 0);
  EXPECT_EQ(sys.client()->audio_chunks()[1].server_timestamp, 10'000);
  EXPECT_EQ(sys.AudioBytesDelivered(), 2 * 8192);
}

TEST(ThincSystemTest, ViewportResizeShrinksTraffic) {
  EventLoop loop;
  ThincSystem big(&loop, LanDesktopLink(), 256, 192);
  EventLoop loop2;
  ThincSystem small(&loop2, LanDesktopLink(), 256, 192);
  small.SetViewport(64, 48);
  loop2.Run();
  int64_t small_base = small.BytesToClient();

  auto draw = [](ThincSystem* sys) {
    Prng rng(12);
    std::vector<Pixel> noise(256 * 192);
    for (Pixel& p : noise) {
      p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    }
    sys->window_server()->PutImage(kScreenDrawable, Rect{0, 0, 256, 192}, noise);
  };
  draw(&big);
  draw(&small);
  loop.Run();
  loop2.Run();
  // Server-side resize cuts the data substantially (Section 8.3: more than
  // a factor of two; here the area ratio is 16x so expect a big cut).
  EXPECT_LT(small.BytesToClient() - small_base, big.BytesToClient() / 4);
}

TEST(ThincSystemTest, ViewportContentApproximatesFantReference) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 128, 128);
  sys.SetViewport(64, 64);
  loop.Run();
  WindowServer* ws = sys.window_server();
  ws->FillRect(kScreenDrawable, Rect{0, 0, 128, 128}, kWhite);
  ws->FillRect(kScreenDrawable, Rect{0, 0, 128, 32}, MakePixel(0, 0, 180));
  ws->FillRect(kScreenDrawable, Rect{32, 64, 64, 32}, MakePixel(180, 0, 0));
  loop.Run();
  const Surface& client = *sys.ClientFramebuffer();
  ASSERT_EQ(client.width(), 64);
  Surface reference = FantResample(ws->screen(), 64, 64);
  // Mean channel error within a loose tolerance (coordinate rounding makes
  // pixel-exactness impossible at the seams).
  int64_t total_err = 0;
  for (int32_t y = 0; y < 64; ++y) {
    for (int32_t x = 0; x < 64; ++x) {
      Pixel a = client.At(x, y);
      Pixel b = reference.At(x, y);
      total_err += std::abs(PixelR(a) - PixelR(b)) + std::abs(PixelG(a) - PixelG(b)) +
                   std::abs(PixelB(a) - PixelB(b));
    }
  }
  double mean_err = static_cast<double>(total_err) / (64 * 64 * 3);
  EXPECT_LT(mean_err, 8.0);
}

TEST(ThincSystemTest, ViewportVideoDownscaled) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 352, 288);
  sys.SetViewport(88, 72);  // quarter size
  loop.Run();
  int64_t base = sys.BytesToClient();
  VideoSourceOptions vo;
  vo.width = 176;
  vo.height = 144;
  vo.duration = kSecond;
  vo.dst = Rect{0, 0, 352, 288};
  VideoSource video(&loop, sys.api(), sys.app_cpu(), vo);
  video.Start();
  loop.Run();
  int64_t video_bytes = sys.BytesToClient() - base;
  // Downscaled by 1/4 per axis: ~1/16 the plane data.
  int64_t full = static_cast<int64_t>(video.total_frames()) * 176 * 144 * 3 / 2;
  EXPECT_LT(video_bytes, full / 8);
  EXPECT_EQ(static_cast<int32_t>(sys.VideoFrameTimes().size()),
            video.total_frames());
}

TEST(ThincSystemTest, ClientPullModeStillConverges) {
  EventLoop loop;
  ThincServerOptions options;
  options.server_push = false;
  ThincSystem sys(&loop, WanDesktopLink(), 96, 96, options);
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 96, 96},
                                MakePixel(9, 9, 9));
  sys.window_server()->DrawText(kScreenDrawable, Point{5, 5}, "PULL", kWhite);
  ExpectConverged(&loop, &sys);
}

TEST(ThincSystemTest, PushBeatsPullOnUpdateStreams) {
  // A parked request makes the FIRST pull update as fast as push; the pull
  // penalty (one round trip per update batch) appears on update *streams* —
  // exactly the paper's argument for why client-pull video collapses in the
  // WAN (Section 5).
  auto run = [](bool push) {
    EventLoop loop;
    ThincServerOptions options;
    options.server_push = push;
    ThincSystem sys(&loop, WanDesktopLink(), 96, 96, options);
    loop.RunUntil(200 * kMillisecond);  // settle the initial pull request
    SimTime t0 = loop.now();
    // Two quick successive updates in different areas.
    sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 96, 40}, kWhite);
    loop.RunUntil(t0 + 5 * kMillisecond);
    sys.window_server()->FillRect(kScreenDrawable, Rect{0, 48, 96, 40},
                                  MakePixel(9, 9, 9));
    loop.Run();
    return sys.LastDeliveryToClient() - t0;
  };
  SimTime push_latency = run(true);
  SimTime pull_latency = run(false);
  // The second update had to wait for the client's next request: at least
  // an extra half round trip.
  EXPECT_GT(pull_latency, push_latency + 30 * kMillisecond);
}

TEST(ThincSystemTest, SchedulerFavorsInteractiveUpdates) {
  EventLoop loop;
  // Modest link so ordering is visible in delivery times.
  LinkParams link{10'000'000, 2'000, 1 << 20, "mid"};
  ThincSystem sys(&loop, link, 512, 512);
  sys.SetInputCallback([](Point) {});
  // User clicks at (500, 500); a large update elsewhere plus a small button
  // feedback at the click.
  sys.ClientClick(Point{500, 500});
  loop.Run();
  Prng rng(14);
  std::vector<Pixel> noise(400 * 400);
  for (Pixel& p : noise) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  sys.window_server()->PutImage(kScreenDrawable, Rect{0, 0, 400, 400}, noise);
  sys.window_server()->FillRect(kScreenDrawable, Rect{495, 495, 12, 12}, kWhite);
  SimTime t0 = loop.now();
  // Track when the button pixel turns white at the client.
  SimTime button_at = -1;
  std::function<void()> poll = [&] {
    if (button_at < 0 && sys.ClientFramebuffer()->At(500, 500) == kWhite) {
      button_at = loop.now();
      return;
    }
    if (button_at < 0 && loop.has_pending()) {
      loop.Schedule(kMillisecond, poll);
    }
  };
  loop.Schedule(kMillisecond, poll);
  loop.Run();
  SimTime all_done = sys.LastDeliveryToClient();
  ASSERT_GE(button_at, 0);
  // The interactive update beat the bulk of the big transfer.
  EXPECT_LT(button_at - t0, (all_done - t0) / 2);
}

}  // namespace
}  // namespace thinc
