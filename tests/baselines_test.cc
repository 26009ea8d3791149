#include <gtest/gtest.h>

#include "src/baselines/local_pc.h"
#include "src/baselines/rdp_system.h"
#include "src/baselines/scrape_system.h"
#include "src/baselines/sunray_system.h"
#include "src/baselines/x_system.h"
#include "src/util/prng.h"

namespace thinc {
namespace {

// Draws a representative content mix through any system's DrawingApi and
// returns the reference image (rendered locally with the same ops).
Surface DrawMixedContent(DrawingApi* api, int32_t w, int32_t h) {
  WindowServer reference(w, h, nullptr, nullptr);
  auto both = [&](auto&& fn) {
    fn(api);
    fn(&reference);
  };
  both([&](DrawingApi* a) { a->FillRect(kScreenDrawable, Rect{0, 0, w, h}, kWhite); });
  both([&](DrawingApi* a) {
    a->FillRect(kScreenDrawable, Rect{10, 10, w / 2, 20}, MakePixel(30, 60, 200));
  });
  both([&](DrawingApi* a) {
    a->DrawText(kScreenDrawable, Point{12, 40}, "BASELINE FIDELITY", kBlack);
  });
  Prng rng(3);
  std::vector<Pixel> image(40 * 30);
  for (Pixel& p : image) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  both([&](DrawingApi* a) {
    DrawableId pm = a->CreatePixmap(40, 30);
    a->PutImage(pm, Rect{0, 0, 40, 30}, image);
    a->CopyArea(pm, kScreenDrawable, Rect{0, 0, 40, 30}, Point{20, 60});
    a->FreePixmap(pm);
  });
  both([&](DrawingApi* a) {
    a->CopyArea(kScreenDrawable, kScreenDrawable, Rect{20, 60, 40, 30},
                Point{70, 60});
  });
  return reference.screen();
}

// Random opaque pixels, different for each seed.
std::vector<Pixel> Noise(size_t n, uint64_t seed) {
  Prng rng(seed);
  std::vector<Pixel> px(n);
  for (Pixel& p : px) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  return px;
}

TEST(XSystemTest, ClientRendersFaithfully) {
  EventLoop loop;
  XSystem sys(&loop, LanDesktopLink(), 160, 120, SystemKind::kX);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(XSystemTest, NxDefaultProfileBounded565) {
  // NX's default image profile is mildly lossy (RGB565-quantized images,
  // everything else lossless).
  EventLoop loop;
  XSystem sys(&loop, LanDesktopLink(), 160, 120, SystemKind::kNx);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  const Surface& client = *sys.ClientFramebuffer();
  for (int32_t y = 0; y < 120; ++y) {
    for (int32_t x = 0; x < 160; ++x) {
      Pixel a = reference.At(x, y);
      Pixel b = client.At(x, y);
      ASSERT_LE(std::abs(PixelR(a) - PixelR(b)), 8) << x << "," << y;
      ASSERT_LE(std::abs(PixelG(a) - PixelG(b)), 8);
      ASSERT_LE(std::abs(PixelB(a) - PixelB(b)), 8);
    }
  }
}

TEST(XSystemTest, NxWanProfileBounded444) {
  EventLoop loop;
  XSystem sys(&loop, WanDesktopLink(), 160, 120, SystemKind::kNx,
              /*wan_profile=*/true);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  // RGB444 quantization: larger but still bounded channel error.
  const Surface& client = *sys.ClientFramebuffer();
  for (int32_t y = 0; y < 120; ++y) {
    for (int32_t x = 0; x < 160; ++x) {
      Pixel a = reference.At(x, y);
      Pixel b = client.At(x, y);
      ASSERT_LE(std::abs(PixelR(a) - PixelR(b)), 17) << x << "," << y;
      ASSERT_LE(std::abs(PixelG(a) - PixelG(b)), 17);
      ASSERT_LE(std::abs(PixelB(a) - PixelB(b)), 17);
    }
  }
}

TEST(XSystemTest, ImageStripsCoalesceIntoOneRequest) {
  // Xlib request buffering: consecutive scanline strips leave the proxy as
  // one PutImage, so per-strip framing overhead does not multiply.
  auto bytes_for_strips = [](int32_t strip_rows) {
    EventLoop loop;
    XSystem sys(&loop, LanDesktopLink(), 128, 128, SystemKind::kX);
    Prng rng(4);
    std::vector<Pixel> image(64 * 64);
    for (Pixel& p : image) {
      p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    }
    for (int32_t y = 0; y < 64; y += strip_rows) {
      sys.api()->PutImage(
          kScreenDrawable, Rect{0, y, 64, strip_rows},
          std::span<const Pixel>(image.data() + static_cast<size_t>(y) * 64,
                                 static_cast<size_t>(strip_rows) * 64));
    }
    // A fill flushes the pending image.
    sys.api()->FillRect(kScreenDrawable, Rect{100, 100, 4, 4}, kWhite);
    loop.Run();
    return sys.BytesToClient();
  };
  int64_t strip2 = bytes_for_strips(2);
  int64_t strip64 = bytes_for_strips(64);
  // 32 strips cost within a few percent of the single store.
  EXPECT_LT(strip2, strip64 + strip64 / 10);
}

TEST(XSystemTest, PendingImageFlushedBeforeOverlappingFill) {
  // Ordering: a fill issued after buffered strips must land on top of them.
  EventLoop loop;
  XSystem sys(&loop, LanDesktopLink(), 64, 64, SystemKind::kX);
  std::vector<Pixel> row(64, MakePixel(1, 2, 3));
  for (int32_t y = 0; y < 8; ++y) {
    sys.api()->PutImage(kScreenDrawable, Rect{0, y, 64, 1}, row);
  }
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 4}, kWhite);
  loop.Run();
  EXPECT_EQ(sys.ClientFramebuffer()->At(10, 2), kWhite);
  EXPECT_EQ(sys.ClientFramebuffer()->At(10, 6), MakePixel(1, 2, 3));
}

TEST(XSystemTest, SyncRequestsStallWanPipelines) {
  auto run = [](SimTime rtt, SystemKind kind) {
    EventLoop loop;
    LinkParams link{100'000'000, rtt, 1 << 20, "x"};
    XSystem sys(&loop, link, 200, 200, kind);
    // 300 small requests.
    for (int i = 0; i < 300; ++i) {
      sys.api()->FillRect(kScreenDrawable, Rect{i % 100, i % 100, 10, 10},
                          MakePixel(static_cast<uint8_t>(i), 0, 0));
    }
    loop.Run();
    return sys.LastDeliveryToClient();
  };
  SimTime lan = run(200, SystemKind::kX);
  SimTime wan = run(66'000, SystemKind::kX);
  SimTime nx_wan = run(66'000, SystemKind::kNx);
  // X's 20 sync stalls x 66 ms dominate WAN; the NX proxy answers all but 2.
  EXPECT_GT(wan, lan + 15 * 66'000);
  EXPECT_LT(nx_wan, wan / 3);
}

TEST(XSystemTest, InputCrossesNetwork) {
  EventLoop loop;
  XSystem sys(&loop, WanDesktopLink(), 64, 64, SystemKind::kX);
  SimTime received_at = -1;
  sys.SetInputCallback([&](Point) { received_at = loop.now(); });
  sys.ClientClick(Point{5, 5});
  loop.Run();
  EXPECT_GE(received_at, 33'000);
}

TEST(ScrapeSystemTest, VncConvergesPixelExact) {
  EventLoop loop;
  ScrapeSystem sys(&loop, LanDesktopLink(), 160, 120, SystemKind::kVnc);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(ScrapeSystemTest, VncAggressiveProfileConverges) {
  EventLoop loop;
  ScrapeSystem sys(&loop, WanDesktopLink(), 160, 120, SystemKind::kVnc,
                   /*wan_profile=*/true);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(ScrapeSystemTest, PullModelWaitsForRequest) {
  EventLoop loop;
  ScrapeSystem sys(&loop, WanDesktopLink(), 64, 64, SystemKind::kVnc);
  loop.Run();  // initial request arrives, nothing dirty yet
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 64}, kWhite);
  SimTime t0 = loop.now();
  loop.Run();
  // Delivery: defer window + serialization + half RTT (the request was
  // already pending, so no extra round trip for the FIRST update)...
  SimTime first = sys.LastDeliveryToClient();
  EXPECT_GT(first, t0);
  // ...but a SECOND update right after must wait for the next request (a
  // full extra round trip).
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 64}, kBlack);
  loop.Run();
  SimTime second = sys.LastDeliveryToClient();
  EXPECT_GE(second - first, 66'000);
}

TEST(ScrapeSystemTest, OffscreenContentInvisibleUntilCopied) {
  EventLoop loop;
  ScrapeSystem sys(&loop, LanDesktopLink(), 64, 64, SystemKind::kVnc);
  DrawableId pm = sys.api()->CreatePixmap(32, 32);
  sys.api()->FillRect(pm, Rect{0, 0, 32, 32}, kWhite);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), 0);  // nothing on screen yet
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 32, 32}, Point{0, 0});
  loop.Run();
  EXPECT_GT(sys.BytesToClient(), 0);
}

TEST(ScrapeSystemTest, GotomypcQuantizedFidelity) {
  EventLoop loop;
  ScrapeSystem sys(&loop, WanDesktopLink(), 160, 120, SystemKind::kGotomypc);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  // 8-bit color: bounded quantization error, not pixel-exact.
  const Surface& client = *sys.ClientFramebuffer();
  int64_t total_err = 0;
  for (int32_t y = 0; y < 120; ++y) {
    for (int32_t x = 0; x < 160; ++x) {
      Pixel a = reference.At(x, y);
      Pixel b = client.At(x, y);
      ASSERT_LE(std::abs(PixelR(a) - PixelR(b)), 40);
      ASSERT_LE(std::abs(PixelB(a) - PixelB(b)), 88);
      total_err += std::abs(PixelR(a) - PixelR(b));
    }
  }
  EXPECT_GT(total_err, 0);  // it IS lossy
}

TEST(ScrapeSystemTest, GotomypcViewportIsAtLeast640x480) {
  // GoToMyPC cannot show a client geometry below 640x480: a smaller
  // viewport request gets that size, which the client then resizes into.
  EventLoop loop;
  ScrapeSystem sys(&loop, Pda80211gLink(), 1024, 768, SystemKind::kGotomypc);
  sys.SetViewport(320, 240);
  EXPECT_EQ(sys.ClientFramebuffer()->width(), 640);
  EXPECT_EQ(sys.ClientFramebuffer()->height(), 480);
}

TEST(ScrapeSystemTest, VncClipViewportSendsOnlyVisible) {
  EventLoop loop;
  ScrapeSystem sys(&loop, Pda80211gLink(), 256, 192, SystemKind::kVnc);
  sys.SetViewport(64, 48);
  loop.Run();
  // Content fully outside the viewport: nothing crosses the wire.
  sys.api()->FillRect(kScreenDrawable, Rect{128, 128, 64, 48}, kWhite);
  loop.Run();
  int64_t outside = sys.BytesToClient();
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 64, 48}, kWhite);
  loop.Run();
  EXPECT_EQ(outside, 0);
  EXPECT_GT(sys.BytesToClient(), 0);
  EXPECT_EQ(sys.ClientFramebuffer()->At(10, 10), kWhite);
}

TEST(SunRaySystemTest, ConvergesPixelExact) {
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 160, 120);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(SunRaySystemTest, TwoColorRegionRecoveredAsBitmap) {
  // Sampling recovers text-like (two-color) areas as 1-bit bitmaps instead
  // of 32-bit RAW — part of the Sun Ray command set the paper describes.
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 128, 128);
  DrawableId pm = sys.api()->CreatePixmap(128, 128);
  sys.api()->FillRect(pm, Rect{0, 0, 128, 128}, kWhite);
  sys.api()->DrawText(pm, Point{4, 4}, "TWO COLOR TEXT AREA", kBlack);
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 128, 128}, Point{0, 0});
  loop.Run();
  // 1 bpp + headers: far below even RLE'd 32-bit pixels (text defeats runs).
  EXPECT_LT(sys.BytesToClient(), 128 * 128 / 2);
  int64_t diff = 0;
  WindowServer reference(128, 128, nullptr, nullptr);
  DrawableId rpm = reference.CreatePixmap(128, 128);
  reference.FillRect(rpm, Rect{0, 0, 128, 128}, kWhite);
  reference.DrawText(rpm, Point{4, 4}, "TWO COLOR TEXT AREA", kBlack);
  reference.CopyArea(rpm, kScreenDrawable, Rect{0, 0, 128, 128}, Point{0, 0});
  EXPECT_TRUE(reference.screen().Equals(*sys.ClientFramebuffer(), &diff)) << diff;
}

TEST(SunRaySystemTest, SolidFillStaysSemantic) {
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 256, 256);
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 256, 256}, kWhite);
  loop.Run();
  EXPECT_LT(sys.BytesToClient(), 200);
}

TEST(SunRaySystemTest, OffscreenFillComesBackAsPixelsNotFill) {
  // The architectural difference from THINC: the same offscreen-then-copy
  // pattern costs Sun Ray pixel traffic because it ignores offscreen
  // semantics (even though uniform-detection may recover a fill, text
  // content defeats it).
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 256, 256);
  DrawableId pm = sys.api()->CreatePixmap(256, 128);
  sys.api()->FillRect(pm, Rect{0, 0, 256, 128}, kWhite);
  sys.api()->DrawText(pm, Point{10, 10}, "NOT UNIFORM CONTENT", kBlack);
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 256, 128}, Point{0, 0});
  loop.Run();
  EXPECT_GT(sys.BytesToClient(), 2000);  // pixel data, RLE-compressed
  EXPECT_EQ(sys.ClientFramebuffer()->At(128, 64), kWhite);
}

TEST(SunRaySystemTest, RejectedUpdateIsChargedButNotSent) {
  // As for RDP, for both keyed sends: a two-color bitmap and a pixel
  // update. The second update at the same rect is dropped while the first
  // waits; it pays the same analysis and encode cost but adds no bytes.
  for (bool two_color : {true, false}) {
    auto content = [two_color](uint64_t seed) {
      std::vector<Pixel> px = Noise(32 * 32, seed);
      if (two_color) {
        for (Pixel& p : px) {
          p = (p & 1) != 0 ? kBlack : MakePixel(200, 200, static_cast<uint8_t>(seed));
        }
      }
      return px;
    };
    auto run = [&content](int frames, Rect second) {
      EventLoop loop;
      SunRaySystem sys(&loop, LanDesktopLink(), 160, 120);
      loop.Run();
      sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 32, 32}, content(1));
      if (frames == 2) {
        sys.api()->PutImage(kScreenDrawable, second, content(2));
      }
      loop.Run();
      return std::pair(sys.app_cpu()->total_busy(), sys.BytesToClient());
    };
    auto [one_busy, one_bytes] = run(1, Rect{});
    auto [dropped_busy, dropped_bytes] = run(2, Rect{0, 0, 32, 32});
    auto [shipped_busy, shipped_bytes] = run(2, Rect{64, 0, 32, 32});
    EXPECT_EQ(dropped_bytes, one_bytes) << "two_color=" << two_color;
    EXPECT_GT(shipped_bytes, one_bytes) << "two_color=" << two_color;
    EXPECT_EQ(dropped_busy, shipped_busy) << "two_color=" << two_color;
    EXPECT_GT(dropped_busy, one_busy) << "two_color=" << two_color;
  }
}

TEST(SunRaySystemTest, ScreenCopyAccelerated) {
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 128, 128);
  Prng rng(6);
  std::vector<Pixel> noise(64 * 64);
  for (Pixel& p : noise) {
    p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
  }
  DrawableId pm = sys.api()->CreatePixmap(64, 64);
  sys.api()->PutImage(pm, Rect{0, 0, 64, 64}, noise);
  sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 64, 64}, Point{0, 0});
  loop.Run();
  int64_t before = sys.BytesToClient();
  sys.api()->CopyArea(kScreenDrawable, kScreenDrawable, Rect{0, 0, 64, 64},
                      Point{64, 64});
  loop.Run();
  EXPECT_LT(sys.BytesToClient() - before, 200);  // COPY, not pixels
  int64_t diff = 0;
  Surface expect(*sys.ClientFramebuffer());
  EXPECT_EQ(sys.ClientFramebuffer()->At(70, 70),
            sys.ClientFramebuffer()->At(6, 6));
  (void)diff;
  (void)expect;
}

TEST(RdpSystemTest, ConvergesPixelExact) {
  EventLoop loop;
  RdpSystem sys(&loop, LanDesktopLink(), 160, 120, SystemKind::kRdp);
  Surface reference = DrawMixedContent(sys.api(), 160, 120);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(RdpSystemTest, BitmapCacheSuppressesResends) {
  // The same bitmap placed twice: the second placement ships as a cache
  // reference, and afterwards the client shows exactly what the server drew,
  // for RDP, RDP clipped to a viewport and ICA resizing onto one. The time
  // the client finished the hit is pinned, so resolving a reference keeps
  // its client CPU charge.
  struct Case {
    SystemKind kind;
    bool viewport;
    SimTime processed_at;
  };
  const Case cases[] = {
      {SystemKind::kRdp, false, 1528},
      {SystemKind::kRdp, true, 1528},
      {SystemKind::kIca, true, 1928},
  };
  for (const Case& c : cases) {
    const bool ica = c.kind == SystemKind::kIca;
    SCOPED_TRACE(testing::Message() << "ica " << ica << " viewport " << c.viewport);
    EventLoop loop;
    RdpSystem sys(&loop, LanDesktopLink(), 256, 128, c.kind);
    if (c.viewport) {
      sys.SetViewport(128, 64);
    }
    WindowServer reference(256, 128, nullptr, nullptr);
    const std::vector<Pixel> image = Noise(48 * 48, 7);
    std::vector<std::pair<DrawingApi*, DrawableId>> apis;
    for (DrawingApi* api : {sys.api(), static_cast<DrawingApi*>(&reference)}) {
      api->FillRect(kScreenDrawable, Rect{0, 0, 256, 128}, MakePixel(236, 236, 240));
      DrawableId pm = api->CreatePixmap(48, 48);
      api->PutImage(pm, Rect{0, 0, 48, 48}, image);
      api->CopyArea(pm, kScreenDrawable, Rect{0, 0, 48, 48}, Point{0, 0});
      apis.emplace_back(api, pm);
    }
    loop.Run();
    int64_t first = sys.BytesToClient();
    // The same bitmap again elsewhere: a cache reference, not a payload.
    for (auto [api, pm] : apis) {
      api->CopyArea(pm, kScreenDrawable, Rect{0, 0, 48, 48}, Point{60, 0});
    }
    loop.Run();
    int64_t second = sys.BytesToClient() - first;
    EXPECT_LT(second, first / 10);
    EXPECT_EQ(sys.ClientLastProcessedAt(), c.processed_at);
    // ICA shows the desktop scaled by two each way; RDP shows its top-left.
    const Surface& fb = *sys.ClientFramebuffer();
    const int32_t scale = ica && c.viewport ? 2 : 1;
    for (int32_t y = 0; y < fb.height(); ++y) {
      for (int32_t x = 0; x < fb.width(); ++x) {
        ASSERT_EQ(fb.At(x, y), reference.screen().At(scale * x, scale * y))
            << x << "," << y;
      }
    }
  }
}

TEST(RdpSystemTest, RejectedVideoFrameIsChargedButNotSent) {
  // Two on-screen frames before the loop runs: at the same rect the second
  // is dropped while the first waits, at different rects both ship. The
  // dropped frame pays the same compression cost but adds no bytes.
  auto run = [](int frames, Rect second) {
    EventLoop loop;
    RdpSystem sys(&loop, LanDesktopLink(), 160, 120, SystemKind::kRdp);
    loop.Run();
    sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 32, 32}, Noise(32 * 32, 1));
    if (frames == 2) {
      sys.api()->PutImage(kScreenDrawable, second, Noise(32 * 32, 2));
    }
    loop.Run();
    return std::pair(sys.app_cpu()->total_busy(), sys.BytesToClient());
  };
  auto [one_busy, one_bytes] = run(1, Rect{});
  auto [dropped_busy, dropped_bytes] = run(2, Rect{0, 0, 32, 32});
  auto [shipped_busy, shipped_bytes] = run(2, Rect{64, 0, 32, 32});
  EXPECT_EQ(dropped_bytes, one_bytes);
  EXPECT_GT(shipped_bytes, one_bytes);
  EXPECT_EQ(dropped_busy, shipped_busy);
  EXPECT_GT(dropped_busy, one_busy);
}

TEST(RdpSystemTest, RejectedVideoFrameIsNotTreatedAsCached) {
  // Frame B is dropped behind frame A at the same rect; when B's pixels
  // come back, the client has never seen them, so they must ship in full
  // rather than as a bitmap-cache reference.
  EventLoop loop;
  RdpSystem sys(&loop, LanDesktopLink(), 160, 120, SystemKind::kRdp);
  WindowServer reference(160, 120, nullptr, nullptr);
  loop.Run();
  const Rect rect{8, 8, 32, 32};
  const std::vector<Pixel> a = Noise(32 * 32, 3);
  const std::vector<Pixel> b = Noise(32 * 32, 4);
  for (const std::vector<Pixel>* px : {&a, &b}) {
    sys.api()->PutImage(kScreenDrawable, rect, *px);
    reference.PutImage(kScreenDrawable, rect, *px);
  }
  loop.Run();
  sys.api()->PutImage(kScreenDrawable, rect, b);
  reference.PutImage(kScreenDrawable, rect, b);
  loop.Run();
  int64_t diff = 0;
  EXPECT_TRUE(reference.screen().Equals(*sys.ClientFramebuffer(), &diff))
      << diff << " pixels differ";
}

TEST(RdpSystemTest, IcaClientResizeCostsClientCpuNotBandwidth) {
  // Section 8.3: ICA's client-only resize gives "no improvement in
  // bandwidth consumption" and "noticeably increases latency" — the full
  // data crosses either way, and the slow client pays the resample.
  auto run = [](SystemKind kind) {
    EventLoop loop;
    RdpSystem sys(&loop, Pda80211gLink(), 128, 128, kind);
    sys.SetViewport(32, 32);
    loop.Run();
    Prng rng(8);
    std::vector<Pixel> noise(128 * 128);
    for (Pixel& p : noise) {
      p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    }
    DrawableId pm = sys.api()->CreatePixmap(128, 128);
    sys.api()->PutImage(pm, Rect{0, 0, 128, 128}, noise);
    sys.api()->CopyArea(pm, kScreenDrawable, Rect{0, 0, 128, 128}, Point{0, 0});
    loop.Run();
    return std::pair<int64_t, SimTime>(sys.BytesToClient(),
                                       sys.ClientLastProcessedAt());
  };
  auto [ica_bytes, ica_done] = run(SystemKind::kIca);
  auto [rdp_bytes, rdp_done] = run(SystemKind::kRdp);
  EXPECT_EQ(ica_bytes, rdp_bytes);          // no bandwidth improvement
  EXPECT_GT(ica_done, rdp_done + 500);      // client resample overhead
}

TEST(LocalPcTest, RendersLocallyWithoutDisplayTraffic) {
  EventLoop loop;
  LocalPcSystem sys(&loop, LanDesktopLink(), 128, 128);
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 128, 128}, kWhite);
  sys.api()->DrawText(kScreenDrawable, Point{10, 10}, "LOCAL", kBlack);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), 0);  // no display protocol at all
  EXPECT_EQ(sys.ClientFramebuffer()->At(64, 64), kWhite);
}

TEST(LocalPcTest, FetchContentCrossesNetwork) {
  EventLoop loop;
  LocalPcSystem sys(&loop, LanDesktopLink(), 64, 64);
  sys.FetchContent(100'000);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), 100'000);
}

TEST(LocalPcTest, ClickIsImmediate) {
  EventLoop loop;
  LocalPcSystem sys(&loop, LanDesktopLink(), 64, 64);
  bool clicked = false;
  sys.SetInputCallback([&](Point) { clicked = true; });
  sys.ClientClick(Point{1, 1});
  EXPECT_TRUE(clicked);  // same machine: no network hop
}

// --- Saturation pins -----------------------------------------------------------
//
// Baseline server hosts are single-core. Under a 1-second backlog the
// compressor cannot take a video frame within 100 ms, so the frame is
// dropped (X) or the video fallback store is skipped (RDP, Sun Ray).

TEST(MultiCorePinTest, XSystemSingleCoreStillDropsVideoWhenSaturated) {
  EventLoop loop;
  XSystem sys(&loop, LanDesktopLink(), 160, 120, SystemKind::kX);
  sys.app_cpu()->Charge(2e6);  // 1 s of backlog at 2.0x speed
  int32_t stream = sys.api()->VideoStreamCreate(64, 48, Rect{0, 0, 64, 48});
  Yv12Frame frame = Yv12Frame::Allocate(64, 48);
  sys.api()->VideoFrame(stream, frame);
  loop.Run();
  EXPECT_EQ(sys.VideoFrameTimes().size(), 0u) << "saturated core must drop";
}

TEST(MultiCorePinTest, RdpSingleCoreSkipsVideoFallbackWhenSaturated) {
  EventLoop loop;
  RdpSystem sys(&loop, LanDesktopLink(), 160, 120, SystemKind::kRdp);
  loop.Run();
  const int64_t before = sys.BytesToClient();
  sys.app_cpu()->Charge(2e6);
  std::vector<Pixel> px(32 * 32, MakePixel(10, 20, 30));
  sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 32, 32}, px);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), before) << "saturated core must skip";
}

TEST(MultiCorePinTest, SunRaySingleCoreSkipsVideoFallbackWhenSaturated) {
  EventLoop loop;
  SunRaySystem sys(&loop, LanDesktopLink(), 160, 120);
  loop.Run();
  const int64_t before = sys.BytesToClient();
  sys.app_cpu()->Charge(2e6);
  std::vector<Pixel> px(32 * 32, MakePixel(10, 20, 30));
  sys.api()->PutImage(kScreenDrawable, Rect{0, 0, 32, 32}, px);
  loop.Run();
  EXPECT_EQ(sys.BytesToClient(), before) << "saturated core must skip";
}

TEST(LocalPcTest, VideoPlaysAtFullQualityLocally) {
  EventLoop loop;
  LocalPcSystem sys(&loop, LanDesktopLink(), 128, 96);
  int32_t stream = sys.api()->VideoStreamCreate(64, 48, Rect{0, 0, 128, 96});
  Yv12Frame frame = Yv12Frame::Allocate(64, 48);
  for (int i = 0; i < 10; ++i) {
    sys.api()->VideoFrame(stream, frame);
  }
  sys.api()->VideoStreamDestroy(stream);
  loop.Run();
  EXPECT_EQ(sys.VideoFrameTimes().size(), 10u);
  EXPECT_EQ(sys.BytesToClient(), 0);
}

}  // namespace
}  // namespace thinc
