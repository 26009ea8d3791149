#include <gtest/gtest.h>

#include "src/display/window_server.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

TEST(WebWorkloadTest, Has54Pages) {
  WebWorkload wl(1024, 768);
  EXPECT_EQ(wl.page_count(), 54);
}

TEST(WebWorkloadTest, DeterministicAcrossInstances) {
  WebWorkload a(1024, 768);
  WebWorkload b(1024, 768);
  for (int32_t i = 0; i < a.page_count(); ++i) {
    EXPECT_EQ(a.page(i).content_bytes, b.page(i).content_bytes);
    EXPECT_EQ(a.page(i).images.size(), b.page(i).images.size());
    EXPECT_EQ(a.LinkPosition(i), b.LinkPosition(i));
  }
}

TEST(WebWorkloadTest, SeedChangesContent) {
  WebWorkload a(1024, 768, 1);
  WebWorkload b(1024, 768, 2);
  int differing = 0;
  for (int32_t i = 0; i < a.page_count(); ++i) {
    if (a.page(i).content_bytes != b.page(i).content_bytes) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 20);
}

TEST(WebWorkloadTest, IncludesBigImagePages) {
  WebWorkload wl(1024, 768);
  int big = 0;
  for (int32_t i = 0; i < wl.page_count(); ++i) {
    if (wl.page(i).big_image_page) {
      ++big;
      EXPECT_EQ(wl.page(i).images.size(), 1u);
      EXPECT_TRUE(wl.page(i).text.empty());
      EXPECT_GT(wl.page(i).images[0].rect.area(), 300'000);
    }
  }
  // "Pages that primarily consisted of a single large image" exist (the
  // pages where the paper says THINC fell back to RAW).
  EXPECT_GE(big, 6);
  EXPECT_LE(big, 10);
}

TEST(WebWorkloadTest, MixedPagesHaveTextAndImages) {
  WebWorkload wl(1024, 768);
  for (int32_t i = 0; i < wl.page_count(); ++i) {
    const WebPageSpec& p = wl.page(i);
    if (!p.big_image_page) {
      EXPECT_FALSE(p.text.empty()) << "page " << i;
      EXPECT_FALSE(p.images.empty()) << "page " << i;
    }
    EXPECT_GT(p.content_bytes, 10'000);
    EXPECT_GT(p.layout_cost_us, 0);
  }
}

TEST(WebWorkloadTest, ImageContentDeterministicAndVaried) {
  std::vector<Pixel> a = WebWorkload::ImageContent(3, 1, 40, 30);
  std::vector<Pixel> b = WebWorkload::ImageContent(3, 1, 40, 30);
  std::vector<Pixel> c = WebWorkload::ImageContent(3, 2, 40, 30);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(WebWorkloadTest, ImageContentMatchesGoldenHash) {
  // FNV-1a over every pixel of several pages' images at sizes that are and
  // are not multiples of the 4x4 noise block, including one-pixel ramps.
  // Pinned so a faster generator must reproduce every pixel.
  const int32_t sizes[][2] = {{1, 1}, {3, 2}, {7, 5}, {80, 60}, {319, 219}};
  uint64_t h = 0xCBF29CE484222325ULL;
  for (int32_t page : {0, 1, 3, 17, 53}) {
    for (int32_t image = 0; image < 4; ++image) {
      for (const auto& size : sizes) {
        for (Pixel p : WebWorkload::ImageContent(page, image, size[0], size[1])) {
          h ^= p;
          h *= 0x100000001B3ULL;
        }
      }
    }
  }
  EXPECT_EQ(h, 0xEF7FC88482FBDADFULL);
}

TEST(WebWorkloadTest, TextLineRespectsLength) {
  std::string line = WebWorkload::TextLine(0, 0, 0, 72);
  EXPECT_EQ(line.size(), 72u);
  EXPECT_EQ(line, WebWorkload::TextLine(0, 0, 0, 72));
  EXPECT_NE(line, WebWorkload::TextLine(0, 0, 1, 72));
}

TEST(WebWorkloadTest, RenderPageLeavesNoPixmapLeaks) {
  WindowServer ws(1024, 768, nullptr, nullptr);
  WebWorkload wl(1024, 768);
  for (int32_t i = 0; i < 6; ++i) {
    wl.RenderPage(&ws, i, nullptr);
    EXPECT_EQ(ws.pixmap_count(), 0u) << "page " << i;
  }
}

TEST(WebWorkloadTest, RenderPageChangesScreen) {
  WindowServer ws(1024, 768, nullptr, nullptr);
  WebWorkload wl(1024, 768);
  uint64_t empty_hash = ws.screen().ContentHash();
  wl.RenderPage(&ws, 0, nullptr);
  uint64_t after0 = ws.screen().ContentHash();
  EXPECT_NE(after0, empty_hash);
  wl.RenderPage(&ws, 1, nullptr);
  EXPECT_NE(ws.screen().ContentHash(), after0);
}

TEST(WebWorkloadTest, RenderIsDeterministic) {
  WindowServer a(1024, 768, nullptr, nullptr);
  WindowServer b(1024, 768, nullptr, nullptr);
  WebWorkload wl(1024, 768);
  wl.RenderPage(&a, 5, nullptr);
  wl.RenderPage(&b, 5, nullptr);
  EXPECT_EQ(a.screen().ContentHash(), b.screen().ContentHash());
}

TEST(WebWorkloadTest, LayoutCostChargedToAppCpu) {
  EventLoop loop;
  CpuAccount cpu(&loop, 1.0);
  WindowServer ws(1024, 768, nullptr, nullptr);
  WebWorkload wl(1024, 768);
  wl.RenderPage(&ws, 0, &cpu);
  EXPECT_GE(cpu.total_busy(),
            static_cast<SimTime>(wl.page(0).layout_cost_us * 0.99));
}

TEST(VideoSourceTest, FrameCountMatchesDurationAndFps) {
  EventLoop loop;
  WindowServer ws(640, 480, nullptr, nullptr);
  VideoSourceOptions vo;
  vo.duration = 2 * kSecond;
  vo.fps = 24;
  vo.dst = Rect{0, 0, 640, 480};
  VideoSource src(&loop, &ws, nullptr, vo);
  EXPECT_EQ(src.total_frames(), 48);
  src.Start();
  loop.Run();
  EXPECT_EQ(src.frames_emitted(), 48);
  // Real-time pacing: last frame at ~2 s.
  EXPECT_NEAR(static_cast<double>(loop.now()), 2.0 * kSecond,
              static_cast<double>(src.frame_interval()) + 1);
}

TEST(VideoSourceTest, PaperClipGeometry) {
  EventLoop loop;
  WindowServer ws(1024, 768, nullptr, nullptr);
  VideoSourceOptions vo;  // defaults are the paper's clip
  vo.dst = Rect{0, 0, 1024, 768};
  VideoSource src(&loop, &ws, nullptr, vo);
  EXPECT_EQ(vo.width, 352);
  EXPECT_EQ(vo.height, 240);
  EXPECT_EQ(src.total_frames(), 834);  // 34.75 s x 24 fps
}

TEST(VideoSourceTest, FramesDifferOverTime) {
  Yv12Frame a = VideoSource::FrameContent(0, 64, 48);
  Yv12Frame b = VideoSource::FrameContent(1, 64, 48);
  EXPECT_NE(a.y, b.y);
  EXPECT_EQ(a.y, VideoSource::FrameContent(0, 64, 48).y);  // deterministic
}

TEST(VideoSourceTest, CompletionCallbackFires) {
  EventLoop loop;
  WindowServer ws(64, 64, nullptr, nullptr);
  VideoSourceOptions vo;
  vo.duration = kSecond / 2;
  vo.dst = Rect{0, 0, 64, 64};
  VideoSource src(&loop, &ws, nullptr, vo);
  bool done = false;
  src.Start([&] { done = true; });
  loop.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace thinc
