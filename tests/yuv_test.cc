#include "src/raster/yuv.h"

#include <gtest/gtest.h>

#include "src/util/prng.h"

namespace thinc {
namespace {

TEST(YuvTest, FrameAllocationSizes) {
  Yv12Frame f = Yv12Frame::Allocate(352, 240);
  EXPECT_EQ(f.width, 352);
  EXPECT_EQ(f.height, 240);
  EXPECT_EQ(f.y.size(), 352u * 240u);
  EXPECT_EQ(f.u.size(), 176u * 120u);
  EXPECT_EQ(f.v.size(), 176u * 120u);
  // The famous 1.5 bytes per pixel.
  EXPECT_EQ(f.byte_size(), 352u * 240u * 3 / 2);
}

TEST(YuvTest, OddDimensionsRoundUp) {
  Yv12Frame f = Yv12Frame::Allocate(3, 5);
  EXPECT_EQ(f.width, 4);
  EXPECT_EQ(f.height, 6);
}

TEST(YuvTest, PackUnpackRoundTrip) {
  Yv12Frame f = Yv12Frame::Allocate(16, 8);
  Prng rng(5);
  for (uint8_t& b : f.y) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (uint8_t& b : f.u) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (uint8_t& b : f.v) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> packed = f.Pack();
  EXPECT_EQ(packed.size(), f.byte_size());
  Yv12Frame g = Yv12Frame::Unpack(16, 8, packed);
  EXPECT_EQ(g.y, f.y);
  EXPECT_EQ(g.u, f.u);
  EXPECT_EQ(g.v, f.v);
}

TEST(YuvTest, GrayRoundTripsAccurately) {
  // Gray has zero chroma; conversion error should be tiny.
  for (int v = 0; v <= 255; v += 15) {
    Surface s(2, 2, MakePixel(static_cast<uint8_t>(v), static_cast<uint8_t>(v),
                              static_cast<uint8_t>(v)));
    Surface back = Yv12ToRgb(RgbToYv12(s));
    Pixel p = back.At(0, 0);
    EXPECT_NEAR(PixelR(p), v, 4) << "gray " << v;
    EXPECT_NEAR(PixelG(p), v, 4);
    EXPECT_NEAR(PixelB(p), v, 4);
  }
}

TEST(YuvTest, PrimaryColorsRoundTripRoughly) {
  // 4:2:0 subsampling + integer math: expect moderate but bounded error on
  // saturated colors in solid regions (no chroma bleed).
  for (Pixel c : {MakePixel(255, 0, 0), MakePixel(0, 255, 0), MakePixel(0, 0, 255),
                  MakePixel(255, 255, 0)}) {
    Surface s(4, 4, c);
    Surface back = Yv12ToRgb(RgbToYv12(s));
    Pixel p = back.At(1, 1);
    EXPECT_NEAR(PixelR(p), PixelR(c), 24);
    EXPECT_NEAR(PixelG(p), PixelG(c), 24);
    EXPECT_NEAR(PixelB(p), PixelB(c), 24);
  }
}

TEST(YuvTest, ScaleToRgbSize) {
  Yv12Frame f = Yv12Frame::Allocate(352, 240);
  Surface out = Yv12ScaleToRgb(f, 1024, 768);
  EXPECT_EQ(out.width(), 1024);
  EXPECT_EQ(out.height(), 768);
}

TEST(YuvTest, ScaleConstantFrameStaysConstant) {
  Surface s(32, 32, MakePixel(100, 150, 200));
  Yv12Frame f = RgbToYv12(s);
  Surface big = Yv12ScaleToRgb(f, 128, 96);
  Pixel corner = big.At(0, 0);
  Pixel center = big.At(64, 48);
  EXPECT_EQ(corner, center);
}

TEST(YuvTest, ScaleIntoMatchesClippedScaledImage) {
  Yv12Frame f = Yv12Frame::Allocate(44, 30);
  Prng rng(3);
  for (std::vector<uint8_t>* plane : {&f.y, &f.u, &f.v}) {
    for (uint8_t& b : *plane) {
      b = static_cast<uint8_t>(rng.Next());
    }
  }
  for (Rect dst : {Rect{0, 0, 64, 48}, Rect{20, 10, 64, 48}, Rect{-13, -7, 64, 48},
                   Rect{-5, 3, 17, 90}, Rect{70, 0, 10, 10}}) {
    Surface expected(64, 48, kWhite);
    expected.PutPixels(dst, Yv12ScaleToRgb(f, dst.width, dst.height).pixels());
    Surface actual(64, 48, kWhite);
    Yv12ScaleInto(f, dst, &actual);
    EXPECT_TRUE(actual.Equals(expected)) << dst.ToString();
  }
}

TEST(YuvTest, DownscaleHalvesPlanes) {
  Yv12Frame f = Yv12Frame::Allocate(64, 48);
  Yv12Frame d = Yv12Downscale(f, 32, 24);
  EXPECT_EQ(d.width, 32);
  EXPECT_EQ(d.height, 24);
  EXPECT_EQ(d.byte_size(), 32u * 24u * 3 / 2);
}

TEST(YuvTest, DownscaleAveragesLuma) {
  Yv12Frame f = Yv12Frame::Allocate(4, 2);
  // Left half 0, right half 200.
  for (int32_t y = 0; y < 2; ++y) {
    f.y[static_cast<size_t>(y) * 4 + 0] = 0;
    f.y[static_cast<size_t>(y) * 4 + 1] = 0;
    f.y[static_cast<size_t>(y) * 4 + 2] = 200;
    f.y[static_cast<size_t>(y) * 4 + 3] = 200;
  }
  Yv12Frame d = Yv12Downscale(f, 2, 2);
  EXPECT_EQ(d.y[0], 0);
  EXPECT_EQ(d.y[1], 200);
}

TEST(YuvTest, DownscaleBandwidthMatchesPaperPdaNumbers) {
  // 352x240 YV12 at 24 fps is ~24 Mbps (the paper's desktop number); scaled
  // by the PDA factor (320/1024) it drops to a few Mbps (paper: 3.5 Mbps).
  Yv12Frame f = Yv12Frame::Allocate(352, 240);
  double desktop_mbps = static_cast<double>(f.byte_size()) * 8 * 24 / 1e6;
  EXPECT_NEAR(desktop_mbps, 24.3, 0.5);
  Yv12Frame pda = Yv12Downscale(f, 352 * 320 / 1024, 240 * 320 / 1024);
  double pda_mbps = static_cast<double>(pda.byte_size()) * 8 * 24 / 1e6;
  EXPECT_LT(pda_mbps, 4.0);
  EXPECT_GT(pda_mbps, 1.0);
}

}  // namespace
}  // namespace thinc
