#include "src/protocol/wire.h"

#include <gtest/gtest.h>

#include "src/util/prng.h"

namespace thinc {
namespace {

TEST(WireWriterTest, LittleEndianLayout) {
  WireWriter w;
  w.U8(0x11);
  w.U16(0x2233);
  w.U32(0x44556677);
  const std::vector<uint8_t>& d = w.data();
  ASSERT_EQ(d.size(), 7u);
  EXPECT_EQ(d[0], 0x11);
  EXPECT_EQ(d[1], 0x33);
  EXPECT_EQ(d[2], 0x22);
  EXPECT_EQ(d[3], 0x77);
  EXPECT_EQ(d[6], 0x44);
}

TEST(WireRoundTrip, Scalars) {
  WireWriter w;
  w.U8(200);
  w.U16(60000);
  w.U32(0xDEADBEEF);
  w.I32(-12345);
  w.I64(-9'000'000'000LL);
  WireReader r(w.data());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  int32_t i32;
  int64_t i64;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U16(&u16));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.I32(&i32));
  ASSERT_TRUE(r.I64(&i64));
  EXPECT_EQ(u8, 200);
  EXPECT_EQ(u16, 60000);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(i32, -12345);
  EXPECT_EQ(i64, -9'000'000'000LL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireRoundTrip, RectAndPoint) {
  WireWriter w;
  w.RectVal(Rect{-5, 10, 300, 400});
  w.PointVal(Point{-1, -2});
  WireReader r(w.data());
  Rect rect;
  Point point;
  ASSERT_TRUE(r.RectVal(&rect));
  ASSERT_TRUE(r.PointVal(&point));
  EXPECT_EQ(rect, (Rect{-5, 10, 300, 400}));
  EXPECT_EQ(point, (Point{-1, -2}));
}

TEST(WireRoundTrip, Region) {
  Region region = Region(Rect{0, 0, 10, 10}).Union(Rect{20, 20, 5, 5});
  WireWriter w;
  w.RegionVal(region);
  WireReader r(w.data());
  Region out;
  ASSERT_TRUE(r.RegionVal(&out));
  EXPECT_EQ(out, region);
}

TEST(WireRoundTrip, EmptyRegion) {
  WireWriter w;
  w.RegionVal(Region());
  WireReader r(w.data());
  Region out;
  ASSERT_TRUE(r.RegionVal(&out));
  EXPECT_TRUE(out.empty());
}

TEST(WireRoundTrip, BitmapPreservesBits) {
  Bitmap b(13, 7);
  b.Set(0, 0, true);
  b.Set(12, 6, true);
  b.Set(5, 3, true);
  WireWriter w;
  w.BitmapVal(b);
  WireReader r(w.data());
  Bitmap out;
  ASSERT_TRUE(r.BitmapVal(&out));
  EXPECT_EQ(out, b);
}

TEST(WireReaderTest, ReadPastEndFails) {
  WireWriter w;
  w.U16(7);
  WireReader r(w.data());
  uint32_t v;
  EXPECT_FALSE(r.U32(&v));
}

TEST(WireReaderTest, BytesBoundsChecked) {
  std::vector<uint8_t> data = {1, 2, 3};
  WireReader r(data);
  std::vector<uint8_t> out;
  EXPECT_FALSE(r.Bytes(4, &out));
  EXPECT_TRUE(r.Bytes(3, &out));
  EXPECT_EQ(out, data);
}

TEST(WireReaderTest, HugeRegionCountRejected) {
  WireWriter w;
  w.U32(0xFFFFFFFF);
  WireReader r(w.data());
  Region region;
  EXPECT_FALSE(r.RegionVal(&region));
}

TEST(WireReaderTest, NegativeRectInRegionRejected) {
  WireWriter w;
  w.U32(1);
  w.RectVal(Rect{0, 0, -5, 10});
  WireReader r(w.data());
  Region region;
  EXPECT_FALSE(r.RegionVal(&region));
}

TEST(WireReaderTest, HugeBitmapRejected) {
  WireWriter w;
  w.I32(100000);
  w.I32(100000);
  WireReader r(w.data());
  Bitmap b;
  EXPECT_FALSE(r.BitmapVal(&b));
}

TEST(FrameTest, BuildFrameLayout) {
  std::vector<uint8_t> payload = {0xAA, 0xBB};
  std::vector<uint8_t> frame = BuildFrame(MsgType::kSfill, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 2);
  EXPECT_EQ(frame[0], static_cast<uint8_t>(MsgType::kSfill));
  EXPECT_EQ(frame[1], 2);  // length LE
  EXPECT_EQ(frame[5], 0xAA);
}

TEST(FrameParserTest, ParsesWholeFrame) {
  FrameParser p;
  p.Feed(BuildFrame(MsgType::kCopy, std::vector<uint8_t>{1, 2, 3}));
  auto frame = p.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MsgType::kCopy));
  EXPECT_EQ(frame->payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_FALSE(p.Next().has_value());
}

TEST(FrameParserTest, ReassemblesByteByByte) {
  FrameParser p;
  std::vector<uint8_t> frame = BuildFrame(MsgType::kRaw, std::vector<uint8_t>(100, 7));
  for (uint8_t b : frame) {
    EXPECT_FALSE(p.Next().has_value());
    p.Feed(std::span<const uint8_t>(&b, 1));
  }
  auto out = p.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload.size(), 100u);
}

TEST(FrameParserTest, MultipleFramesInOneChunk) {
  FrameParser p;
  std::vector<uint8_t> bytes = BuildFrame(MsgType::kSfill, std::vector<uint8_t>{1});
  std::vector<uint8_t> second = BuildFrame(MsgType::kPfill, std::vector<uint8_t>{2, 3});
  bytes.insert(bytes.end(), second.begin(), second.end());
  p.Feed(bytes);
  auto f1 = p.Next();
  auto f2 = p.Next();
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f1->type, static_cast<uint8_t>(MsgType::kSfill));
  EXPECT_EQ(f2->type, static_cast<uint8_t>(MsgType::kPfill));
  EXPECT_FALSE(p.Next().has_value());
}

TEST(FrameParserTest, EmptyPayloadFrame) {
  FrameParser p;
  p.Feed(BuildFrame(MsgType::kUpdateRequest, {}));
  auto frame = p.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameParserTest, BufferedBytesTracked) {
  FrameParser p;
  p.Feed(std::vector<uint8_t>{1, 2, 3});
  EXPECT_EQ(p.buffered_bytes(), 3u);
}

// Fuzz: the reader must never crash or loop on arbitrary bytes.
class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzTest, ReaderSurvivesGarbage) {
  Prng rng(GetParam());
  std::vector<uint8_t> garbage(rng.NextInRange(0, 300));
  for (uint8_t& b : garbage) {
    b = static_cast<uint8_t>(rng.Next());
  }
  WireReader r(garbage);
  Region region;
  Bitmap bitmap;
  Rect rect;
  // Any parse result is fine; the properties are no crash or UB, and a
  // reader that never moves past its end, so what remains reads cleanly.
  (void)r.RegionVal(&region);
  (void)r.BitmapVal(&bitmap);
  (void)r.RectVal(&rect);
  std::vector<uint8_t> rest;
  EXPECT_TRUE(r.Bytes(r.remaining(), &rest));
  EXPECT_TRUE(r.AtEnd());
}

TEST_P(WireFuzzTest, FrameParserSurvivesGarbage) {
  Prng rng(GetParam() ^ 0x5A5A);
  FrameParser p;
  for (int round = 0; round < 10; ++round) {
    std::vector<uint8_t> garbage(rng.NextInRange(1, 64));
    for (uint8_t& b : garbage) {
      b = static_cast<uint8_t>(rng.Next());
    }
    p.Feed(garbage);
    // Drain whatever frames the garbage happens to form.
    int guard = 0;
    while (p.Next().has_value() && ++guard < 1000) {
    }
    ASSERT_LT(guard, 1000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace thinc
