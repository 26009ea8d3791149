#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/codec/hextile.h"
#include "src/codec/lzss.h"
#include "src/codec/palette.h"
#include "src/codec/pnglike.h"
#include "src/codec/rc4.h"
#include "src/codec/rle.h"
#include "src/codec/rle32.h"
#include "src/util/prng.h"

namespace thinc {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string Hex(std::span<const uint8_t> data) {
  static const char* kDigits = "0123456789ABCDEF";
  std::string out;
  for (uint8_t b : data) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// --- RC4 ----------------------------------------------------------------------

// Published RC4 test vectors (key / plaintext / ciphertext).
TEST(Rc4Test, VectorKey) {
  std::vector<uint8_t> key = Bytes("Key");
  Rc4Cipher c(key);
  std::vector<uint8_t> out = c.Process(Bytes("Plaintext"));
  EXPECT_EQ(Hex(out), "BBF316E8D940AF0AD3");
}

TEST(Rc4Test, VectorWiki) {
  std::vector<uint8_t> key = Bytes("Wiki");
  Rc4Cipher c(key);
  std::vector<uint8_t> out = c.Process(Bytes("pedia"));
  EXPECT_EQ(Hex(out), "1021BF0420");
}

TEST(Rc4Test, VectorSecret) {
  std::vector<uint8_t> key = Bytes("Secret");
  Rc4Cipher c(key);
  std::vector<uint8_t> out = c.Process(Bytes("Attack at dawn"));
  EXPECT_EQ(Hex(out), "45A01F645FC35B383552544B9BF5");
}

TEST(Rc4Test, EncryptDecryptRoundTrip) {
  std::vector<uint8_t> key = Bytes("0123456789abcdef");  // 128-bit
  Rc4Cipher enc(key);
  Rc4Cipher dec(key);
  Prng rng(44);
  std::vector<uint8_t> msg(5000);
  for (uint8_t& b : msg) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> cipher = enc.Process(msg);
  EXPECT_NE(cipher, msg);
  EXPECT_EQ(dec.Process(cipher), msg);
}

TEST(Rc4Test, StreamStateContinuesAcrossCalls) {
  std::vector<uint8_t> key = Bytes("Key");
  Rc4Cipher whole(key);
  Rc4Cipher split(key);
  std::vector<uint8_t> msg = Bytes("Plaintext");
  std::vector<uint8_t> expect = whole.Process(msg);
  std::vector<uint8_t> head = split.Process(std::span<const uint8_t>(msg).subspan(0, 4));
  std::vector<uint8_t> tail = split.Process(std::span<const uint8_t>(msg).subspan(4));
  head.insert(head.end(), tail.begin(), tail.end());
  EXPECT_EQ(head, expect);
}

TEST(Rc4Test, DifferentKeysDifferentStreams) {
  std::vector<uint8_t> k1 = Bytes("alpha");
  std::vector<uint8_t> k2 = Bytes("beta");
  Rc4Cipher a(k1);
  Rc4Cipher b(k2);
  EXPECT_NE(a.Process(Bytes("same message")), b.Process(Bytes("same message")));
}

// --- RLE ----------------------------------------------------------------------

TEST(RleTest, EmptyInput) {
  std::vector<uint8_t> enc = RleEncode({});
  EXPECT_TRUE(enc.empty());
  std::vector<uint8_t> dec;
  EXPECT_TRUE(RleDecode(enc, &dec));
  EXPECT_TRUE(dec.empty());
}

TEST(RleTest, LongRunCompresses) {
  std::vector<uint8_t> in(1000, 0xAA);
  std::vector<uint8_t> enc = RleEncode(in);
  EXPECT_LT(enc.size(), 32u);
  std::vector<uint8_t> dec;
  ASSERT_TRUE(RleDecode(enc, &dec));
  EXPECT_EQ(dec, in);
}

TEST(RleTest, IncompressibleRoundTrips) {
  Prng rng(9);
  std::vector<uint8_t> in(777);
  for (uint8_t& b : in) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> dec;
  ASSERT_TRUE(RleDecode(RleEncode(in), &dec));
  EXPECT_EQ(dec, in);
}

TEST(RleTest, TruncatedInputFails) {
  std::vector<uint8_t> in(100, 0x55);
  std::vector<uint8_t> enc = RleEncode(in);
  enc.pop_back();
  std::vector<uint8_t> dec;
  EXPECT_FALSE(RleDecode(enc, &dec));
}

TEST(RleTest, ReservedControlByteFails) {
  std::vector<uint8_t> enc = {128, 0x00};
  std::vector<uint8_t> dec;
  EXPECT_FALSE(RleDecode(enc, &dec));
}

// --- RLE32 ---------------------------------------------------------------------

TEST(Rle32Test, FlatPixelsCompressHugely) {
  std::vector<Pixel> in(10000, MakePixel(240, 240, 240));
  std::vector<uint8_t> enc = Rle32Encode(in);
  EXPECT_LT(enc.size(), 500u);
  std::vector<Pixel> dec;
  ASSERT_TRUE(Rle32Decode(enc, &dec));
  EXPECT_EQ(dec, in);
}

TEST(Rle32Test, ByteRleCannotSeePixelRuns) {
  // The 4-byte pixel pattern defeats byte RLE but not pixel RLE — the reason
  // Sun Ray's encoder works on pixels.
  std::vector<Pixel> in(4096, MakePixel(0xF0, 0xE0, 0xD0));
  std::vector<uint8_t> as_bytes(in.size() * 4);
  std::memcpy(as_bytes.data(), in.data(), as_bytes.size());
  EXPECT_LT(Rle32Encode(in).size(), RleEncode(as_bytes).size());
}

TEST(Rle32Test, RandomPixelsRoundTrip) {
  Prng rng(10);
  std::vector<Pixel> in(513);
  for (Pixel& p : in) {
    p = static_cast<Pixel>(rng.Next());
  }
  std::vector<Pixel> dec;
  ASSERT_TRUE(Rle32Decode(Rle32Encode(in), &dec));
  EXPECT_EQ(dec, in);
}

TEST(Rle32Test, AlternatingPixelsRoundTrip) {
  std::vector<Pixel> in;
  for (int i = 0; i < 301; ++i) {
    in.push_back(i % 2 == 0 ? kBlack : kWhite);
  }
  std::vector<Pixel> dec;
  ASSERT_TRUE(Rle32Decode(Rle32Encode(in), &dec));
  EXPECT_EQ(dec, in);
}

TEST(Rle32Test, TruncatedFails) {
  std::vector<Pixel> in(50, kWhite);
  std::vector<uint8_t> enc = Rle32Encode(in);
  enc.pop_back();
  std::vector<Pixel> dec;
  EXPECT_FALSE(Rle32Decode(enc, &dec));
}

// --- LZSS ---------------------------------------------------------------------

TEST(LzssTest, EmptyInput) {
  std::vector<uint8_t> dec;
  EXPECT_TRUE(LzssDecode(LzssEncode({}), &dec));
  EXPECT_TRUE(dec.empty());
}

TEST(LzssTest, RepetitiveTextCompresses) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "the quick brown fox jumps over the lazy dog. ";
  }
  std::vector<uint8_t> in = Bytes(text);
  std::vector<uint8_t> enc = LzssEncode(in);
  EXPECT_LT(enc.size(), in.size() / 4);
  std::vector<uint8_t> dec;
  ASSERT_TRUE(LzssDecode(enc, &dec));
  EXPECT_EQ(dec, in);
}

TEST(LzssTest, RandomDataRoundTrips) {
  Prng rng(21);
  std::vector<uint8_t> in(10240);
  for (uint8_t& b : in) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> dec;
  ASSERT_TRUE(LzssDecode(LzssEncode(in), &dec));
  EXPECT_EQ(dec, in);
}

TEST(LzssTest, MatchAtWindowBoundary) {
  // Data repeating at exactly the window size exercises max-distance
  // matches.
  std::vector<uint8_t> in;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 4096; ++i) {
      in.push_back(static_cast<uint8_t>(i * 7));
    }
  }
  std::vector<uint8_t> dec;
  ASSERT_TRUE(LzssDecode(LzssEncode(in), &dec));
  EXPECT_EQ(dec, in);
}

TEST(LzssTest, OverlappingMatchDecodes) {
  // "aaaa..." forces self-referential matches (distance < length).
  std::vector<uint8_t> in(500, 'a');
  std::vector<uint8_t> dec;
  ASSERT_TRUE(LzssDecode(LzssEncode(in), &dec));
  EXPECT_EQ(dec, in);
}

TEST(LzssTest, CorruptDistanceFails) {
  // A match referencing before the start of output must be rejected.
  std::vector<uint8_t> bogus = {0x01, 0xFF, 0xFF};  // flag: match; dist huge
  std::vector<uint8_t> dec;
  EXPECT_FALSE(LzssDecode(bogus, &dec));
}

TEST(LzssTest, SingleByte) {
  std::vector<uint8_t> in = {0x7E};
  std::vector<uint8_t> dec;
  ASSERT_TRUE(LzssDecode(LzssEncode(in), &dec));
  EXPECT_EQ(dec, in);
}

// --- PNG-like -------------------------------------------------------------------

TEST(PngLikeTest, GradientCompressesWell) {
  // Smooth gradients are the filter stage's best case.
  int32_t w = 64, h = 64;
  std::vector<Pixel> in(static_cast<size_t>(w) * h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      in[static_cast<size_t>(y) * w + x] =
          MakePixel(static_cast<uint8_t>(x * 4), static_cast<uint8_t>(y * 4),
                    static_cast<uint8_t>((x + y) * 2));
    }
  }
  std::vector<uint8_t> enc = PngLikeEncode(in, w, h);
  EXPECT_LT(enc.size(), in.size() * 4 / 6);  // at least 6x
  std::vector<Pixel> dec;
  ASSERT_TRUE(PngLikeDecode(enc, w, h, &dec));
  EXPECT_EQ(dec, in);
}

TEST(PngLikeTest, FlatColorCompressesExtremely) {
  std::vector<Pixel> in(128 * 128, MakePixel(250, 250, 250));
  std::vector<uint8_t> enc = PngLikeEncode(in, 128, 128);
  EXPECT_LT(enc.size(), 2048u);
  std::vector<Pixel> dec;
  ASSERT_TRUE(PngLikeDecode(enc, 128, 128, &dec));
  EXPECT_EQ(dec, in);
}

TEST(PngLikeTest, NoisyDataRoundTrips) {
  Prng rng(31);
  int32_t w = 33, h = 17;
  std::vector<Pixel> in(static_cast<size_t>(w) * h);
  for (Pixel& p : in) {
    p = static_cast<Pixel>(rng.Next());
  }
  std::vector<Pixel> dec;
  ASSERT_TRUE(PngLikeDecode(PngLikeEncode(in, w, h), w, h, &dec));
  EXPECT_EQ(dec, in);
}

TEST(PngLikeTest, SingleRow) {
  std::vector<Pixel> in = {kBlack, kWhite, MakePixel(9, 9, 9)};
  std::vector<Pixel> dec;
  ASSERT_TRUE(PngLikeDecode(PngLikeEncode(in, 3, 1), 3, 1, &dec));
  EXPECT_EQ(dec, in);
}

TEST(PngLikeTest, SingleColumn) {
  std::vector<Pixel> in = {kBlack, kWhite, kBlack, kWhite};
  std::vector<Pixel> dec;
  ASSERT_TRUE(PngLikeDecode(PngLikeEncode(in, 1, 4), 1, 4, &dec));
  EXPECT_EQ(dec, in);
}

TEST(PngLikeTest, AlphaPreserved) {
  std::vector<Pixel> in = {MakePixel(1, 2, 3, 4), MakePixel(5, 6, 7, 200)};
  std::vector<Pixel> dec;
  ASSERT_TRUE(PngLikeDecode(PngLikeEncode(in, 2, 1), 2, 1, &dec));
  EXPECT_EQ(dec, in);
}

TEST(PngLikeTest, GeometryMismatchFails) {
  std::vector<Pixel> in(16, kWhite);
  std::vector<uint8_t> enc = PngLikeEncode(in, 4, 4);
  std::vector<Pixel> dec;
  EXPECT_FALSE(PngLikeDecode(enc, 8, 8, &dec));
}

TEST(PngLikeTest, CorruptStreamFails) {
  std::vector<uint8_t> garbage = {0x12, 0x34, 0x56};
  std::vector<Pixel> dec;
  EXPECT_FALSE(PngLikeDecode(garbage, 4, 4, &dec));
}

// --- Hextile ---------------------------------------------------------------------

TEST(HextileTest, SolidImage) {
  std::vector<Pixel> in(64 * 48, MakePixel(100, 100, 200));
  std::vector<uint8_t> enc = HextileEncode(in, 64, 48);
  // 12 tiles, each a 5-byte solid record.
  EXPECT_LT(enc.size(), 100u);
  std::vector<Pixel> dec;
  ASSERT_TRUE(HextileDecode(enc, 64, 48, &dec));
  EXPECT_EQ(dec, in);
}

TEST(HextileTest, FewColorsUsesSubrects) {
  int32_t w = 32, h = 32;
  std::vector<Pixel> in(static_cast<size_t>(w) * h, kWhite);
  for (int32_t y = 8; y < 12; ++y) {
    for (int32_t x = 4; x < 20; ++x) {
      in[static_cast<size_t>(y) * w + x] = kBlack;
    }
  }
  std::vector<uint8_t> enc = HextileEncode(in, w, h);
  EXPECT_LT(enc.size(), static_cast<size_t>(w) * h);  // far below raw
  std::vector<Pixel> dec;
  ASSERT_TRUE(HextileDecode(enc, w, h, &dec));
  EXPECT_EQ(dec, in);
}

TEST(HextileTest, NoisyImageFallsBackToRaw) {
  Prng rng(55);
  int32_t w = 48, h = 48;
  std::vector<Pixel> in(static_cast<size_t>(w) * h);
  for (Pixel& p : in) {
    p = static_cast<Pixel>(rng.Next());
  }
  std::vector<uint8_t> enc = HextileEncode(in, w, h);
  EXPECT_GT(enc.size(), static_cast<size_t>(w) * h * 3);  // near raw size
  std::vector<Pixel> dec;
  ASSERT_TRUE(HextileDecode(enc, w, h, &dec));
  EXPECT_EQ(dec, in);
}

TEST(HextileTest, NonTileAlignedDimensions) {
  Prng rng(56);
  int32_t w = 37, h = 21;  // not multiples of 16
  std::vector<Pixel> in(static_cast<size_t>(w) * h);
  for (Pixel& p : in) {
    p = rng.NextBool() ? kWhite : kBlack;
  }
  std::vector<Pixel> dec;
  ASSERT_TRUE(HextileDecode(HextileEncode(in, w, h), w, h, &dec));
  EXPECT_EQ(dec, in);
}

TEST(HextileTest, TruncatedFails) {
  std::vector<Pixel> in(32 * 32, kWhite);
  std::vector<uint8_t> enc = HextileEncode(in, 32, 32);
  enc.resize(enc.size() / 2);
  std::vector<Pixel> dec;
  EXPECT_FALSE(HextileDecode(enc, 32, 32, &dec));
}

// --- Palette ----------------------------------------------------------------------

TEST(PaletteTest, QuantizeQuartersData) {
  std::vector<Pixel> in(100, MakePixel(10, 20, 30));
  std::vector<uint8_t> q = PaletteQuantize(in);
  EXPECT_EQ(q.size(), 100u);
}

TEST(PaletteTest, ExpandRestoresApproximately) {
  Prng rng(77);
  std::vector<Pixel> in(500);
  for (Pixel& p : in) {
    p = MakePixel(static_cast<uint8_t>(rng.Next()), static_cast<uint8_t>(rng.Next()),
                  static_cast<uint8_t>(rng.Next()));
  }
  std::vector<Pixel> out = PaletteExpand(PaletteQuantize(in));
  EXPECT_LE(MaxChannelError(in, out), 84);  // 2-bit blue channel bound
}

TEST(PaletteTest, PureColorsStable) {
  // Colors already on the 3-3-2 lattice survive a double round trip.
  std::vector<Pixel> in = PaletteExpand(
      PaletteQuantize(std::vector<Pixel>{kWhite, kBlack, MakePixel(255, 0, 0)}));
  std::vector<Pixel> twice = PaletteExpand(PaletteQuantize(in));
  EXPECT_EQ(in, twice);
}

// --- Cross-codec property sweep ---------------------------------------------------

struct CodecCase {
  uint64_t seed;
  int32_t width;
  int32_t height;
};

class PixelCodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(PixelCodecRoundTrip, AllPixelCodecsRoundTrip) {
  const CodecCase& c = GetParam();
  Prng rng(c.seed);
  std::vector<Pixel> in(static_cast<size_t>(c.width) * c.height);
  // Mixed content: flat areas, gradients, noise — screen-like.
  for (int32_t y = 0; y < c.height; ++y) {
    for (int32_t x = 0; x < c.width; ++x) {
      Pixel p;
      if (y < c.height / 3) {
        p = MakePixel(230, 230, 240);
      } else if (y < 2 * c.height / 3) {
        p = MakePixel(static_cast<uint8_t>(x * 3), 100, static_cast<uint8_t>(y * 2));
      } else {
        p = static_cast<Pixel>(rng.Next());
      }
      in[static_cast<size_t>(y) * c.width + x] = p;
    }
  }
  std::vector<Pixel> dec;
  ASSERT_TRUE(PngLikeDecode(PngLikeEncode(in, c.width, c.height), c.width, c.height,
                            &dec));
  EXPECT_EQ(dec, in);
  ASSERT_TRUE(HextileDecode(HextileEncode(in, c.width, c.height), c.width, c.height,
                            &dec));
  EXPECT_EQ(dec, in);
  ASSERT_TRUE(Rle32Decode(Rle32Encode(in), &dec));
  EXPECT_EQ(dec, in);
  std::vector<uint8_t> bytes(in.size() * 4);
  std::memcpy(bytes.data(), in.data(), bytes.size());
  std::vector<uint8_t> bdec;
  ASSERT_TRUE(LzssDecode(LzssEncode(bytes), &bdec));
  EXPECT_EQ(bdec, bytes);
  ASSERT_TRUE(RleDecode(RleEncode(bytes), &bdec));
  EXPECT_EQ(bdec, bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PixelCodecRoundTrip,
    ::testing::Values(CodecCase{1, 16, 16}, CodecCase{2, 17, 13},
                      CodecCase{3, 64, 32}, CodecCase{4, 1, 100},
                      CodecCase{5, 100, 1}, CodecCase{6, 31, 47},
                      CodecCase{7, 128, 3}, CodecCase{8, 5, 5}));

// --- Structured-tile property sweep -----------------------------------------

// Deterministic generators for the content classes thin-client traffic is
// made of; every intra codec must round-trip each of them bit-exactly
// (palette, the one lossy stage, is bounded instead). TileKind is 64-bit so
// StructuredCase has no padding: gtest_discover_tests names each case after
// the parameter's raw bytes, and uninitialised padding bytes made those test
// names change from build to build.
enum class TileKind : uint64_t { kText, kGradient, kScroll, kNoise };

struct StructuredCase {
  TileKind kind;
  uint64_t seed;
  int32_t width;
  int32_t height;
};

std::vector<Pixel> MakeTile(const StructuredCase& c) {
  Prng rng(c.seed);
  std::vector<Pixel> px(static_cast<size_t>(c.width) * c.height);
  for (int32_t y = 0; y < c.height; ++y) {
    for (int32_t x = 0; x < c.width; ++x) {
      Pixel p = kBlack;
      switch (c.kind) {
        case TileKind::kText:
          // Dark glyph speckle over a paper-white page.
          p = (x * 7 + y * 13 + static_cast<int32_t>(c.seed)) % 11 == 0
                  ? kBlack
                  : MakePixel(248, 248, 244);
          break;
        case TileKind::kGradient:
          p = MakePixel(static_cast<uint8_t>(x * 255 / std::max(1, c.width - 1)),
                        static_cast<uint8_t>(y * 255 / std::max(1, c.height - 1)),
                        static_cast<uint8_t>((x + y) & 0xFF));
          break;
        case TileKind::kScroll:
          // Horizontal line pattern shifted by the seed — what a scrolled
          // terminal repaint looks like to a stateless encoder.
          p = ((y + static_cast<int32_t>(c.seed) * 3) % 9 < 2)
                  ? MakePixel(30, 30, 60)
                  : MakePixel(235, 235, 235);
          break;
        case TileKind::kNoise:
          p = static_cast<Pixel>(rng.Next());
          break;
      }
      px[static_cast<size_t>(y) * c.width + x] = p;
    }
  }
  return px;
}

class StructuredCodecRoundTrip
    : public ::testing::TestWithParam<StructuredCase> {};

TEST_P(StructuredCodecRoundTrip, AllIntraCodecsRoundTrip) {
  const StructuredCase& c = GetParam();
  std::vector<Pixel> in = MakeTile(c);
  std::vector<Pixel> dec;
  ASSERT_TRUE(
      PngLikeDecode(PngLikeEncode(in, c.width, c.height), c.width, c.height, &dec));
  EXPECT_EQ(dec, in);
  ASSERT_TRUE(
      HextileDecode(HextileEncode(in, c.width, c.height), c.width, c.height, &dec));
  EXPECT_EQ(dec, in);
  ASSERT_TRUE(Rle32Decode(Rle32Encode(in), &dec));
  EXPECT_EQ(dec, in);
  std::vector<uint8_t> bytes(in.size() * 4);
  std::memcpy(bytes.data(), in.data(), bytes.size());
  std::vector<uint8_t> bdec;
  ASSERT_TRUE(LzssDecode(LzssEncode(bytes), &bdec));
  EXPECT_EQ(bdec, bytes);
  ASSERT_TRUE(RleDecode(RleEncode(bytes), &bdec));
  EXPECT_EQ(bdec, bytes);
  // Palette is quantizing: bounded per-channel error, and idempotent once
  // on the 3-3-2 lattice.
  std::vector<Pixel> approx = PaletteExpand(PaletteQuantize(in));
  ASSERT_EQ(approx.size(), in.size());
  EXPECT_LE(MaxChannelError(in, approx), 84);
  EXPECT_EQ(PaletteExpand(PaletteQuantize(approx)), approx);
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, StructuredCodecRoundTrip,
    ::testing::Values(
        StructuredCase{TileKind::kText, 1, 64, 64},
        StructuredCase{TileKind::kText, 2, 41, 23},
        StructuredCase{TileKind::kGradient, 3, 64, 64},
        StructuredCase{TileKind::kGradient, 4, 13, 57},
        StructuredCase{TileKind::kScroll, 5, 64, 64},
        StructuredCase{TileKind::kScroll, 6, 80, 17},
        StructuredCase{TileKind::kNoise, 7, 64, 64},
        StructuredCase{TileKind::kNoise, 8, 29, 31}));

}  // namespace
}  // namespace thinc
