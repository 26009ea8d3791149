// Golden gate for the frame-path kernels. Every output of LzssEncode,
// LzssDecode (on valid, truncated and bit-flipped streams), PngLikeEncode,
// HextileEncode, HextileDecode (on valid, truncated and malformed streams),
// the RC4 keystream and Yv12ScaleToRgb over a fixed seeded corpus is folded
// into an FNV-1a hash, and each hash is pinned. The pinned values were
// recorded from the plain byte-at-a-time kernels (Hextile's from its
// per-tile std::map histogram; the LZSS hashes of periodic content from an
// encoder that inserts every position into its hash chains one at a time),
// so any rewrite of those kernels must reproduce every output byte to pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "src/codec/hextile.h"
#include "src/codec/lzss.h"
#include "src/codec/pnglike.h"
#include "src/codec/rc4.h"
#include "src/display/window_server.h"
#include "src/raster/yuv.h"
#include "src/util/prng.h"
#include "src/workload/video.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

// FNV-1a over everything folded in; lengths and flags are folded as bytes
// too, so a boundary shift between two outputs changes the hash.
class Fnv {
 public:
  void Bytes(std::span<const uint8_t> data) {
    for (uint8_t b : data) {
      Byte(b);
    }
  }
  void U64(uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      Byte(static_cast<uint8_t>(v >> (8 * k)));
    }
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llXULL", static_cast<unsigned long long>(v));
  return buf;
}

#define EXPECT_GOLDEN(actual, expected) \
  EXPECT_EQ(Hex(actual), Hex(expected)) << "golden hash of " #actual

std::span<const uint8_t> AsBytes(std::span<const Pixel> px) {
  return {reinterpret_cast<const uint8_t*>(px.data()), px.size() * sizeof(Pixel)};
}

// --- Corpus ----------------------------------------------------------------------

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Prng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// Runs of one 4-byte pixel from a small palette, like flat UI content.
std::vector<uint8_t> PixelRuns(size_t n) {
  Prng rng(17);
  const Pixel palette[] = {0xFFFFFFFF, 0xFF000000, 0xFFECECF0, 0xFF3366CC,
                           0xFFCC3333, 0xFF808080, 0xFF1A1A1A, 0xFFF0E68C};
  std::vector<uint8_t> out;
  out.reserve(n + 4 * 64);
  while (out.size() < n) {
    Pixel p = palette[rng.NextBelow(8)];
    int64_t run = rng.NextInRange(1, 40);
    for (int64_t k = 0; k < run; ++k) {
      for (int b = 0; b < 4; ++b) {
        out.push_back(static_cast<uint8_t>(p >> (8 * b)));
      }
    }
  }
  out.resize(n);
  return out;
}

// A random 4096-byte row repeated with a few mutations per copy: the only
// long matches sit at exactly the window distance.
std::vector<uint8_t> StrideRows(size_t n) {
  Prng rng(29);
  std::vector<uint8_t> row = RandomBytes(4096, 31);
  std::vector<uint8_t> out;
  out.reserve(n + row.size());
  while (out.size() < n) {
    for (int k = 0; k < 24; ++k) {
      row[rng.NextBelow(row.size())] = static_cast<uint8_t>(rng.Next());
    }
    out.insert(out.end(), row.begin(), row.end());
  }
  out.resize(n);
  return out;
}

// The A/V path's input: one paper-clip frame scaled to a 1024x768 screen.
Surface UpscaledVideoFrame() {
  return Yv12ScaleToRgb(VideoSource::FrameContent(5, 352, 240), 1024, 768);
}

std::vector<uint8_t> VideoBytes(size_t n) {
  Surface frame = UpscaledVideoFrame();
  std::span<const uint8_t> all = AsBytes(frame.pixels());
  return std::vector<uint8_t>(all.begin(), all.begin() + std::min(n, all.size()));
}

Yv12Frame RandomFrame(int32_t w, int32_t h, uint64_t seed) {
  Yv12Frame f = Yv12Frame::Allocate(w, h);
  Prng rng(seed);
  for (std::vector<uint8_t>* plane : {&f.y, &f.v, &f.u}) {
    for (uint8_t& b : *plane) {
      b = static_cast<uint8_t>(rng.Next());
    }
  }
  return f;
}

constexpr size_t kLzssSizes[] = {0, 1, 2, 3, 17, 4095, 4096, 4097, 8191, 8192, 8193, 70000};

// Encodes each input, checks the round trip, and returns the hash of all
// encodings.
uint64_t LzssEncodeAllHash(const std::vector<std::vector<uint8_t>>& inputs) {
  Fnv fnv;
  for (const std::vector<uint8_t>& in : inputs) {
    std::vector<uint8_t> enc = LzssEncode(in);
    std::vector<uint8_t> dec;
    EXPECT_TRUE(LzssDecode(enc, &dec)) << "size " << in.size();
    EXPECT_EQ(dec, in) << "size " << in.size();
    fnv.U64(in.size());
    fnv.U64(enc.size());
    fnv.Bytes(enc);
  }
  return fnv.value();
}

// The same over every prefix size of `make`'s content.
template <typename Make>
uint64_t LzssEncodeHash(Make make) {
  std::vector<std::vector<uint8_t>> inputs;
  for (size_t n : kLzssSizes) {
    inputs.push_back(make(n));
  }
  return LzssEncodeAllHash(inputs);
}

// --- LZSS encode -------------------------------------------------------------------

TEST(CodecGoldenLzssEncode, Random) {
  EXPECT_GOLDEN(LzssEncodeHash([](size_t n) { return RandomBytes(n, 3); }), 0x57C3B24AA5CDBD4DULL);
}

TEST(CodecGoldenLzssEncode, Flat) {
  EXPECT_GOLDEN(LzssEncodeHash([](size_t n) { return std::vector<uint8_t>(n, 0xA5); }),
                0xFC18E648F84812B7ULL);
}

TEST(CodecGoldenLzssEncode, PixelRuns) {
  EXPECT_GOLDEN(LzssEncodeHash(PixelRuns), 0xB63AC8868BFA78F9ULL);
}

TEST(CodecGoldenLzssEncode, RowsAtWindowStride) {
  EXPECT_GOLDEN(LzssEncodeHash(StrideRows), 0x770D840A00C1DE8AULL);
}

TEST(CodecGoldenLzssEncode, UpscaledVideoFramePrefixes) {
  EXPECT_GOLDEN(LzssEncodeHash(VideoBytes), 0xCFD28FA398B90873ULL);
}

TEST(CodecGoldenLzssEncode, UpscaledVideoFrameWhole) {
  Surface frame = UpscaledVideoFrame();
  std::span<const uint8_t> in = AsBytes(frame.pixels());
  std::vector<uint8_t> enc = LzssEncode(in);
  std::vector<uint8_t> dec;
  ASSERT_TRUE(LzssDecode(enc, &dec));
  EXPECT_TRUE(std::equal(dec.begin(), dec.end(), in.begin(), in.end()));
  Fnv fnv;
  fnv.U64(enc.size());
  fnv.Bytes(enc);
  EXPECT_GOLDEN(fnv.value(), 0xAD5CB05AB719D27EULL);
}

// --- LZSS on periodic content ------------------------------------------------------
// Page backgrounds and flat fills are runs that repeat every few bytes, where
// the encoder emits whole (distance, 18) tokens back to back.

// Appends `len` bytes that repeat `unit`, starting at its byte `phase`.
void AppendPeriodic(std::vector<uint8_t>* out, std::span<const uint8_t> unit, size_t len,
                    size_t phase = 0) {
  for (size_t k = 0; k < len; ++k) {
    out->push_back(unit[(phase + k) % unit.size()]);
  }
}

void AppendNoise(std::vector<uint8_t>* out, size_t len, uint64_t seed) {
  std::vector<uint8_t> noise = RandomBytes(len, seed);
  out->insert(out->end(), noise.begin(), noise.end());
}

// A noise prefix, then a run of period `period` to the end of the input. The
// encoder opens the run with `period` literals and a (period, 18) match,
// which leaves `tail` more run bytes: 18k-1 ... 18k+2 of them straddle the
// last whole token and the positions whose hash windows leave the input.
std::vector<uint8_t> RunToTheEnd(size_t period, size_t tail) {
  std::vector<uint8_t> out;
  AppendNoise(&out, 29, 100 + period);
  AppendPeriodic(&out, RandomBytes(period, 200 + period), period + 18 + tail);
  return out;
}

TEST(CodecGoldenLzssEncode, PeriodicRunsEndingAtTheInputEnd) {
  std::vector<std::vector<uint8_t>> inputs;
  for (size_t period = 1; period <= 8; ++period) {
    for (size_t k : {1, 2, 3, 5, 40}) {
      for (size_t tail = 18 * k - 1; tail <= 18 * k + 2; ++tail) {
        inputs.push_back(RunToTheEnd(period, tail));
      }
    }
  }
  EXPECT_GOLDEN(LzssEncodeAllHash(inputs), 0xA3DE2546DF243484ULL);
}

// A period-4 pixel run of `pixels` pixels, then a tail that keeps coming back
// to the same pixel at every phase between noise, so later probes walk the
// hash chains through the run.
std::vector<uint8_t> PixelRunThenEchoes(size_t pixels) {
  const uint8_t pixel[] = {0xF4, 0xF1, 0xEE, 0xFF};
  std::vector<uint8_t> out;
  AppendNoise(&out, 37, 5);
  AppendPeriodic(&out, pixel, 4 * pixels);
  Prng rng(6);
  for (int k = 0; k < 200; ++k) {
    AppendNoise(&out, 1 + rng.NextBelow(9), 300 + static_cast<uint64_t>(k));
    AppendPeriodic(&out, pixel, 3 + rng.NextBelow(24), rng.NextBelow(4));
  }
  return out;
}

TEST(CodecGoldenLzssEncode, PeriodFourRunsLongerAndShorterThanTheRing) {
  // 5000 pixels is a 20000-byte run, longer than the 8192-slot chain ring;
  // the others give inputs shorter than 8192 bytes, whose ring is smaller.
  std::vector<std::vector<uint8_t>> inputs;
  for (size_t pixels : {5000, 2000, 1000, 300, 40}) {
    inputs.push_back(PixelRunThenEchoes(pixels));
  }
  EXPECT_GOLDEN(LzssEncodeAllHash(inputs), 0x8D0FCF3465F4D202ULL);
}

TEST(CodecGoldenLzssEncode, PixelRunsWithCollidingPhaseHashes) {
  // Each pixel has two byte phases whose 3-byte windows share a hash, so a
  // chain probe in its run meets the other phase first. c5 77 18 d7's are the
  // run's first two phases; the noise prefixes shift where the run starts.
  const uint8_t pixels[][4] = {
      {0xC5, 0x77, 0x18, 0xD7}, {0x17, 0xB0, 0x5A, 0x52}, {0xBA, 0x1A, 0x07, 0x2F}};
  std::vector<std::vector<uint8_t>> inputs;
  for (const auto& pixel : pixels) {
    for (size_t prefix = 0; prefix < 4; ++prefix) {
      std::vector<uint8_t> in;
      AppendNoise(&in, prefix, 7);
      AppendPeriodic(&in, pixel, 4 * 3000);
      inputs.push_back(std::move(in));
    }
  }
  EXPECT_GOLDEN(LzssEncodeAllHash(inputs), 0x22223C8B34D0C9E0ULL);
}

// The three 1024x256 strips RDP and ICA ship for one rendered web page: a
// tiled header, text and images over a flat page background.
std::vector<std::vector<uint8_t>> WebPageStrips(int32_t page) {
  WindowServer ws(1024, 768, nullptr, nullptr);
  WebWorkload(1024, 768).RenderPage(&ws, page, nullptr);
  std::vector<std::vector<uint8_t>> strips;
  for (int32_t y = 0; y < 768; y += 256) {
    std::vector<Pixel> px = ws.screen().GetPixels(Rect{0, y, 1024, 256});
    std::span<const uint8_t> bytes = AsBytes(px);
    strips.emplace_back(bytes.begin(), bytes.end());
  }
  return strips;
}

TEST(CodecGoldenLzssEncode, WebPageStrips) {
  EXPECT_GOLDEN(LzssEncodeAllHash(WebPageStrips(1)), 0x0C04B6F3229F8644ULL);
}

// --- LZSS decode on damaged streams --------------------------------------------------

// Decodes `stream` into an output that starts non-empty, and folds the
// verdict plus the whole (possibly partial) output.
void FoldDecode(std::span<const uint8_t> stream, Fnv* fnv) {
  std::vector<uint8_t> out(7, 0xEE);
  bool ok = LzssDecode(stream, &out);
  fnv->U64(ok ? 1 : 0);
  fnv->U64(out.size());
  fnv->Bytes(out);
}

std::vector<uint8_t> MixedStream() {
  // Literals, short and long matches, and overlapping dist<len matches.
  std::vector<uint8_t> in = PixelRuns(900);
  std::vector<uint8_t> noise = RandomBytes(120, 8);
  in.insert(in.begin() + 300, noise.begin(), noise.end());
  in.insert(in.end(), 60, 0x00);
  return LzssEncode(in);
}

// Folds the decode of every prefix of `enc`.
uint64_t EveryTruncationHash(std::span<const uint8_t> enc) {
  Fnv fnv;
  for (size_t len = 0; len <= enc.size(); ++len) {
    FoldDecode(enc.first(len), &fnv);
  }
  return fnv.value();
}

// Folds the decodes of `flips` copies of `enc`, each with one bit flipped
// at a place drawn from `seed`.
void FoldBitFlips(std::vector<uint8_t> enc, uint64_t seed, int flips, Fnv* fnv) {
  Prng rng(seed);
  for (int k = 0; k < flips; ++k) {
    size_t at = rng.NextBelow(enc.size());
    uint8_t mask = static_cast<uint8_t>(1u << rng.NextBelow(8));
    enc[at] ^= mask;
    FoldDecode(enc, fnv);
    enc[at] ^= mask;
  }
}

TEST(CodecGoldenLzssDecode, EveryTruncation) {
  EXPECT_GOLDEN(EveryTruncationHash(MixedStream()), 0xADDD5215364F4082ULL);
}

TEST(CodecGoldenLzssDecode, TruncatedVideoStream) {
  std::vector<uint8_t> enc = LzssEncode(VideoBytes(70000));
  Fnv fnv;
  for (size_t k = 0; k <= 96; ++k) {
    FoldDecode(std::span<const uint8_t>(enc).first(enc.size() * k / 96), &fnv);
  }
  EXPECT_GOLDEN(fnv.value(), 0x5B944534A4579D3BULL);
}

TEST(CodecGoldenLzssDecode, BitFlips) {
  Fnv fnv;
  FoldBitFlips(MixedStream(), 41, 256, &fnv);
  FoldBitFlips(LzssEncode(StrideRows(8193)), 41, 256, &fnv);
  EXPECT_GOLDEN(fnv.value(), 0x87FA8B80B1C3F343ULL);
}

// Runs of period 1, 2, 3, 4 and 7 between noise: (distance, 18) tokens that
// overlap their own output, with literals and short matches around them.
std::vector<uint8_t> RunHeavyStream() {
  std::vector<uint8_t> in;
  size_t k = 0;
  for (size_t period : {4, 1, 2, 3, 7, 4}) {
    AppendNoise(&in, 11, 50 + k);
    AppendPeriodic(&in, RandomBytes(period, 60 + k), 40 + 37 * k);
    ++k;
  }
  return LzssEncode(in);
}

TEST(CodecGoldenLzssDecode, EveryTruncationOfARunHeavyStream) {
  EXPECT_GOLDEN(EveryTruncationHash(RunHeavyStream()), 0xF0B53678BF7859A9ULL);
}

TEST(CodecGoldenLzssDecode, BitFlipsInARunHeavyStream) {
  Fnv fnv;
  FoldBitFlips(RunHeavyStream(), 43, 512, &fnv);
  EXPECT_GOLDEN(fnv.value(), 0x3B561DC69B13D08DULL);
}

TEST(CodecGoldenLzssDecode, HandMadeStreams) {
  const std::vector<std::vector<uint8_t>> streams = {
      {},
      {0x00},                                    // flag byte with no tokens
      {0x01, 0xFF, 0xFF},                        // match before the output start
      {0x00, 'a', 'b'},                          // literals only
      {0x02, 'a', 0x00},                         // match cut after one byte
      {0x02, 'a', 0x00, 0xF0},                   // dist 1, len 18: overlapping
      {0x06, 'a', 0x00, 0x00, 0x09, 0x10, 'z'},  // second match too far back
      {0xFE, 'x', 0x00, 0x10, 0x00, 0x20, 0x00, 0x30, 0x00, 0x40, 0x00, 0x50,
       0x00, 0x60, 0x00, 0x70, 0x00, 'y'},
  };
  Fnv fnv;
  for (const std::vector<uint8_t>& s : streams) {
    FoldDecode(s, &fnv);
  }
  EXPECT_GOLDEN(fnv.value(), 0xCE599E9527FC7963ULL);
}

// --- PNG-like ----------------------------------------------------------------------------

std::vector<Pixel> ScreenLike(int32_t w, int32_t h, uint64_t seed) {
  // Flat band, gradient band, noise band.
  Prng rng(seed);
  std::vector<Pixel> px(static_cast<size_t>(w) * h);
  for (int32_t y = 0; y < h; ++y) {
    for (int32_t x = 0; x < w; ++x) {
      Pixel p;
      if (y < h / 3) {
        p = MakePixel(236, 236, 240);
      } else if (y < 2 * h / 3) {
        p = MakePixel(static_cast<uint8_t>(x * 3), 90, static_cast<uint8_t>(y * 5));
      } else {
        p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
      }
      px[static_cast<size_t>(y) * w + x] = p;
    }
  }
  return px;
}

std::vector<Pixel> Crop(const Surface& s, int32_t x0, int32_t y0, int32_t w, int32_t h) {
  std::vector<Pixel> px;
  for (int32_t y = y0; y < y0 + h; ++y) {
    std::span<const Pixel> row = s.row(y);
    px.insert(px.end(), row.begin() + x0, row.begin() + x0 + w);
  }
  return px;
}

TEST(CodecGoldenPngLike, Images) {
  struct Image {
    int32_t w, h;
    std::vector<Pixel> px;
  };
  std::vector<Image> images;
  const int32_t sizes[][2] = {{1, 1}, {2, 1}, {3, 1}, {1, 4}, {7, 5},
                              {33, 17}, {64, 64}, {256, 64}, {1024, 8}};
  for (const auto& s : sizes) {
    images.push_back({s[0], s[1], ScreenLike(s[0], s[1], 11)});
    std::vector<uint8_t> noise = RandomBytes(static_cast<size_t>(s[0]) * s[1] * 4, 12);
    std::vector<Pixel> px(static_cast<size_t>(s[0]) * s[1]);
    std::memcpy(px.data(), noise.data(), noise.size());
    images.push_back({s[0], s[1], px});
  }
  images.push_back({48, 16, std::vector<Pixel>(48 * 16, 0)});
  images.push_back({48, 16, std::vector<Pixel>(48 * 16, MakePixel(200, 10, 30))});
  Surface video = UpscaledVideoFrame();
  images.push_back({256, 256, Crop(video, 300, 200, 256, 256)});
  images.push_back({1024, 96, Crop(video, 0, 400, 1024, 96)});
  Fnv fnv;
  for (const Image& im : images) {
    std::vector<uint8_t> enc = PngLikeEncode(im.px, im.w, im.h);
    std::vector<Pixel> dec;
    EXPECT_TRUE(PngLikeDecode(enc, im.w, im.h, &dec));
    EXPECT_EQ(dec, im.px) << im.w << "x" << im.h;
    fnv.U64(enc.size());
    fnv.Bytes(enc);
  }
  EXPECT_GOLDEN(fnv.value(), 0xF9D3DFAE2FE39780ULL);
}

// --- Hextile ---------------------------------------------------------------------

struct PixelImage {
  int32_t w, h;
  std::vector<Pixel> px;
};

// A pixel's place in the encoder's tiling: tile `t` (in encoding order) is
// tw x th, and (x, y) is the pixel's position inside it.
struct TilePos {
  int t;
  int32_t tw, th, x, y;
};

// Paints a w x h image with `paint(TilePos)`, called tile by tile in the
// encoder's order and in raster order within each tile.
template <typename Paint>
PixelImage PaintTiles(int32_t w, int32_t h, Paint paint) {
  PixelImage im{w, h, std::vector<Pixel>(static_cast<size_t>(w) * h)};
  int t = 0;
  for (int32_t ty = 0; ty < h; ty += 16) {
    for (int32_t tx = 0; tx < w; tx += 16, ++t) {
      int32_t tw = std::min(16, w - tx);
      int32_t th = std::min(16, h - ty);
      for (int32_t y = 0; y < th; ++y) {
        for (int32_t x = 0; x < tw; ++x) {
          im.px[static_cast<size_t>(ty + y) * w + tx + x] =
              paint(TilePos{t, tw, th, x, y});
        }
      }
    }
  }
  return im;
}

Pixel SolidColor(const TilePos& p) {
  return 0xFF000000u | ((static_cast<uint32_t>(p.t) * 2654435761u) >> 8);
}

// `k` bands in raster order, painted from the largest color down: when k
// divides the tile's area every band ties for most frequent, and the
// smallest color, painted last, must win the background.
Pixel BandColor(const TilePos& p, int k) {
  int band = (p.y * p.tw + p.x) * k / (p.tw * p.th);
  return 0xFFF0F0F0u - static_cast<uint32_t>(band) * 0x00111111u +
         static_cast<uint32_t>(p.t % 5);
}

// Tile t draws from 2 + t % 7 random colors. A blocky tile keeps the
// previous color with probability 5/6 (runs, so subrects can pay); a
// scattered one picks afresh for every pixel (so most such tiles go raw).
struct FewColors {
  FewColors(uint64_t seed, bool blocky) : rng(seed), blocky(blocky) {}

  Pixel operator()(const TilePos& p) {
    if (p.t != tile) {
      tile = p.t;
      palette.resize(static_cast<size_t>(2 + p.t % 7));
      for (Pixel& c : palette) {
        c = static_cast<Pixel>(rng.Next()) | 0xFF000000u;
      }
    }
    if (p.x + p.y == 0 || !blocky || rng.NextBelow(6) == 0) {
      last = palette[rng.NextBelow(palette.size())];
    }
    return last;
  }

  Prng rng;
  bool blocky;
  int tile = -1;
  std::vector<Pixel> palette;
  Pixel last = 0;
};

// Every kind of tile, chosen by tile index: solid, tied bands (2-8
// colors), blocky and scattered few-color tiles, nine bands, noise.
PixelImage MixedTiles(int32_t w, int32_t h, uint64_t seed) {
  FewColors blocky(seed, true);
  FewColors scattered(seed + 1, false);
  Prng noise(seed + 2);
  return PaintTiles(w, h, [&](const TilePos& p) -> Pixel {
    switch (p.t % 6) {
      case 0:
        return SolidColor(p);
      case 1:
        return BandColor(p, 2 + (p.t / 6) % 7);
      case 2:
        return blocky(p);
      case 3:
        return scattered(p);
      case 4:
        return BandColor(p, 9);
      default:
        return static_cast<Pixel>(noise.Next());
    }
  });
}

PixelImage Noise(int32_t w, int32_t h, uint64_t seed) {
  std::vector<uint8_t> bytes = RandomBytes(static_cast<size_t>(w) * h * 4, seed);
  PixelImage im{w, h, std::vector<Pixel>(static_cast<size_t>(w) * h)};
  std::memcpy(im.px.data(), bytes.data(), bytes.size());
  return im;
}

// Encodes each image, checks the round trip, and returns the hash of all
// encodings.
uint64_t HextileEncodeHash(const std::vector<PixelImage>& images) {
  Fnv fnv;
  for (const PixelImage& im : images) {
    std::vector<uint8_t> enc = HextileEncode(im.px, im.w, im.h);
    std::vector<Pixel> dec;
    EXPECT_TRUE(HextileDecode(enc, im.w, im.h, &dec)) << im.w << "x" << im.h;
    EXPECT_EQ(dec, im.px) << im.w << "x" << im.h;
    fnv.U64(static_cast<uint64_t>(im.w));
    fnv.U64(static_cast<uint64_t>(im.h));
    fnv.U64(enc.size());
    fnv.Bytes(enc);
  }
  return fnv.value();
}

TEST(CodecGoldenHextileEncode, SolidTiles) {
  std::vector<PixelImage> images;
  for (const auto& [w, h] : {std::pair{64, 48}, {33, 17}, {1, 1}}) {
    images.push_back(PaintTiles(w, h, SolidColor));
  }
  images.push_back({48, 16, std::vector<Pixel>(48 * 16, 0)});
  EXPECT_GOLDEN(HextileEncodeHash(images), 0x1153DE0ACD6B5C8BULL);
}

TEST(CodecGoldenHextileEncode, TiedBands) {
  // 2 to 8 bands by tile: whole tiles, and edge tiles of 8x16, 16x4, 8x4
  // and 16x2, whose areas 2, 4 and 8 all divide.
  std::vector<PixelImage> images;
  for (const auto& [w, h] : {std::pair{112, 64}, {120, 36}, {64, 34}}) {
    images.push_back(
        PaintTiles(w, h, [](const TilePos& p) { return BandColor(p, 2 + p.t % 7); }));
  }
  EXPECT_GOLDEN(HextileEncodeHash(images), 0x8F8A25AEA2377942ULL);
}

TEST(CodecGoldenHextileEncode, FewColorTiles) {
  std::vector<PixelImage> images;
  for (bool blocky : {true, false}) {
    images.push_back(PaintTiles(160, 96, FewColors(blocky ? 61 : 62, blocky)));
  }
  EXPECT_GOLDEN(HextileEncodeHash(images), 0x7A4F5379C1992B27ULL);
}

TEST(CodecGoldenHextileEncode, NineColorTiles) {
  // Nine bands, and eight bands with a ninth color in only the first or
  // the last pixel: every tile has nine colors, so every tile goes raw.
  std::vector<PixelImage> images;
  images.push_back(PaintTiles(64, 40, [](const TilePos& p) { return BandColor(p, 9); }));
  for (bool first : {true, false}) {
    images.push_back(PaintTiles(64, 40, [first](const TilePos& p) {
      bool ninth = first ? p.x + p.y == 0 : p.x == p.tw - 1 && p.y == p.th - 1;
      return ninth ? kBlack : BandColor(p, 8);
    }));
  }
  EXPECT_GOLDEN(HextileEncodeHash(images), 0xE18F65F45C9C5FCFULL);
}

TEST(CodecGoldenHextileEncode, Noise) {
  EXPECT_GOLDEN(HextileEncodeHash({Noise(64, 64, 13), Noise(37, 21, 14)}),
                0x9556325225B4863BULL);
}

TEST(CodecGoldenHextileEncode, OddSizes) {
  const int32_t sizes[] = {1, 2, 3, 7, 15, 17, 31, 33};
  std::vector<PixelImage> images;
  uint64_t seed = 70;
  for (int32_t w : sizes) {
    for (int32_t h : sizes) {
      images.push_back(MixedTiles(w, h, seed++));
    }
  }
  EXPECT_GOLDEN(HextileEncodeHash(images), 0xF17FEB095547ED2AULL);
}

TEST(CodecGoldenHextileEncode, UpscaledVideoFrameWhole) {
  Surface frame = UpscaledVideoFrame();
  std::span<const Pixel> px = frame.pixels();
  EXPECT_GOLDEN(HextileEncodeHash({{1024, 768, std::vector<Pixel>(px.begin(), px.end())}}),
                0x5D61117A070D0107ULL);
}

// Decodes `stream` into an output that starts non-empty, and folds the
// verdict plus the whole (possibly partial) output.
void FoldHextileDecode(std::span<const uint8_t> stream, int32_t w, int32_t h, Fnv* fnv) {
  std::vector<Pixel> out(3, 0xEEEEEEEE);
  bool ok = HextileDecode(stream, w, h, &out);
  fnv->U64(ok ? 1 : 0);
  fnv->U64(out.size());
  fnv->Bytes(AsBytes(out));
}

TEST(CodecGoldenHextileDecode, EveryTruncation) {
  // Nine tiles of every kind, each raw one cut at every byte.
  PixelImage im = MixedTiles(48, 40, 90);
  std::vector<uint8_t> enc = HextileEncode(im.px, im.w, im.h);
  Fnv fnv;
  for (size_t len = 0; len <= enc.size(); ++len) {
    FoldHextileDecode(std::span<const uint8_t>(enc).first(len), im.w, im.h, &fnv);
  }
  EXPECT_GOLDEN(fnv.value(), 0xAE3D5FFD2961F568ULL);
}

TEST(CodecGoldenHextileDecode, HandMadeStreams) {
  // Each stream is one 3x2 tile.
  const std::vector<std::vector<uint8_t>> streams = {
      {},
      {0x03},                                               // unknown tile kind
      {0x01, 0x11, 0x22, 0x33, 0x44},                       // solid
      {0x01, 0x11, 0x22, 0x33, 0x44, 0x99},                 // a trailing byte
      {0x02, 1, 2, 3, 4, 0x01, 0x00, 1, 1, 2, 5, 6, 7, 8},  // one subrect
      {0x02, 1, 2, 3, 4, 0x01, 0x00, 2, 0, 2, 5, 6, 7, 8},  // past the right edge
      {0x02, 1, 2, 3, 4, 0x01, 0x00, 0, 2, 1, 5, 6, 7, 8},  // below the tile
      {0x02, 1, 2, 3, 4, 0x02, 0x00, 0, 0, 1, 5, 6, 7, 8},  // second subrect missing
      {0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},    // raw, cut in pixel 4
  };
  Fnv fnv;
  for (const std::vector<uint8_t>& s : streams) {
    FoldHextileDecode(s, 3, 2, &fnv);
  }
  EXPECT_GOLDEN(fnv.value(), 0xC7E3E5A23AA5B85EULL);
}

// --- RC4 ---------------------------------------------------------------------------------------

TEST(CodecGoldenRc4, KeystreamAcrossSplitCalls) {
  const std::vector<uint8_t> in = RandomBytes(70000, 5);
  const size_t chunks[] = {1, 2, 3, 5, 8, 13, 64, 255, 256, 257, 1000, 4096};
  Fnv fnv;
  for (const std::vector<uint8_t>& key :
       {RandomBytes(16, 6), RandomBytes(256, 7), std::vector<uint8_t>{0x42}}) {
    Rc4Cipher c(key);
    std::vector<uint8_t> out(in.size());
    size_t at = 0;
    for (size_t k = 0; at < in.size(); ++k) {
      size_t n = std::min(chunks[k % std::size(chunks)], in.size() - at);
      c.Process(std::span<const uint8_t>(in).subspan(at, n),
                std::span<uint8_t>(out).subspan(at, n));
      at += n;
      if (k % 5 == 0) {
        fnv.U64(c.NextKeystreamByte());
      }
    }
    fnv.Bytes(out);
    // In place, and through the allocating overload.
    c.Process(out, out);
    fnv.Bytes(out);
    fnv.Bytes(c.Process(in));
  }
  EXPECT_GOLDEN(fnv.value(), 0x265218BF86881F07ULL);
}

// --- YV12 scaling ---------------------------------------------------------------------------

TEST(CodecGoldenYuv, ScaleToRgb) {
  const int32_t sizes[][2] = {{1024, 768}, {320, 240}, {110, 75}, {13, 11}, {1, 1}, {700, 3}};
  Fnv fnv;
  for (const Yv12Frame& f : {RandomFrame(352, 240, 9), VideoSource::FrameContent(17, 352, 240),
                             RandomFrame(3, 5, 10)}) {
    for (const auto& s : sizes) {
      fnv.U64(Yv12ScaleToRgb(f, s[0], s[1]).ContentHash());
    }
    fnv.U64(Yv12ToRgb(f).ContentHash());
  }
  EXPECT_GOLDEN(fnv.value(), 0xCDC5C96CC05D512EULL);
}

}  // namespace
}  // namespace thinc
