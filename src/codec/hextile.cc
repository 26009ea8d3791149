#include "src/codec/hextile.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace thinc {
namespace {

constexpr int32_t kTile = 16;
// A tile with more distinct colors than this is sent raw.
constexpr int kMaxSubrectColors = 8;

enum TileKind : uint8_t {
  kRaw = 0,
  kSolid = 1,
  kSubrects = 2,
};

// Raw tiles move whole pixel rows with memcpy, which writes the wire's
// little-endian byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little);

uint8_t* PutU32(uint8_t* out, uint32_t v) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
  return out + 4;
}

bool GetU32(std::span<const uint8_t> in, size_t* i, uint32_t* v) {
  if (*i + 4 > in.size()) {
    return false;
  }
  *v = static_cast<uint32_t>(in[*i]) | (static_cast<uint32_t>(in[*i + 1]) << 8) |
       (static_cast<uint32_t>(in[*i + 2]) << 16) |
       (static_cast<uint32_t>(in[*i + 3]) << 24);
  *i += 4;
  return true;
}

// The distinct colors of one tile and their pixel counts. A tile's kind
// depends only on how many there are (1, 2-8, or more), so the census
// stops at the ninth.
class ColorTable {
 public:
  // Counts `n` more pixels of `color`; false once a ninth color shows up.
  bool Add(Pixel color, int n) {
    for (int k = 0; k < size_; ++k) {
      if (colors_[k] == color) {
        counts_[k] += n;
        return true;
      }
    }
    if (size_ == kMaxSubrectColors) {
      return false;
    }
    colors_[size_] = color;
    counts_[size_] = n;
    ++size_;
    return true;
  }

  int size() const { return size_; }
  Pixel first() const { return colors_[0]; }

  // The most frequent color; ties go to the smallest value, the one a scan
  // of a color-sorted histogram with a strict > keeps.
  Pixel Background() const {
    int best = 0;
    for (int k = 1; k < size_; ++k) {
      if (counts_[k] > counts_[best] ||
          (counts_[k] == counts_[best] && colors_[k] < colors_[best])) {
        best = k;
      }
    }
    return colors_[best];
  }

 private:
  Pixel colors_[kMaxSubrectColors] = {};
  int counts_[kMaxSubrectColors] = {};
  int size_ = 0;
};

// A raw tile's size, which no tile exceeds: the kind byte and the pixels.
size_t RawTileSize(int32_t tw, int32_t th) {
  return 1 + static_cast<size_t>(tw) * th * sizeof(Pixel);
}

// Length of the run of `row[x]`'s color starting at x, at most tw - x.
int32_t RunLength(const Pixel* row, int32_t x, int32_t tw) {
  int32_t x2 = x + 1;
  while (x2 < tw && row[x2] == row[x]) {
    ++x2;
  }
  return x2 - x;
}

// Writes a subrects tile at `out`: background `bg`, then the horizontal
// runs of every other color. Returns its end, or nullptr once it would
// reach the size of the same tile sent raw.
uint8_t* PutSubrects(const Pixel* tile, size_t stride, int32_t tw, int32_t th, Pixel bg,
                     uint8_t* out) {
  const size_t raw_size = RawTileSize(tw, th);
  uint8_t* p = out + 7;
  for (int32_t y = 0; y < th; ++y) {
    const Pixel* row = tile + y * stride;
    for (int32_t x = 0; x < tw;) {
      if (row[x] == bg) {
        ++x;
        continue;
      }
      if (static_cast<size_t>(p - out) + 7 >= raw_size) {
        return nullptr;
      }
      int32_t n = RunLength(row, x, tw);
      p[0] = static_cast<uint8_t>(x);
      p[1] = static_cast<uint8_t>(y);
      p[2] = static_cast<uint8_t>(n);
      p = PutU32(p + 3, row[x]);
      x += n;
    }
  }
  const size_t runs = static_cast<size_t>(p - out - 7) / 7;
  out[0] = kSubrects;
  PutU32(out + 1, bg);
  out[5] = static_cast<uint8_t>(runs & 0xFF);
  out[6] = static_cast<uint8_t>(runs >> 8);
  return p;
}

// Writes one tile at `out` and returns its end. `tile` points at the
// tile's top-left pixel in an image `stride` pixels wide.
uint8_t* EncodeTile(const Pixel* tile, size_t stride, int32_t tw, int32_t th,
                    uint8_t* out) {
  ColorTable table;
  bool few = true;
  for (int32_t y = 0; y < th && few; ++y) {
    const Pixel* row = tile + y * stride;
    for (int32_t x = 0; x < tw && few;) {
      int32_t n = RunLength(row, x, tw);
      few = table.Add(row[x], n);
      x += n;
    }
  }
  if (few && table.size() == 1) {
    out[0] = kSolid;
    return PutU32(out + 1, table.first());
  }
  if (few) {
    uint8_t* end = PutSubrects(tile, stride, tw, th, table.Background(), out);
    if (end != nullptr) {
      return end;
    }
  }
  out[0] = kRaw;
  uint8_t* p = out + 1;
  for (int32_t y = 0; y < th; ++y) {
    std::memcpy(p, tile + y * stride, static_cast<size_t>(tw) * sizeof(Pixel));
    p += static_cast<size_t>(tw) * sizeof(Pixel);
  }
  return p;
}

}  // namespace

std::vector<uint8_t> HextileEncode(std::span<const Pixel> pixels, int32_t width,
                                   int32_t height) {
  // Reserving every tile's raw size up front means the buffer never moves.
  // Growing it by one tile's raw size at a time zeroes and touches only
  // bytes near its end; zeroing the whole bound at once touched megabytes
  // for a large flat update that encodes to a few percent of that.
  const size_t tiles =
      static_cast<size_t>((width + kTile - 1) / kTile) * ((height + kTile - 1) / kTile);
  std::vector<uint8_t> out;
  out.reserve(tiles + static_cast<size_t>(width) * height * sizeof(Pixel));
  for (int32_t ty = 0; ty < height; ty += kTile) {
    for (int32_t tx = 0; tx < width; tx += kTile) {
      const int32_t tw = std::min(kTile, width - tx);
      const int32_t th = std::min(kTile, height - ty);
      const size_t at = out.size();
      out.resize(at + RawTileSize(tw, th));
      uint8_t* end = EncodeTile(pixels.data() + static_cast<size_t>(ty) * width + tx,
                                static_cast<size_t>(width), tw, th, out.data() + at);
      out.resize(static_cast<size_t>(end - out.data()));
    }
  }
  return out;
}

bool HextileDecode(std::span<const uint8_t> data, int32_t width, int32_t height,
                   std::vector<Pixel>* pixels) {
  pixels->assign(static_cast<size_t>(width) * height, 0);
  size_t i = 0;
  for (int32_t ty = 0; ty < height; ty += kTile) {
    for (int32_t tx = 0; tx < width; tx += kTile) {
      int32_t tw = std::min(kTile, width - tx);
      int32_t th = std::min(kTile, height - ty);
      if (i >= data.size()) {
        return false;
      }
      uint8_t kind = data[i++];
      if (kind == kSolid) {
        uint32_t color;
        if (!GetU32(data, &i, &color)) {
          return false;
        }
        for (int32_t y = 0; y < th; ++y) {
          Pixel* row = pixels->data() + static_cast<size_t>(ty + y) * width + tx;
          std::fill(row, row + tw, color);
        }
      } else if (kind == kSubrects) {
        uint32_t bg;
        if (!GetU32(data, &i, &bg)) {
          return false;
        }
        if (i + 2 > data.size()) {
          return false;
        }
        size_t n = static_cast<size_t>(data[i]) | (static_cast<size_t>(data[i + 1]) << 8);
        i += 2;
        for (int32_t y = 0; y < th; ++y) {
          Pixel* row = pixels->data() + static_cast<size_t>(ty + y) * width + tx;
          std::fill(row, row + tw, bg);
        }
        for (size_t k = 0; k < n; ++k) {
          if (i + 3 > data.size()) {
            return false;
          }
          uint8_t x = data[i];
          uint8_t y = data[i + 1];
          uint8_t w = data[i + 2];
          i += 3;
          uint32_t color;
          if (!GetU32(data, &i, &color)) {
            return false;
          }
          if (x + w > tw || y >= th) {
            return false;
          }
          Pixel* row = pixels->data() + static_cast<size_t>(ty + y) * width + tx + x;
          std::fill(row, row + w, color);
        }
      } else if (kind == kRaw) {
        for (int32_t y = 0; y < th; ++y) {
          Pixel* row = pixels->data() + static_cast<size_t>(ty + y) * width + tx;
          // A truncated row keeps the whole pixels that are present.
          size_t n = std::min(static_cast<size_t>(tw), (data.size() - i) / sizeof(Pixel));
          std::memcpy(row, data.data() + i, n * sizeof(Pixel));
          i += n * sizeof(Pixel);
          if (n < static_cast<size_t>(tw)) {
            return false;
          }
        }
      } else {
        return false;
      }
    }
  }
  return true;
}

}  // namespace thinc
