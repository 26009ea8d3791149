#include "src/raster/yuv.h"

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"

namespace thinc {
namespace {

uint8_t ClampByte(int32_t v) {
  return static_cast<uint8_t>(std::clamp(v, 0, 255));
}

// Integer BT.601 full-range RGB -> YUV.
void RgbToYuv(uint8_t r, uint8_t g, uint8_t b, uint8_t* y, uint8_t* u, uint8_t* v) {
  *y = ClampByte((77 * r + 150 * g + 29 * b) >> 8);
  *u = ClampByte(128 + ((-43 * r - 85 * g + 128 * b) >> 8));
  *v = ClampByte(128 + ((128 * r - 107 * g - 21 * b) >> 8));
}

Pixel YuvToRgb(uint8_t y, uint8_t u, uint8_t v) {
  int32_t c = y;
  int32_t d = u - 128;
  int32_t e = v - 128;
  uint8_t r = ClampByte(c + ((359 * e) >> 8));
  uint8_t g = ClampByte(c - ((88 * d + 183 * e) >> 8));
  uint8_t b = ClampByte(c + ((454 * d) >> 8));
  return MakePixel(r, g, b);
}

// Box-filter resample of a single 8-bit plane.
std::vector<uint8_t> ResamplePlane(const std::vector<uint8_t>& src, int32_t sw,
                                   int32_t sh, int32_t dw, int32_t dh) {
  THINC_CHECK(dw > 0 && dh > 0 && sw > 0 && sh > 0);
  std::vector<uint8_t> dst(static_cast<size_t>(dw) * dh);
  for (int32_t dy = 0; dy < dh; ++dy) {
    int32_t sy0 = static_cast<int32_t>(static_cast<int64_t>(dy) * sh / dh);
    int32_t sy1 = static_cast<int32_t>((static_cast<int64_t>(dy) + 1) * sh / dh);
    sy1 = std::max(sy1, sy0 + 1);
    for (int32_t dx = 0; dx < dw; ++dx) {
      int32_t sx0 = static_cast<int32_t>(static_cast<int64_t>(dx) * sw / dw);
      int32_t sx1 = static_cast<int32_t>((static_cast<int64_t>(dx) + 1) * sw / dw);
      sx1 = std::max(sx1, sx0 + 1);
      int64_t sum = 0;
      for (int32_t y = sy0; y < sy1; ++y) {
        for (int32_t x = sx0; x < sx1; ++x) {
          sum += src[static_cast<size_t>(y) * sw + x];
        }
      }
      int64_t n = static_cast<int64_t>(sy1 - sy0) * (sx1 - sx0);
      dst[static_cast<size_t>(dy) * dw + dx] = static_cast<uint8_t>(sum / n);
    }
  }
  return dst;
}

}  // namespace

Yv12Frame Yv12Frame::Allocate(int32_t width, int32_t height) {
  Yv12Frame f;
  f.width = (width + 1) & ~1;
  f.height = (height + 1) & ~1;
  f.y.assign(static_cast<size_t>(f.width) * f.height, 0);
  f.v.assign(static_cast<size_t>(f.width / 2) * (f.height / 2), 128);
  f.u.assign(static_cast<size_t>(f.width / 2) * (f.height / 2), 128);
  return f;
}

std::vector<uint8_t> Yv12Frame::Pack() const {
  std::vector<uint8_t> out;
  out.reserve(byte_size());
  out.insert(out.end(), y.begin(), y.end());
  out.insert(out.end(), v.begin(), v.end());
  out.insert(out.end(), u.begin(), u.end());
  return out;
}

Yv12Frame Yv12Frame::Unpack(int32_t width, int32_t height,
                            const std::vector<uint8_t>& data) {
  Yv12Frame f = Allocate(width, height);
  THINC_CHECK(data.size() == f.byte_size());
  std::memcpy(f.y.data(), data.data(), f.y.size());
  std::memcpy(f.v.data(), data.data() + f.y.size(), f.v.size());
  std::memcpy(f.u.data(), data.data() + f.y.size() + f.v.size(), f.u.size());
  return f;
}

Yv12Frame RgbToYv12(const Surface& rgb) {
  Yv12Frame f = Yv12Frame::Allocate(rgb.width(), rgb.height());
  int32_t cw = f.width / 2;
  // Per-pixel luma; chroma averaged over each 2x2 block.
  for (int32_t y = 0; y < f.height; ++y) {
    for (int32_t x = 0; x < f.width; ++x) {
      int32_t sx = std::min(x, rgb.width() - 1);
      int32_t sy = std::min(y, rgb.height() - 1);
      Pixel p = rgb.At(sx, sy);
      uint8_t py, pu, pv;
      RgbToYuv(PixelR(p), PixelG(p), PixelB(p), &py, &pu, &pv);
      f.y[static_cast<size_t>(y) * f.width + x] = py;
    }
  }
  for (int32_t cy = 0; cy < f.height / 2; ++cy) {
    for (int32_t cx = 0; cx < cw; ++cx) {
      int32_t usum = 0;
      int32_t vsum = 0;
      for (int32_t dy = 0; dy < 2; ++dy) {
        for (int32_t dx = 0; dx < 2; ++dx) {
          int32_t sx = std::min(cx * 2 + dx, rgb.width() - 1);
          int32_t sy = std::min(cy * 2 + dy, rgb.height() - 1);
          Pixel p = rgb.At(sx, sy);
          uint8_t py, pu, pv;
          RgbToYuv(PixelR(p), PixelG(p), PixelB(p), &py, &pu, &pv);
          usum += pu;
          vsum += pv;
        }
      }
      f.u[static_cast<size_t>(cy) * cw + cx] = static_cast<uint8_t>(usum / 4);
      f.v[static_cast<size_t>(cy) * cw + cx] = static_cast<uint8_t>(vsum / 4);
    }
  }
  return f;
}

Surface Yv12ToRgb(const Yv12Frame& frame) {
  return Yv12ScaleToRgb(frame, frame.width, frame.height);
}

Surface Yv12ScaleToRgb(const Yv12Frame& frame, int32_t dst_width, int32_t dst_height) {
  THINC_CHECK(dst_width > 0 && dst_height > 0);
  Surface out(dst_width, dst_height);
  Yv12ScaleInto(frame, out.bounds(), &out);
  return out;
}

void Yv12ScaleInto(const Yv12Frame& frame, const Rect& dst, Surface* surface) {
  const Rect clip = dst.Intersect(surface->bounds());
  if (clip.empty()) {
    return;
  }
  // Destination column dx samples source column dx * width / dst.width.
  // Adjacent columns that sample the same source column form a run, so each
  // sampled source pixel is converted once per row.
  struct Run {
    int32_t sx;
    int32_t len;
  };
  std::vector<Run> runs;
  for (int32_t dx = clip.x - dst.x; dx < clip.right() - dst.x; ++dx) {
    const int32_t sx =
        static_cast<int32_t>(static_cast<int64_t>(dx) * frame.width / dst.width);
    if (!runs.empty() && runs.back().sx == sx) {
      ++runs.back().len;
    } else {
      runs.push_back(Run{sx, 1});
    }
  }
  const int32_t cw = frame.width / 2;
  const size_t row_bytes = static_cast<size_t>(clip.width) * sizeof(Pixel);
  int32_t prev_sy = -1;
  const Pixel* prev_row = nullptr;
  for (int32_t y = clip.y; y < clip.bottom(); ++y) {
    Pixel* out = surface->mutable_row(y).data() + clip.x;
    const int32_t sy = static_cast<int32_t>(static_cast<int64_t>(y - dst.y) * frame.height /
                                            dst.height);
    if (sy == prev_sy) {
      // Upscaling repeats source rows: copy the row already converted.
      std::memcpy(out, prev_row, row_bytes);
      continue;
    }
    const uint8_t* luma = frame.y.data() + static_cast<size_t>(sy) * frame.width;
    const size_t chroma = static_cast<size_t>(sy / 2) * cw;
    const uint8_t* u = frame.u.data() + chroma;
    const uint8_t* v = frame.v.data() + chroma;
    Pixel* p = out;
    for (const Run& r : runs) {
      p = std::fill_n(p, r.len, YuvToRgb(luma[r.sx], u[r.sx / 2], v[r.sx / 2]));
    }
    prev_sy = sy;
    prev_row = out;
  }
}

Yv12Frame Yv12Downscale(const Yv12Frame& frame, int32_t dst_width, int32_t dst_height) {
  Yv12Frame out = Yv12Frame::Allocate(dst_width, dst_height);
  out.y = ResamplePlane(frame.y, frame.width, frame.height, out.width, out.height);
  out.v = ResamplePlane(frame.v, frame.width / 2, frame.height / 2, out.width / 2,
                        out.height / 2);
  out.u = ResamplePlane(frame.u, frame.width / 2, frame.height / 2, out.width / 2,
                        out.height / 2);
  return out;
}

}  // namespace thinc
