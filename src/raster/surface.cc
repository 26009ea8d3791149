#include "src/raster/surface.h"

#include <algorithm>
#include <cstring>

#include "src/util/logging.h"

namespace thinc {

Surface::Surface(int32_t width, int32_t height, Pixel fill)
    : width_(width), height_(height) {
  THINC_CHECK(width >= 0 && height >= 0);
  // Copy one filled row down the surface: the bulk moves through memcpy.
  // A per-pixel fill loop ran several times slower, and its speed swung by
  // ~40% with where the linker happened to place it; every session set-up
  // fills at least two framebuffers.
  const std::vector<Pixel> row(static_cast<size_t>(width), fill);
  pixels_.reserve(static_cast<size_t>(width) * height);
  for (int32_t y = 0; y < height; ++y) {
    pixels_.insert(pixels_.end(), row.begin(), row.end());
  }
}

void Surface::FillRect(const Rect& r, Pixel color) {
  Rect c = Clip(r);
  if (c.empty()) {
    return;
  }
  for (int32_t y = c.y; y < c.bottom(); ++y) {
    Pixel* p = pixels_.data() + static_cast<size_t>(y) * width_ + c.x;
    std::fill(p, p + c.width, color);
  }
}

void Surface::FillRegion(const Region& region, Pixel color) {
  for (const Rect& r : region.rects()) {
    FillRect(r, color);
  }
}

void Surface::FillTiled(const Region& region, const Surface& tile, Point origin) {
  if (tile.empty()) {
    return;
  }
  for (const Rect& rr : region.rects()) {
    Rect c = Clip(rr);
    for (int32_t y = c.y; y < c.bottom(); ++y) {
      int32_t ty = (y - origin.y) % tile.height();
      if (ty < 0) {
        ty += tile.height();
      }
      for (int32_t x = c.x; x < c.right(); ++x) {
        int32_t tx = (x - origin.x) % tile.width();
        if (tx < 0) {
          tx += tile.width();
        }
        Put(x, y, tile.At(tx, ty));
      }
    }
  }
}

void Surface::FillStippled(const Region& region, const Bitmap& stipple, Point origin,
                           Pixel fg, Pixel bg, bool transparent_bg) {
  if (stipple.empty()) {
    return;
  }
  for (const Rect& rr : region.rects()) {
    Rect c = Clip(rr);
    for (int32_t y = c.y; y < c.bottom(); ++y) {
      int32_t sy = y - origin.y;
      if (sy < 0 || sy >= stipple.height()) {
        if (!transparent_bg) {
          for (int32_t x = c.x; x < c.right(); ++x) {
            Put(x, y, bg);
          }
        }
        continue;
      }
      for (int32_t x = c.x; x < c.right(); ++x) {
        int32_t sx = x - origin.x;
        bool on = sx >= 0 && sx < stipple.width() && stipple.Get(sx, sy);
        if (on) {
          Put(x, y, fg);
        } else if (!transparent_bg) {
          Put(x, y, bg);
        }
      }
    }
  }
}

void Surface::CopyFrom(const Surface& src, const Rect& src_rect, Point dst_origin) {
  // Clip the source rect against the source bounds, then the implied dest
  // rect against our bounds, keeping the two in correspondence.
  Rect s = src_rect.Intersect(src.bounds());
  if (s.empty()) {
    return;
  }
  Point d{dst_origin.x + (s.x - src_rect.x), dst_origin.y + (s.y - src_rect.y)};
  Rect dst = Rect{d.x, d.y, s.width, s.height}.Intersect(bounds());
  if (dst.empty()) {
    return;
  }
  s = Rect{s.x + (dst.x - d.x), s.y + (dst.y - d.y), dst.width, dst.height};

  const bool same = (&src == this);
  const size_t row_bytes = static_cast<size_t>(dst.width) * sizeof(Pixel);
  if (!same || dst.y < s.y || (dst.y == s.y && dst.x <= s.x)) {
    // Top-to-bottom is safe (memmove handles same-row overlap).
    for (int32_t i = 0; i < dst.height; ++i) {
      const Pixel* from =
          src.pixels_.data() + static_cast<size_t>(s.y + i) * src.width_ + s.x;
      Pixel* to = pixels_.data() + static_cast<size_t>(dst.y + i) * width_ + dst.x;
      std::memmove(to, from, row_bytes);
    }
  } else {
    for (int32_t i = dst.height - 1; i >= 0; --i) {
      const Pixel* from =
          src.pixels_.data() + static_cast<size_t>(s.y + i) * src.width_ + s.x;
      Pixel* to = pixels_.data() + static_cast<size_t>(dst.y + i) * width_ + dst.x;
      std::memmove(to, from, row_bytes);
    }
  }
}

void Surface::PutPixels(const Rect& rect, std::span<const Pixel> data) {
  THINC_CHECK(static_cast<int64_t>(data.size()) >= rect.area());
  Rect c = Clip(rect);
  for (int32_t y = c.y; y < c.bottom(); ++y) {
    const Pixel* from =
        data.data() + static_cast<size_t>(y - rect.y) * rect.width + (c.x - rect.x);
    Pixel* to = pixels_.data() + static_cast<size_t>(y) * width_ + c.x;
    std::memcpy(to, from, static_cast<size_t>(c.width) * sizeof(Pixel));
  }
}

void Surface::CompositeOver(const Rect& rect, std::span<const Pixel> data) {
  THINC_CHECK(static_cast<int64_t>(data.size()) >= rect.area());
  Rect c = Clip(rect);
  for (int32_t y = c.y; y < c.bottom(); ++y) {
    for (int32_t x = c.x; x < c.right(); ++x) {
      Pixel src =
          data[static_cast<size_t>(y - rect.y) * rect.width + (x - rect.x)];
      Put(x, y, BlendOver(src, At(x, y)));
    }
  }
}

std::vector<Pixel> Surface::GetPixels(const Rect& rect) const {
  std::vector<Pixel> out(static_cast<size_t>(rect.area()), 0);
  Rect c = Clip(rect);
  for (int32_t y = c.y; y < c.bottom(); ++y) {
    const Pixel* from = pixels_.data() + static_cast<size_t>(y) * width_ + c.x;
    Pixel* to =
        out.data() + static_cast<size_t>(y - rect.y) * rect.width + (c.x - rect.x);
    std::memcpy(to, from, static_cast<size_t>(c.width) * sizeof(Pixel));
  }
  return out;
}

Surface Surface::SubSurface(const Rect& rect) const {
  Surface out(rect.width, rect.height);
  out.PutPixels(Rect{0, 0, rect.width, rect.height}, GetPixels(rect));
  return out;
}

bool Surface::Equals(const Surface& other, int64_t* diff_pixels) const {
  if (width_ != other.width_ || height_ != other.height_) {
    if (diff_pixels != nullptr) {
      *diff_pixels = static_cast<int64_t>(pixels_.size());
    }
    return false;
  }
  int64_t diffs = 0;
  for (size_t i = 0; i < pixels_.size(); ++i) {
    if (pixels_[i] != other.pixels_[i]) {
      ++diffs;
    }
  }
  if (diff_pixels != nullptr) {
    *diff_pixels = diffs;
  }
  return diffs == 0;
}

uint64_t Surface::ContentHash() const {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  mix(static_cast<uint64_t>(width_));
  mix(static_cast<uint64_t>(height_));
  for (Pixel p : pixels_) {
    mix(p);
  }
  return h;
}

}  // namespace thinc
