// Surface: an owning 32-bit ARGB pixel buffer plus the 2D raster operations
// that both the window-server substrate and the thin-client implementations
// need: solid/tiled/stippled fills, overlap-safe copies, image stores, and
// Porter-Duff compositing.
//
// These are exactly the operations a 2D video driver is asked to perform
// (the XAA/KAA hook set the paper builds on), so the same engine serves as
// the server's reference renderer, the software-fallback driver, and the
// client's emulated display hardware.
#ifndef THINC_SRC_RASTER_SURFACE_H_
#define THINC_SRC_RASTER_SURFACE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/raster/bitmap.h"
#include "src/util/geometry.h"
#include "src/util/pixel.h"
#include "src/util/region.h"

namespace thinc {

class Surface {
 public:
  Surface() = default;
  Surface(int32_t width, int32_t height, Pixel fill = 0);

  int32_t width() const { return width_; }
  int32_t height() const { return height_; }
  Rect bounds() const { return Rect{0, 0, width_, height_}; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  Pixel At(int32_t x, int32_t y) const {
    return pixels_[static_cast<size_t>(y) * width_ + x];
  }
  void Put(int32_t x, int32_t y, Pixel p) {
    pixels_[static_cast<size_t>(y) * width_ + x] = p;
  }
  std::span<const Pixel> row(int32_t y) const {
    return {pixels_.data() + static_cast<size_t>(y) * width_,
            static_cast<size_t>(width_)};
  }
  std::span<Pixel> mutable_row(int32_t y) {
    return {pixels_.data() + static_cast<size_t>(y) * width_, static_cast<size_t>(width_)};
  }
  std::span<const Pixel> pixels() const { return pixels_; }

  // --- Fill operations -----------------------------------------------------

  void FillRect(const Rect& r, Pixel color);
  void FillRegion(const Region& region, Pixel color);

  // Tiles `tile` across the region; the tile is anchored at `origin` in this
  // surface's coordinate space (matching X's tile origin semantics).
  void FillTiled(const Region& region, const Surface& tile, Point origin);

  // Stipple fill: where the bitmap (anchored at `origin`) has a 1 bit, paint
  // fg; where 0, paint bg unless `transparent_bg` (then leave destination).
  void FillStippled(const Region& region, const Bitmap& stipple, Point origin, Pixel fg,
                    Pixel bg, bool transparent_bg);

  // --- Copy / store --------------------------------------------------------

  // Copies `src_rect` from `src` so that its origin lands at `dst_origin`.
  // Handles overlapping self-copies correctly (scrolling).
  void CopyFrom(const Surface& src, const Rect& src_rect, Point dst_origin);

  // Stores a pixel array (row-major, rect.width * rect.height) into `rect`.
  void PutPixels(const Rect& rect, std::span<const Pixel> data);

  // Composites a non-premultiplied ARGB array over the destination.
  void CompositeOver(const Rect& rect, std::span<const Pixel> data);

  // Reads `rect` out as a packed row-major pixel array.
  std::vector<Pixel> GetPixels(const Rect& rect) const;

  // Extracts a rect into a standalone Surface.
  Surface SubSurface(const Rect& rect) const;

  // Compares contents; mismatch count is written to *diff_pixels if non-null.
  bool Equals(const Surface& other, int64_t* diff_pixels = nullptr) const;

  // FNV-1a content hash over dimensions and pixels; cheap fidelity check.
  uint64_t ContentHash() const;

 private:
  // Clips `r` against bounds.
  Rect Clip(const Rect& r) const { return r.Intersect(bounds()); }

  int32_t width_ = 0;
  int32_t height_ = 0;
  std::vector<Pixel> pixels_;
};

}  // namespace thinc

#endif  // THINC_SRC_RASTER_SURFACE_H_
