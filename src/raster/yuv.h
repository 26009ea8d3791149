// YV12 (planar YUV 4:2:0) conversion and scaling.
//
// THINC transmits video as YV12 frames (Section 4.2/7 of the paper): the
// server hands decoded frames to the driver in YV12, the wire carries the
// 12-bits-per-pixel planes, and the client's display hardware performs color
// space conversion plus scaling to the on-screen size. These routines model
// both ends: the application/decoder side (RGB -> YV12 for synthetic video)
// and the client hardware (YV12 -> RGB at an arbitrary output size).
#ifndef THINC_SRC_RASTER_YUV_H_
#define THINC_SRC_RASTER_YUV_H_

#include <cstdint>
#include <vector>

#include "src/raster/surface.h"

namespace thinc {

// A planar YV12 frame. Plane order follows the YV12 fourcc: Y then V then U.
// Width and height are rounded up to even internally.
struct Yv12Frame {
  int32_t width = 0;
  int32_t height = 0;
  std::vector<uint8_t> y;  // width * height
  std::vector<uint8_t> v;  // (width/2) * (height/2)
  std::vector<uint8_t> u;  // (width/2) * (height/2)

  static Yv12Frame Allocate(int32_t width, int32_t height);

  // Total payload bytes: the famous 1.5 bytes per pixel.
  size_t byte_size() const { return y.size() + v.size() + u.size(); }

  // Serializes/deserializes the planes as one contiguous buffer (wire form).
  std::vector<uint8_t> Pack() const;
  static Yv12Frame Unpack(int32_t width, int32_t height,
                          const std::vector<uint8_t>& data);
};

// BT.601 full-range conversion of an RGB surface into YV12 with 2x2 chroma
// subsampling (averaged).
Yv12Frame RgbToYv12(const Surface& rgb);

// Converts a YV12 frame to RGB at the frame's native size.
Surface Yv12ToRgb(const Yv12Frame& frame);

// Models the client's hardware overlay: converts the frame and scales it to
// `dst_width` x `dst_height` in one pass, sampling the nearest source pixel.
// Scaling is free on real overlay hardware, which is why full-screen
// playback costs no extra bandwidth in THINC.
Surface Yv12ScaleToRgb(const Yv12Frame& frame, int32_t dst_width, int32_t dst_height);

// The same conversion written straight into `dst` on `surface`, clipped to
// the surface: exactly the pixels PutPixels(dst, Yv12ScaleToRgb(frame,
// dst.width, dst.height)) would leave, without the intermediate image.
void Yv12ScaleInto(const Yv12Frame& frame, const Rect& dst, Surface* surface);

// Server-side downscale of a YV12 frame (used for small-screen clients so
// video bandwidth shrinks with the viewport, Section 8.3). Box-filters each
// plane.
Yv12Frame Yv12Downscale(const Yv12Frame& frame, int32_t dst_width, int32_t dst_height);

}  // namespace thinc

#endif  // THINC_SRC_RASTER_YUV_H_
