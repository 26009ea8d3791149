#include "src/baselines/sunray_system.h"

#include <algorithm>
#include <cstring>

#include "src/codec/lzss.h"
#include "src/codec/rle32.h"
#include "src/util/logging.h"

namespace thinc {

SunRaySystem::SunRaySystem(EventLoop* loop, const LinkParams& link,
                           int32_t screen_width, int32_t screen_height,
                           bool wan_profile)
    : WireBaseline(loop, link, screen_width, screen_height, kInput),
      wan_profile_(wan_profile), client_fb_(screen_width, screen_height, kBlack) {
  server_ws_ = std::make_unique<WindowServer>(
      screen_width, screen_height, static_cast<DisplayDriver*>(this), &server_cpu_);
  Connect();
}

void SunRaySystem::SendFill(const Region& region, Pixel color) {
  WireWriter w;
  w.RegionVal(region);
  w.U32(color);
  Send(kFill, w.Take(), server_cpu_.Charge(1.0));
}

void SunRaySystem::SendCopy(const Rect& src_rect, Point dst_origin) {
  WireWriter w;
  w.RectVal(src_rect);
  w.PointVal(dst_origin);
  Send(kCopy, w.Take(), server_cpu_.Charge(1.0));
}

void SunRaySystem::InferRegion(DrawableId dst, const Region& region) {
  if (dst != kScreenDrawable) {
    return;  // offscreen drawing is ignored entirely
  }
  for (const Rect& r : region.rects()) {
    InferAndSend(r, /*from_video=*/false);
  }
}

void SunRaySystem::InferAndSend(const Rect& rect, bool from_video) {
  // Sampling works tile-by-tile: a mixed update decomposes into solid,
  // two-color (text) and pixel tiles. Video goes whole (one coalescible
  // unit).
  constexpr int32_t kTile = 128;
  if (!from_video && (rect.width > kTile || rect.height > kTile)) {
    for (int32_t ty = rect.y; ty < rect.bottom(); ty += kTile) {
      for (int32_t tx = rect.x; tx < rect.right(); tx += kTile) {
        InferTile(Rect{tx, ty, std::min(kTile, rect.right() - tx),
                       std::min(kTile, rect.bottom() - ty)});
      }
    }
    return;
  }
  InferTile(rect);
}

void SunRaySystem::InferTile(const Rect& rect) {
  std::vector<Pixel> pixels = server_ws_->screen().GetPixels(rect);
  const double raw_bytes = static_cast<double>(pixels.size() * sizeof(Pixel));
  // "Reduced to pixel data then sampled": per-pixel analysis cost.
  double cost = static_cast<double>(rect.area()) * cpucost::kPixelAnalysisPerPixel;

  // Uniform-color detection recovers a solid fill; two colors recover a
  // bitmap (text over background).
  Pixel c0 = pixels.empty() ? 0 : pixels[0];
  Pixel c1 = c0;
  int distinct = pixels.empty() ? 0 : 1;
  for (Pixel p : pixels) {
    if (p == c0 || (distinct == 2 && p == c1)) {
      continue;
    }
    if (distinct == 1) {
      c1 = p;
      distinct = 2;
    } else {
      distinct = 3;
      break;
    }
  }
  if (distinct == 1) {
    server_cpu_.Charge(cost);
    SendFill(Region(rect), c0);
    return;
  }
  if (distinct != 2) {
    // A pixel update also pays for its encode: LZSS in the WAN profile,
    // else RLE.
    cost += (wan_profile_ ? cpucost::kLzssPerByte : cpucost::kRlePerByte) *
            raw_bytes;
  }
  // Bitmap and pixel updates are keyed by their rect: while the previous
  // one there waits untransmitted, this one is dropped (SendQueue). A
  // dropped update still costs its analysis and encode, but is never built.
  const int64_t key = RectKey(rect);
  if (send_queue().WouldReject(key)) {
    server_cpu_.Charge(cost);
    return;
  }
  if (distinct == 2) {
    // This update ships when its analysis completes.
    SimTime analyzed_at = server_cpu_.Charge(cost);
    Bitmap mask(rect.width, rect.height);
    for (int32_t y = 0; y < rect.height; ++y) {
      for (int32_t x = 0; x < rect.width; ++x) {
        if (pixels[static_cast<size_t>(y) * rect.width + x] == c1) {
          mask.Set(x, y, true);
        }
      }
    }
    WireWriter w;
    w.RectVal(rect);
    w.U32(c0);
    w.U32(c1);
    w.BitmapVal(mask);
    Send(kBitmapFill, w.Take(), analyzed_at, key);
    return;
  }

  std::span<const uint8_t> raw(reinterpret_cast<const uint8_t*>(pixels.data()),
                               pixels.size() * sizeof(Pixel));
  // Fast-link profile (mode 0): pixel-granular RLE, cheap and effective on
  // flat regions.
  const uint8_t mode = wan_profile_ ? 1 : 0;
  std::vector<uint8_t> encoded = mode == 1 ? LzssEncode(raw) : Rle32Encode(pixels);
  WireWriter w;
  w.RectVal(rect);
  w.U8(mode);
  w.U32(static_cast<uint32_t>(raw.size()));
  w.U32(static_cast<uint32_t>(encoded.size()));
  w.Bytes(encoded);
  Send(kRaw, w.Take(), server_cpu_.Charge(cost), key);
}

void SunRaySystem::OnClientFrame(uint8_t type, std::span<const uint8_t> payload) {
  WireReader r(payload);
  switch (type) {
    case kFill: {
      Region region;
      uint32_t color;
      if (r.RegionVal(&region) && r.U32(&color)) {
        client_fb_.FillRegion(region, color);
        client_cpu_.Charge(1.0);
      }
      break;
    }
    case kCopy: {
      Rect src;
      Point dst;
      if (r.RectVal(&src) && r.PointVal(&dst)) {
        client_fb_.CopyFrom(client_fb_, src, dst);
        client_cpu_.Charge(1.0);
      }
      break;
    }
    case kRaw: {
      Rect rect;
      uint8_t mode;
      uint32_t raw_len, enc_len;
      if (!r.RectVal(&rect) || !r.U8(&mode) || !r.U32(&raw_len) || !r.U32(&enc_len)) {
        break;
      }
      std::vector<uint8_t> encoded;
      if (!r.Bytes(enc_len, &encoded)) {
        break;
      }
      std::vector<Pixel> pixels;
      if (mode == 1) {
        std::vector<uint8_t> raw;
        if (!LzssDecode(encoded, &raw) || raw.size() != raw_len ||
            raw.size() != static_cast<size_t>(rect.area()) * sizeof(Pixel)) {
          break;
        }
        pixels.resize(static_cast<size_t>(rect.area()));
        std::memcpy(pixels.data(), raw.data(), raw.size());
      } else {
        if (!Rle32Decode(encoded, &pixels) ||
            pixels.size() != static_cast<size_t>(rect.area())) {
          break;
        }
      }
      client_fb_.PutPixels(rect, pixels);
      client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(enc_len));
      UpdateDisplayed(Region(rect));
      break;
    }
    case kBitmapFill: {
      Rect rect;
      uint32_t bg, fg;
      Bitmap mask;
      if (r.RectVal(&rect) && r.U32(&bg) && r.U32(&fg) && r.BitmapVal(&mask)) {
        client_fb_.FillStippled(Region(rect), mask, rect.origin(), fg, bg,
                                /*transparent_bg=*/false);
        client_cpu_.Charge(0.002 * static_cast<double>(rect.area()));
      }
      break;
    }
    case kAudio:
      CountAudio(payload);
      break;
    default:
      break;
  }
}

}  // namespace thinc
