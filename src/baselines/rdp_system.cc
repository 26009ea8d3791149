#include "src/baselines/rdp_system.h"

#include <algorithm>
#include <cstring>

#include "src/codec/lzss.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// Fixed per-order processing overhead ("added overhead of supporting a
// complex set of display primitives").
constexpr double kOrderCost = 4.0;

// Relative cost of ICA's image processing: MetaFrame's richer pipeline
// costs more per update than RDP's.
constexpr double kIcaProcessingScale = 1.6;

uint64_t HashPixels(const Rect& rect, std::span<const Pixel> pixels) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  mix(static_cast<uint64_t>(rect.width));
  mix(static_cast<uint64_t>(rect.height));
  for (Pixel p : pixels) {
    mix(p);
  }
  return h;
}

// Decodes an image payload into `rect`'s pixels; false when it is malformed
// or does not hold exactly `rect`'s pixels.
bool DecodeImage(std::span<const uint8_t> encoded, const Rect& rect,
                 std::vector<Pixel>* pixels) {
  std::vector<uint8_t> raw;
  if (!LzssDecode(encoded, &raw) ||
      raw.size() != static_cast<size_t>(rect.area()) * sizeof(Pixel)) {
    return false;
  }
  pixels->resize(static_cast<size_t>(rect.area()));
  std::memcpy(pixels->data(), raw.data(), raw.size());
  return true;
}

}  // namespace

RdpSystem::RdpSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
                     int32_t screen_height, SystemKind kind, bool wan_profile)
    : WireBaseline(loop, link, screen_width, screen_height, kInput),
      ica_(kind == SystemKind::kIca), wan_profile_(wan_profile),
      client_fb_(screen_width, screen_height, kBlack) {
  THINC_CHECK(kind == SystemKind::kRdp || kind == SystemKind::kIca);
  server_ws_ = std::make_unique<WindowServer>(
      screen_width, screen_height, static_cast<DisplayDriver*>(this), &server_cpu_);
  Connect();
}

void RdpSystem::SetViewport(int32_t width, int32_t height) {
  viewport_ = Rect{0, 0, width, height};
  client_fb_ = Surface(width, height, kBlack);
}

// --- Driver hooks ---------------------------------------------------------------

void RdpSystem::OnFillSolid(DrawableId dst, const Region& region, Pixel color) {
  if (dst != kScreenDrawable) {
    return;
  }
  WireWriter w;
  w.RegionVal(region);
  w.U32(color);
  Send(kFill, w.Take(), server_cpu_.Charge(kOrderCost));
}

void RdpSystem::OnFillTiled(DrawableId dst, const Region& region, const Surface& tile,
                            Point origin) {
  if (dst != kScreenDrawable) {
    return;
  }
  WireWriter w;
  w.RegionVal(region);
  w.PointVal(origin);
  w.U16(static_cast<uint16_t>(tile.width()));
  w.U16(static_cast<uint16_t>(tile.height()));
  std::span<const Pixel> px = tile.pixels();
  w.Bytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(px.data()),
                                   px.size() * sizeof(Pixel)));
  Send(kTile, w.Take(), server_cpu_.Charge(kOrderCost));
}

void RdpSystem::OnFillStippled(DrawableId dst, const Region& region,
                               const Bitmap& stipple, Point origin, Pixel fg, Pixel bg,
                               bool transparent) {
  if (dst != kScreenDrawable) {
    return;
  }
  WireWriter w;
  w.RegionVal(region);
  w.PointVal(origin);
  w.U32(fg);
  w.U32(bg);
  w.U8(transparent ? 1 : 0);
  w.BitmapVal(stipple);
  Send(kGlyph, w.Take(), server_cpu_.Charge(kOrderCost));
}

void RdpSystem::OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
                       Point dst_origin) {
  if (dst != kScreenDrawable) {
    return;  // offscreen drawing invisible
  }
  Rect dst_rect{dst_origin.x, dst_origin.y, src_rect.width, src_rect.height};
  if (src == kScreenDrawable) {
    WireWriter w;
    w.RectVal(src_rect);
    w.PointVal(dst_origin);
    Send(kCopy, w.Take(), server_cpu_.Charge(kOrderCost));
    return;
  }
  // Copy from untracked offscreen memory: read back resulting pixels.
  Rect clipped = dst_rect.Intersect(server_ws_->screen().bounds());
  if (clipped.empty()) {
    return;
  }
  std::vector<Pixel> pixels = server_ws_->screen().GetPixels(clipped);
  SendImage(clipped, pixels, /*video_hint=*/false);
}

void RdpSystem::OnPutImage(DrawableId dst, const Rect& rect,
                           std::span<const Pixel> pixels) {
  if (dst != kScreenDrawable) {
    return;
  }
  // Direct on-screen image stores are the video fallback path; when the
  // compressor is saturated the source frame is simply skipped.
  if (server_cpu_.earliest_free() > loop_->now() + 100 * kMillisecond) {
    return;
  }
  SendImage(rect, pixels, /*video_hint=*/true);
}

void RdpSystem::OnComposite(DrawableId dst, const Rect& rect,
                            std::span<const Pixel> blended) {
  if (dst != kScreenDrawable) {
    return;
  }
  SendImage(rect, blended, /*video_hint=*/false);
}

// --- Server send paths ------------------------------------------------------------

void RdpSystem::SendImage(const Rect& rect, std::span<const Pixel> pixels,
                          bool video_hint) {
  uint64_t hash = HashPixels(rect, pixels);
  if (bitmap_cache_.contains(hash)) {
    // Cache hit: a 16-byte reference replaces the payload.
    WireWriter w;
    w.RectVal(rect);
    w.I64(static_cast<int64_t>(hash));
    Send(kImageCached, w.Take(), server_cpu_.Charge(kOrderCost));
    return;
  }

  std::span<const uint8_t> raw(reinterpret_cast<const uint8_t*>(pixels.data()),
                               pixels.size() * sizeof(Pixel));
  double cost = kOrderCost + cpucost::kLzssPerByte * static_cast<double>(raw.size());
  if (wan_profile_) {
    cost *= 1.5;  // tighter search in the WAN profile
  }
  if (ica_) {
    cost *= kIcaProcessingScale;
  }
  // Video frames are keyed by geometry: while the previous frame at this
  // rect waits untransmitted, the new one is dropped (SendQueue). A dropped
  // frame still costs its compression, but is neither encoded nor cached.
  const int64_t key = video_hint ? RectKey(rect) : -1;
  if (send_queue().WouldReject(key)) {
    server_cpu_.Charge(cost);
    return;
  }
  bitmap_cache_.insert(hash);
  std::vector<uint8_t> encoded = LzssEncode(raw);
  WireWriter w;
  w.RectVal(rect);
  w.I64(static_cast<int64_t>(hash));
  w.U32(static_cast<uint32_t>(raw.size()));
  w.U32(static_cast<uint32_t>(encoded.size()));
  w.Bytes(encoded);
  Send(kImage, w.Take(), server_cpu_.Charge(cost), key);
}

void RdpSystem::SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) {
  // Lossy ~4:1 audio codec ("lower audio fidelity due to compression").
  size_t compressed = pcm.size() / 4;
  WireWriter w;
  w.I64(timestamp);
  w.U32(static_cast<uint32_t>(pcm.size()));
  w.U32(static_cast<uint32_t>(compressed));
  std::vector<uint8_t> body(compressed, 0xAB);
  w.Bytes(body);
  Send(kAudio, w.Take(), server_cpu_.Charge(0.02 * static_cast<double>(pcm.size())));
}

// --- Client side -------------------------------------------------------------------

void RdpSystem::ApplyImage(const Rect& rect, std::span<const Pixel> pixels) {
  if (viewport_.has_value()) {
    if (ica_) {
      // ICA: resample full-size data on the (slow) client.
      ResampleOnto(&client_fb_, rect, pixels);
    } else {
      // RDP: clip — only the part inside the viewport window is visible.
      Rect visible = rect.Intersect(*viewport_);
      if (!visible.empty()) {
        std::vector<Pixel> sub(static_cast<size_t>(visible.area()));
        for (int32_t y = 0; y < visible.height; ++y) {
          const Pixel* from = pixels.data() +
                              static_cast<size_t>(visible.y - rect.y + y) * rect.width +
                              (visible.x - rect.x);
          std::copy(from, from + visible.width,
                    sub.begin() + static_cast<size_t>(y) * visible.width);
        }
        client_fb_.PutPixels(visible, sub);
      }
    }
  } else {
    client_fb_.PutPixels(rect, pixels);
  }
  UpdateDisplayed(Region(rect));
}

void RdpSystem::OnClientFrame(uint8_t type, std::span<const uint8_t> payload) {
  WireReader r(payload);
  client_cpu_.Charge(kOrderCost);  // per-order client processing
  switch (type) {
    case kFill: {
      Region region;
      uint32_t color;
      if (r.RegionVal(&region) && r.U32(&color)) {
        if (viewport_.has_value() && !ica_) {
          region = region.Intersect(*viewport_);
        }
        // Under ICA resize, fills keep coordinates; approximate by scaling
        // their bounds through the image path for simplicity: fills are
        // cheap either way, so apply full-size semantics only when
        // unscaled.
        if (!viewport_.has_value() || !ica_) {
          client_fb_.FillRegion(region, color);
        } else {
          client_fb_.FillRect(ScaleOnto(client_fb_, region.Bounds()), color);
        }
      }
      break;
    }
    case kTile: {
      Region region;
      Point origin;
      uint16_t tw, th;
      if (r.RegionVal(&region) && r.PointVal(&origin) && r.U16(&tw) && r.U16(&th)) {
        std::vector<uint8_t> bytes;
        if (r.Bytes(static_cast<size_t>(tw) * th * sizeof(Pixel), &bytes)) {
          Surface tile(tw, th);
          std::vector<Pixel> px(static_cast<size_t>(tw) * th);
          std::memcpy(px.data(), bytes.data(), bytes.size());
          tile.PutPixels(Rect{0, 0, tw, th}, px);
          if (viewport_.has_value()) {
            if (ica_) {
              break;  // ICA small-screen: folded into resampled image traffic
            }
            region = region.Intersect(*viewport_);
          }
          client_fb_.FillTiled(region, tile, origin);
        }
      }
      break;
    }
    case kGlyph: {
      Region region;
      Point origin;
      uint32_t fg, bg;
      uint8_t transparent;
      Bitmap stipple;
      if (r.RegionVal(&region) && r.PointVal(&origin) && r.U32(&fg) && r.U32(&bg) &&
          r.U8(&transparent) && r.BitmapVal(&stipple)) {
        if (viewport_.has_value()) {
          if (ica_) {
            break;  // ICA small-screen: folded into resampled image traffic
          }
          region = region.Intersect(*viewport_);
        }
        client_fb_.FillStippled(region, stipple, origin, fg, bg, transparent != 0);
      }
      break;
    }
    case kCopy: {
      Rect src;
      Point dst;
      if (r.RectVal(&src) && r.PointVal(&dst) && !viewport_.has_value()) {
        client_fb_.CopyFrom(client_fb_, src, dst);
      }
      break;
    }
    case kImage: {
      Rect rect;
      int64_t hash;
      uint32_t raw_len, enc_len;
      if (!r.RectVal(&rect) || !r.I64(&hash) || !r.U32(&raw_len) ||
          !r.U32(&enc_len)) {
        break;
      }
      std::vector<uint8_t> encoded;
      if (!r.Bytes(enc_len, &encoded)) {
        break;
      }
      std::vector<Pixel> pixels;
      if (!DecodeImage(encoded, rect, &pixels) ||
          pixels.size() * sizeof(Pixel) != raw_len) {
        break;
      }
      client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(enc_len));
      ApplyImage(rect, pixels);
      client_cache_[static_cast<uint64_t>(hash)] = std::move(encoded);
      break;
    }
    case kImageCached: {
      // A hit pays the per-order charge above but no decode charge.
      Rect rect;
      int64_t hash;
      if (!r.RectVal(&rect) || !r.I64(&hash)) {
        break;
      }
      auto it = client_cache_.find(static_cast<uint64_t>(hash));
      std::vector<Pixel> pixels;
      if (it != client_cache_.end() && DecodeImage(it->second, rect, &pixels)) {
        ApplyImage(rect, pixels);
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
