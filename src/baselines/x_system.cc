#include "src/baselines/x_system.h"

#include <cstring>

#include "src/codec/lzss.h"
#include "src/codec/pnglike.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// One synchronous (round-trip) request per this many requests.
constexpr int32_t kXSyncEvery = 15;
constexpr int32_t kNxSyncEvery = 150;

// Quantization used by the NX image profiles: RGB565 for the default
// (mildly lossy) profile, RGB444 for the aggressive WAN profile.
Pixel QuantizeNx(Pixel p, bool rgb444) {
  if (rgb444) {
    uint8_t r = PixelR(p) & 0xF0;
    uint8_t g = PixelG(p) & 0xF0;
    uint8_t b = PixelB(p) & 0xF0;
    return MakePixel(r | (r >> 4), g | (g >> 4), b | (b >> 4), PixelA(p));
  }
  uint8_t r = PixelR(p) & 0xF8;
  uint8_t g = PixelG(p) & 0xFC;
  uint8_t b = PixelB(p) & 0xF8;
  r |= r >> 5;
  g |= g >> 6;
  b |= b >> 5;
  return MakePixel(r, g, b, PixelA(p));
}

}  // namespace

XSystem::XSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
                 int32_t screen_height, SystemKind kind, bool wan_profile)
    : WireBaseline(loop, link, screen_width, screen_height, kInput),
      nx_(kind == SystemKind::kNx), wan_profile_(wan_profile), rtt_(link.rtt),
      client_ws_(std::make_unique<WindowServer>(screen_width, screen_height,
                                                /*driver=*/nullptr, &client_cpu_)) {
  THINC_CHECK(kind == SystemKind::kX || kind == SystemKind::kNx);
  Connect();
}

void XSystem::Submit(Msg type, WireWriter* body, bool image_payload,
                     const Rect* image_rect, std::span<const Pixel> image) {
  const int32_t sync_every = nx_ ? kNxSyncEvery : kXSyncEvery;
  // Serialize the request body.
  std::vector<uint8_t> raw = body->Take();
  if (image_payload) {
    // Image payloads append rect + pixels; NX substitutes its own codec.
    if (nx_) {
      std::vector<Pixel> px(image.begin(), image.end());
      for (Pixel& p : px) {
        p = QuantizeNx(p, /*rgb444=*/wan_profile_);
      }
      std::vector<uint8_t> png =
          PngLikeEncode(px, image_rect->width, image_rect->height);
      // The NX image pipeline is multi-pass (differential protocol encoding
      // plus the image codec plus the ZLIB stream layer): roughly 3x the
      // cost of THINC's single PNG pass. The request leaves when its encode
      // completes.
      SimTime release =
          server_cpu_.Charge(3 * cpucost::kPngLikePerByte *
                             static_cast<double>(px.size() * sizeof(Pixel)));
      WireWriter out;
      out.U8(static_cast<uint8_t>(BodyCodec::kPngLike));
      out.U32(static_cast<uint32_t>(raw.size()));
      out.Bytes(raw);
      out.RectVal(*image_rect);
      out.U32(static_cast<uint32_t>(png.size()));
      out.Bytes(png);
      Send(type, out.Take(), release);
      ++request_count_;
      if (request_count_ % sync_every == 0) {
        app_gate_ = std::max(app_gate_, release) + rtt_;
      }
      return;
    }
    WireWriter iw;
    iw.RectVal(*image_rect);
    iw.Bytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(image.data()),
                                      image.size() * sizeof(Pixel)));
    std::vector<uint8_t> img = iw.Take();
    raw.insert(raw.end(), img.begin(), img.end());
  }

  // ssh -C style stream compression of the request.
  std::vector<uint8_t> packed = LzssEncode(raw);
  SimTime compressed_at =
      server_cpu_.Charge(cpucost::kLzssPerByte * static_cast<double>(raw.size()));
  WireWriter out;
  out.U8(static_cast<uint8_t>(BodyCodec::kLzss));
  out.U32(static_cast<uint32_t>(raw.size()));
  out.Bytes(packed);
  // The request leaves once the app has produced it (CPU) and is past any
  // synchronization stall.
  SimTime release = std::max(compressed_at, app_gate_);
  Send(type, out.Take(), release);
  ++request_count_;
  if (request_count_ % sync_every == 0) {
    // The app now blocks until the X server's reply makes the round trip.
    app_gate_ = release + rtt_;
  }
}

// --- DrawingApi proxy ---------------------------------------------------------

DrawableId XSystem::CreatePixmap(int32_t width, int32_t height) {
  FlushPendingImage();
  // Ids are allocated deterministically on both sides; the client performs
  // the actual allocation when the request arrives.
  WireWriter w;
  w.I32(width);
  w.I32(height);
  Submit(kCreatePixmap, &w);
  return next_pixmap_id_++;
}

void XSystem::FreePixmap(DrawableId id) {
  FlushPendingImage();
  WireWriter w;
  w.U32(id);
  Submit(kFreePixmap, &w);
}

void XSystem::FillRect(DrawableId dst, const Rect& rect, Pixel color) {
  FlushPendingImage();
  WireWriter w;
  w.U32(dst);
  w.RectVal(rect);
  w.U32(color);
  Submit(kFillRect, &w);
}

void XSystem::FillTiled(DrawableId dst, const Rect& rect, const Surface& tile,
                        Point origin) {
  FlushPendingImage();
  WireWriter w;
  w.U32(dst);
  w.RectVal(rect);
  w.PointVal(origin);
  w.U16(static_cast<uint16_t>(tile.width()));
  w.U16(static_cast<uint16_t>(tile.height()));
  std::span<const Pixel> px = tile.pixels();
  w.Bytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(px.data()),
                                   px.size() * sizeof(Pixel)));
  Submit(kFillTiled, &w);
}

void XSystem::FillStippled(DrawableId dst, const Rect& rect, const Bitmap& stipple,
                           Point origin, Pixel fg, Pixel bg, bool transparent_bg) {
  FlushPendingImage();
  WireWriter w;
  w.U32(dst);
  w.RectVal(rect);
  w.PointVal(origin);
  w.U32(fg);
  w.U32(bg);
  w.U8(transparent_bg ? 1 : 0);
  w.BitmapVal(stipple);
  Submit(kFillStippled, &w);
}

void XSystem::DrawText(DrawableId dst, Point origin, std::string_view text, Pixel fg) {
  FlushPendingImage();
  // X core text: the string itself crosses the wire — X's most
  // bandwidth-efficient case.
  WireWriter w;
  w.U32(dst);
  w.PointVal(origin);
  w.U32(fg);
  w.U32(static_cast<uint32_t>(text.size()));
  w.Bytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(text.data()),
                                   text.size()));
  Submit(kDrawText, &w);
}

void XSystem::PutImage(DrawableId dst, const Rect& rect,
                       std::span<const Pixel> pixels) {
  // Coalesce scanline strips (Xlib request buffering): rasterizers store
  // images in consecutive row batches, which leave the client library as
  // one request.
  if (!pending_image_rect_.empty() && pending_image_dst_ == dst &&
      rect.x == pending_image_rect_.x && rect.width == pending_image_rect_.width &&
      rect.y == pending_image_rect_.bottom()) {
    pending_image_pixels_.insert(pending_image_pixels_.end(), pixels.begin(),
                                 pixels.end());
    pending_image_rect_.height += rect.height;
    return;
  }
  FlushPendingImage();
  pending_image_dst_ = dst;
  pending_image_rect_ = rect;
  pending_image_pixels_.assign(pixels.begin(), pixels.end());
}

void XSystem::FlushPendingImage() {
  if (pending_image_rect_.empty()) {
    return;
  }
  WireWriter w;
  w.U32(pending_image_dst_);
  Rect rect = pending_image_rect_;
  pending_image_rect_ = Rect{};
  std::vector<Pixel> pixels = std::move(pending_image_pixels_);
  pending_image_pixels_ = {};
  Submit(kPutImage, &w, /*image_payload=*/true, &rect, pixels);
}

void XSystem::CopyArea(DrawableId src, DrawableId dst, const Rect& src_rect,
                       Point dst_origin) {
  FlushPendingImage();
  WireWriter w;
  w.U32(src);
  w.U32(dst);
  w.RectVal(src_rect);
  w.PointVal(dst_origin);
  Submit(kCopyArea, &w);
}

void XSystem::CompositeOver(DrawableId dst, const Rect& rect,
                            std::span<const Pixel> argb) {
  FlushPendingImage();
  WireWriter w;
  w.U32(dst);
  Submit(kComposite, &w, /*image_payload=*/true, &rect, argb);
}

void XSystem::ScrollUp(DrawableId dst, const Rect& rect, int32_t dy, Pixel fill) {
  FlushPendingImage();
  WireWriter w;
  w.U32(dst);
  w.RectVal(rect);
  w.I32(dy);
  w.U32(fill);
  Submit(kScroll, &w);
}

int32_t XSystem::VideoStreamCreate(int32_t src_width, int32_t src_height,
                                   const Rect& dst) {
  int32_t id = next_stream_id_++;
  streams_[id] = dst;
  return id;
}

void XSystem::VideoFrame(int32_t stream_id, const Yv12Frame& frame) {
  FlushPendingImage();
  auto it = streams_.find(stream_id);
  THINC_CHECK(it != streams_.end());
  // Outbound backlog beyond which the video player drops frames.
  constexpr size_t kVideoDropBacklog = 4 << 20;
  if (send_queue().queued_bytes() > kVideoDropBacklog ||
      server_cpu_.earliest_free() > loop_->now() + 100 * kMillisecond) {
    // Connection backed up or the compressor can't keep up: the player
    // skips this frame.
    return;
  }
  // No remote XVideo: the player color-converts and scales on the server
  // CPU, then ships full-size RGB.
  const Rect& dst = it->second;
  Surface rgb = Yv12ScaleToRgb(frame, dst.width, dst.height);
  server_cpu_.Charge(static_cast<double>(dst.area()) * cpucost::kColorConvertPerPixel);
  if (nx_) {
    // NX's differential codec degenerates on always-changing video content:
    // the delta pass is pure overhead before the entropy stage — the reason
    // NX posts the worst LAN video quality in the paper (12%).
    server_cpu_.Charge(0.12 * static_cast<double>(dst.area()) * sizeof(Pixel));
  }
  WireWriter w;
  w.U32(kScreenDrawable);
  Submit(kVideoImage, &w, /*image_payload=*/true, &dst, rgb.pixels());
}

void XSystem::VideoStreamDestroy(int32_t stream_id) { streams_.erase(stream_id); }

// --- Client side ---------------------------------------------------------------

void XSystem::OnClientFrame(uint8_t type, std::span<const uint8_t> payload) {
  if (type == kAudio) {
    CountAudio(payload);
    return;
  }

  // Decompress the request body on the client CPU.
  WireReader outer(payload);
  uint8_t codec_byte;
  uint32_t raw_len;
  if (!outer.U8(&codec_byte) || !outer.U32(&raw_len)) {
    return;
  }
  std::vector<uint8_t> raw;
  std::vector<Pixel> image_pixels;
  Rect image_rect;
  if (static_cast<BodyCodec>(codec_byte) == BodyCodec::kPngLike) {
    if (!outer.Bytes(raw_len, &raw)) {
      return;
    }
    uint32_t png_len;
    if (!outer.RectVal(&image_rect) || !outer.U32(&png_len)) {
      return;
    }
    std::vector<uint8_t> png;
    if (!outer.Bytes(png_len, &png)) {
      return;
    }
    if (!PngLikeDecode(png, image_rect.width, image_rect.height, &image_pixels)) {
      return;
    }
    client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(png.size()) * 2);
  } else {
    std::vector<uint8_t> rest;
    outer.Bytes(outer.remaining(), &rest);
    if (!LzssDecode(rest, &raw) || raw.size() != raw_len) {
      return;
    }
    client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(raw.size()));
  }

  WireReader r(raw);
  switch (type) {
    case kCreatePixmap: {
      int32_t w, h;
      if (r.I32(&w) && r.I32(&h)) {
        client_ws_->CreatePixmap(w, h);
      }
      break;
    }
    case kFreePixmap: {
      uint32_t id;
      if (r.U32(&id)) {
        client_ws_->FreePixmap(id);
      }
      break;
    }
    case kFillRect: {
      uint32_t dst;
      Rect rect;
      uint32_t color;
      if (r.U32(&dst) && r.RectVal(&rect) && r.U32(&color)) {
        client_ws_->FillRect(dst, rect, color);
      }
      break;
    }
    case kFillTiled: {
      uint32_t dst;
      Rect rect;
      Point origin;
      uint16_t tw, th;
      if (r.U32(&dst) && r.RectVal(&rect) && r.PointVal(&origin) && r.U16(&tw) &&
          r.U16(&th)) {
        std::vector<uint8_t> bytes;
        if (r.Bytes(static_cast<size_t>(tw) * th * sizeof(Pixel), &bytes)) {
          Surface tile(tw, th);
          std::vector<Pixel> px(static_cast<size_t>(tw) * th);
          std::memcpy(px.data(), bytes.data(), bytes.size());
          tile.PutPixels(Rect{0, 0, tw, th}, px);
          client_ws_->FillTiled(dst, rect, tile, origin);
        }
      }
      break;
    }
    case kFillStippled: {
      uint32_t dst;
      Rect rect;
      Point origin;
      uint32_t fg, bg;
      uint8_t transparent;
      Bitmap stipple;
      if (r.U32(&dst) && r.RectVal(&rect) && r.PointVal(&origin) && r.U32(&fg) &&
          r.U32(&bg) && r.U8(&transparent) && r.BitmapVal(&stipple)) {
        client_ws_->FillStippled(dst, rect, stipple, origin, fg, bg, transparent != 0);
      }
      break;
    }
    case kDrawText: {
      uint32_t dst;
      Point origin;
      uint32_t fg, len;
      if (r.U32(&dst) && r.PointVal(&origin) && r.U32(&fg) && r.U32(&len)) {
        std::vector<uint8_t> chars;
        if (r.Bytes(len, &chars)) {
          std::string text(chars.begin(), chars.end());
          client_ws_->DrawText(dst, origin, text, fg);
        }
      }
      break;
    }
    case kPutImage:
    case kComposite:
    case kVideoImage: {
      uint32_t dst;
      if (!r.U32(&dst)) {
        break;
      }
      if (image_pixels.empty()) {
        // LZSS path: rect + raw pixels follow in the body.
        if (!r.RectVal(&image_rect)) {
          break;
        }
        std::vector<uint8_t> bytes;
        if (!r.Bytes(static_cast<size_t>(image_rect.area()) * sizeof(Pixel), &bytes)) {
          break;
        }
        image_pixels.resize(static_cast<size_t>(image_rect.area()));
        std::memcpy(image_pixels.data(), bytes.data(), bytes.size());
      }
      if (type == kComposite) {
        client_ws_->CompositeOver(dst, image_rect, image_pixels);
      } else {
        client_ws_->PutImage(dst, image_rect, image_pixels);
      }
      if (type == kVideoImage) {
        VideoFrameDisplayed();
      }
      break;
    }
    case kCopyArea: {
      uint32_t src, dst;
      Rect rect;
      Point origin;
      if (r.U32(&src) && r.U32(&dst) && r.RectVal(&rect) && r.PointVal(&origin)) {
        client_ws_->CopyArea(src, dst, rect, origin);
      }
      break;
    }
    case kScroll: {
      uint32_t dst;
      Rect rect;
      int32_t dy;
      uint32_t fill;
      if (r.U32(&dst) && r.RectVal(&rect) && r.I32(&dy) && r.U32(&fill)) {
        client_ws_->ScrollUp(dst, rect, dy, fill);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace thinc
