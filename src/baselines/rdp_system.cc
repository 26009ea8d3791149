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

}  // namespace

RdpOptions MakeRdpOptions(bool wan_profile) {
  RdpOptions o;
  o.name = "RDP";
  o.aggressive = wan_profile;
  return o;
}

RdpOptions MakeIcaOptions(bool wan_profile) {
  RdpOptions o;
  o.name = "ICA";
  o.ica_client_resize = true;
  o.aggressive = wan_profile;
  o.processing_scale = 1.6;
  return o;
}

RdpSystem::RdpSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
                     int32_t screen_height, RdpOptions options)
    : loop_(loop), options_(std::move(options)),
      server_cpu_(loop, kServerCpuSpeed, options_.server_cpu_cores),
      client_cpu_(loop, kClientCpuSpeed),
      conn_(std::make_unique<Connection>(loop, link)),
      out_(std::make_unique<SendQueue>(loop, conn_.get(), Transport::kServer)),
      driver_(std::make_unique<RdpDriver>(this)),
      client_fb_(screen_width, screen_height, kBlack) {
  server_ws_ = std::make_unique<WindowServer>(screen_width, screen_height,
                                              driver_.get(), &server_cpu_);
  conn_->SetReceiver(Transport::kClient,
                     [this](std::span<const uint8_t> d) { OnClientReceive(d); });
  conn_->SetReceiver(Transport::kServer,
                     [this](std::span<const uint8_t> d) { OnServerReceive(d); });
}

void RdpSystem::SetViewport(int32_t width, int32_t height) {
  viewport_ = Rect{0, 0, width, height};
  client_fb_ = Surface(width, height, kBlack);
}

// --- Driver hooks ---------------------------------------------------------------

void RdpSystem::RdpDriver::OnFillSolid(DrawableId dst, const Region& region,
                                       Pixel color) {
  if (dst != kScreenDrawable) {
    return;
  }
  WireWriter w;
  w.RegionVal(region);
  w.U32(color);
  owner_->SendOrder(Msg::kFill, &w, owner_->server_cpu_.Charge(kOrderCost));
}

void RdpSystem::RdpDriver::OnFillTiled(DrawableId dst, const Region& region,
                                       const Surface& tile, Point origin) {
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
  owner_->SendOrder(Msg::kTile, &w, owner_->server_cpu_.Charge(kOrderCost));
}

void RdpSystem::RdpDriver::OnFillStippled(DrawableId dst, const Region& region,
                                          const Bitmap& stipple, Point origin,
                                          Pixel fg, Pixel bg, bool transparent) {
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
  owner_->SendOrder(Msg::kGlyph, &w, owner_->server_cpu_.Charge(kOrderCost));
}

void RdpSystem::RdpDriver::OnCopy(DrawableId src, DrawableId dst,
                                  const Rect& src_rect, Point dst_origin) {
  if (dst != kScreenDrawable) {
    return;  // offscreen drawing invisible
  }
  Rect dst_rect{dst_origin.x, dst_origin.y, src_rect.width, src_rect.height};
  if (src == kScreenDrawable) {
    WireWriter w;
    w.RectVal(src_rect);
    w.PointVal(dst_origin);
    owner_->SendOrder(Msg::kCopy, &w, owner_->server_cpu_.Charge(kOrderCost));
    return;
  }
  // Copy from untracked offscreen memory: read back resulting pixels.
  Rect clipped = dst_rect.Intersect(owner_->server_ws_->screen().bounds());
  if (clipped.empty()) {
    return;
  }
  std::vector<Pixel> pixels = owner_->server_ws_->screen().GetPixels(clipped);
  owner_->SendImage(clipped, pixels, /*video_hint=*/false);
}

void RdpSystem::RdpDriver::OnPutImage(DrawableId dst, const Rect& rect,
                                      std::span<const Pixel> pixels) {
  if (dst != kScreenDrawable) {
    return;
  }
  // Direct on-screen image stores are the video fallback path; when the
  // compressor is saturated the source frame is simply skipped. Saturation
  // means no core frees up soon (earliest_free) — the busy_until() max
  // would skip frames an idle core of a multi-core host could compress.
  if (owner_->server_cpu_.earliest_free() >
      owner_->loop_->now() + 100 * kMillisecond) {
    return;
  }
  owner_->SendImage(rect, pixels, /*video_hint=*/true);
}

void RdpSystem::RdpDriver::OnComposite(DrawableId dst, const Rect& rect,
                                       std::span<const Pixel> blended) {
  if (dst != kScreenDrawable) {
    return;
  }
  owner_->SendImage(rect, blended, /*video_hint=*/false);
}

// --- Server send paths ------------------------------------------------------------

void RdpSystem::SendOrder(Msg type, WireWriter* body, SimTime release, int64_t key) {
  std::vector<uint8_t> payload = body->Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(type), payload), release, key);
}

void RdpSystem::SendImage(const Rect& rect, std::span<const Pixel> pixels,
                          bool video_hint) {
  uint64_t hash = HashPixels(rect, pixels);
  if (bitmap_cache_.contains(hash)) {
    // Cache hit: a 16-byte reference replaces the payload.
    WireWriter w;
    w.RectVal(rect);
    w.I64(static_cast<int64_t>(hash));
    SendOrder(Msg::kImageCached, &w, server_cpu_.Charge(kOrderCost));
    return;
  }

  std::span<const uint8_t> raw(reinterpret_cast<const uint8_t*>(pixels.data()),
                               pixels.size() * sizeof(Pixel));
  double cost = kOrderCost + cpucost::kLzssPerByte * static_cast<double>(raw.size());
  if (options_.aggressive) {
    cost *= 1.5;  // tighter search in the WAN profile
  }
  cost *= options_.processing_scale;
  // Video frames are keyed by geometry: while the previous frame at this
  // rect waits untransmitted, the new one is dropped (SendQueue). A dropped
  // frame still costs its compression, but is neither encoded nor cached.
  const int64_t key = video_hint ? RectKey(rect) : -1;
  if (out_->WouldReject(key)) {
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
  SendOrder(Msg::kImage, &w, server_cpu_.Charge(cost), key);
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
  std::vector<uint8_t> payload = w.Take();
  out_->Enqueue(BuildFrame(static_cast<MsgType>(Msg::kAudio), payload),
                server_cpu_.Charge(0.02 * static_cast<double>(pcm.size())));
}

void RdpSystem::ClientClick(Point location) {
  WireWriter w;
  w.PointVal(location);
  std::vector<uint8_t> payload = w.Take();
  conn_->Send(Transport::kClient,
              BuildFrame(static_cast<MsgType>(Msg::kInput), payload));
}

void RdpSystem::OnServerReceive(std::span<const uint8_t> data) {
  server_parser_.Feed(data);
  while (auto frame = server_parser_.Next()) {
    if (static_cast<Msg>(frame->type) == Msg::kInput) {
      WireReader r(frame->payload);
      Point p;
      if (r.PointVal(&p)) {
        server_ws_->InjectInput(p);
        if (input_fn_) {
          input_fn_(p);
        }
      }
    }
  }
}

// --- Client side -------------------------------------------------------------------

void RdpSystem::ApplyImage(const Rect& rect, const std::vector<Pixel>& pixels) {
  if (viewport_.has_value()) {
    if (options_.ica_client_resize) {
      // ICA: resample full-size data on the (slow) client.
      client_cpu_.Charge(static_cast<double>(rect.area()) *
                         cpucost::kClientResamplePerPixel);
      int32_t sw = server_ws_->screen().width();
      int32_t sh = server_ws_->screen().height();
      int32_t vx1 = rect.x * viewport_->width / sw;
      int32_t vy1 = rect.y * viewport_->height / sh;
      int32_t vx2 = (rect.right() * viewport_->width + sw - 1) / sw;
      int32_t vy2 = (rect.bottom() * viewport_->height + sh - 1) / sh;
      Rect dst = Rect::FromEdges(vx1, vy1, vx2, vy2).Intersect(client_fb_.bounds());
      for (int32_t y = dst.y; y < dst.bottom(); ++y) {
        for (int32_t x = dst.x; x < dst.right(); ++x) {
          int32_t sx = std::clamp(x * sw / viewport_->width - rect.x, 0,
                                  rect.width - 1);
          int32_t sy = std::clamp(y * sh / viewport_->height - rect.y, 0,
                                  rect.height - 1);
          client_fb_.Put(x, y, pixels[static_cast<size_t>(sy) * rect.width + sx]);
        }
      }
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
  if (probe_rect_.has_value() &&
      Region(rect).Intersect(*probe_rect_).Area() * 10 >= probe_rect_->area() * 3) {
    video_frame_times_.push_back(loop_->now());
  }
}

void RdpSystem::OnClientReceive(std::span<const uint8_t> data) {
  client_parser_.Feed(data);
  while (auto frame = client_parser_.Next()) {
    WireReader r(frame->payload);
    client_cpu_.Charge(kOrderCost);  // per-order client processing
    switch (static_cast<Msg>(frame->type)) {
      case Msg::kFill: {
        Region region;
        uint32_t color;
        if (r.RegionVal(&region) && r.U32(&color)) {
          if (viewport_.has_value() && !options_.ica_client_resize) {
            region = region.Intersect(*viewport_);
          }
          // Under ICA resize, fills keep coordinates; approximate by scaling
          // their bounds through the image path for simplicity: fills are
          // cheap either way, so apply full-size semantics only when
          // unscaled.
          if (!viewport_.has_value() || !options_.ica_client_resize) {
            client_fb_.FillRegion(region, color);
          } else {
            Rect b = region.Bounds();
            int32_t sw = server_ws_->screen().width();
            int32_t sh = server_ws_->screen().height();
            Rect dst =
                Rect::FromEdges(b.x * viewport_->width / sw,
                                b.y * viewport_->height / sh,
                                (b.right() * viewport_->width + sw - 1) / sw,
                                (b.bottom() * viewport_->height + sh - 1) / sh)
                    .Intersect(client_fb_.bounds());
            client_fb_.FillRect(dst, color);
          }
        }
        break;
      }
      case Msg::kTile: {
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
              if (options_.ica_client_resize) {
                break;  // ICA small-screen: folded into resampled image traffic
              }
              region = region.Intersect(*viewport_);
            }
            client_fb_.FillTiled(region, tile, origin);
          }
        }
        break;
      }
      case Msg::kGlyph: {
        Region region;
        Point origin;
        uint32_t fg, bg;
        uint8_t transparent;
        Bitmap stipple;
        if (r.RegionVal(&region) && r.PointVal(&origin) && r.U32(&fg) && r.U32(&bg) &&
            r.U8(&transparent) && r.BitmapVal(&stipple)) {
          if (viewport_.has_value()) {
            if (options_.ica_client_resize) {
              break;  // ICA small-screen: folded into resampled image traffic
            }
            region = region.Intersect(*viewport_);
          }
          client_fb_.FillStippled(region, stipple, origin, fg, bg, transparent != 0);
        }
        break;
      }
      case Msg::kCopy: {
        Rect src;
        Point dst;
        if (r.RectVal(&src) && r.PointVal(&dst) && !viewport_.has_value()) {
          client_fb_.CopyFrom(client_fb_, src, dst);
        }
        break;
      }
      case Msg::kImage: {
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
        std::vector<uint8_t> raw;
        if (!LzssDecode(encoded, &raw) || raw.size() != raw_len ||
            raw.size() != static_cast<size_t>(rect.area()) * sizeof(Pixel)) {
          break;
        }
        std::vector<Pixel> pixels(static_cast<size_t>(rect.area()));
        std::memcpy(pixels.data(), raw.data(), raw.size());
        client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(enc_len));
        client_cache_[static_cast<uint64_t>(hash)] = pixels;
        client_cache_geometry_[static_cast<uint64_t>(hash)] = rect;
        ApplyImage(rect, pixels);
        break;
      }
      case Msg::kImageCached: {
        Rect rect;
        int64_t hash;
        if (!r.RectVal(&rect) || !r.I64(&hash)) {
          break;
        }
        auto it = client_cache_.find(static_cast<uint64_t>(hash));
        if (it != client_cache_.end()) {
          ApplyImage(rect, it->second);
        }
        break;
      }
      case Msg::kAudio: {
        int64_t ts;
        uint32_t raw_len, comp_len;
        if (r.I64(&ts) && r.U32(&raw_len) && r.U32(&comp_len)) {
          audio_bytes_ += raw_len;  // decoded output volume
        }
        break;
      }
      default:
        break;
    }
    client_processed_at_ = std::max(client_processed_at_, client_cpu_.busy_until());
  }
}

}  // namespace thinc
