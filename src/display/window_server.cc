#include "src/display/window_server.h"

#include "src/raster/font.h"
#include "src/util/logging.h"

namespace thinc {

WindowServer::WindowServer(int32_t screen_width, int32_t screen_height,
                           DisplayDriver* driver, CpuAccount* cpu)
    : driver_(driver), cpu_(cpu) {
  drawables_[kScreenDrawable] =
      std::make_unique<Surface>(screen_width, screen_height, kBlack);
}

DrawableId WindowServer::CreatePixmap(int32_t width, int32_t height) {
  DrawableId id = next_id_++;
  drawables_[id] = std::make_unique<Surface>(width, height, kBlack);
  if (driver_ != nullptr) {
    driver_->OnCreatePixmap(id, width, height);
  }
  return id;
}

void WindowServer::FreePixmap(DrawableId id) {
  THINC_CHECK(id != kScreenDrawable);
  if (driver_ != nullptr) {
    driver_->OnDestroyPixmap(id);
  }
  drawables_.erase(id);
}

const Surface& WindowServer::SurfaceOf(DrawableId id) const {
  auto it = drawables_.find(id);
  THINC_CHECK_MSG(it != drawables_.end(), "unknown drawable");
  return *it->second;
}

Surface& WindowServer::MutableSurfaceOf(DrawableId id) {
  auto it = drawables_.find(id);
  THINC_CHECK_MSG(it != drawables_.end(), "unknown drawable");
  return *it->second;
}

void WindowServer::ChargeRender(int64_t pixels) {
  if (cpu_ != nullptr) {
    cpu_->Charge(static_cast<double>(pixels) * cpucost::kRenderPerPixel);
  }
}

void WindowServer::FillRect(DrawableId dst, const Rect& rect, Pixel color) {
  FillRegion(dst, Region(rect), color);
}

void WindowServer::FillRegion(DrawableId dst, const Region& region, Pixel color) {
  Surface& s = MutableSurfaceOf(dst);
  Region clipped = region.Intersect(s.bounds());
  if (clipped.empty()) {
    return;
  }
  s.FillRegion(clipped, color);
  ChargeRender(clipped.Area());
  if (driver_ != nullptr) {
    driver_->OnFillSolid(dst, clipped, color);
  }
}

void WindowServer::FillTiled(DrawableId dst, const Rect& rect, const Surface& tile,
                             Point origin) {
  Surface& s = MutableSurfaceOf(dst);
  Region clipped = Region(rect).Intersect(s.bounds());
  if (clipped.empty() || tile.empty()) {
    return;
  }
  s.FillTiled(clipped, tile, origin);
  ChargeRender(clipped.Area());
  if (driver_ != nullptr) {
    driver_->OnFillTiled(dst, clipped, tile, origin);
  }
}

void WindowServer::FillStippled(DrawableId dst, const Rect& rect, const Bitmap& stipple,
                                Point origin, Pixel fg, Pixel bg, bool transparent_bg) {
  Surface& s = MutableSurfaceOf(dst);
  Region clipped = Region(rect).Intersect(s.bounds());
  if (clipped.empty() || stipple.empty()) {
    return;
  }
  s.FillStippled(clipped, stipple, origin, fg, bg, transparent_bg);
  ChargeRender(clipped.Area());
  if (driver_ != nullptr) {
    driver_->OnFillStippled(dst, clipped, stipple, origin, fg, bg, transparent_bg);
  }
}

void WindowServer::CopyArea(DrawableId src, DrawableId dst, const Rect& src_rect,
                            Point dst_origin) {
  // Clip against both drawables, keeping src/dst in correspondence (the same
  // arithmetic Surface::CopyFrom performs, done here so the driver sees the
  // effective geometry).
  const Surface& src_surface = SurfaceOf(src);
  Surface& dst_surface = MutableSurfaceOf(dst);
  Rect s = src_rect.Intersect(src_surface.bounds());
  if (s.empty()) {
    return;
  }
  Point d{dst_origin.x + (s.x - src_rect.x), dst_origin.y + (s.y - src_rect.y)};
  Rect dst_rect = Rect{d.x, d.y, s.width, s.height}.Intersect(dst_surface.bounds());
  if (dst_rect.empty()) {
    return;
  }
  s = Rect{s.x + (dst_rect.x - d.x), s.y + (dst_rect.y - d.y), dst_rect.width,
           dst_rect.height};
  dst_surface.CopyFrom(src_surface, s, dst_rect.origin());
  ChargeRender(dst_rect.area());
  if (driver_ != nullptr) {
    driver_->OnCopy(src, dst, s, dst_rect.origin());
  }
}

void WindowServer::PutImage(DrawableId dst, const Rect& rect,
                            std::span<const Pixel> pixels) {
  Surface& s = MutableSurfaceOf(dst);
  if (rect.Intersect(s.bounds()).empty()) {
    return;
  }
  s.PutPixels(rect, pixels);
  ChargeRender(rect.area());
  if (driver_ != nullptr) {
    driver_->OnPutImage(dst, rect, pixels);
  }
}

void WindowServer::DrawText(DrawableId dst, Point origin, std::string_view text,
                            Pixel fg) {
  if (text.empty()) {
    return;
  }
  // Compose the string into one stipple mask and issue a single fill — how X
  // core text reaches the driver (one operation per text run, not per
  // glyph).
  Bitmap run(TextWidth(text.size()), kGlyphHeight);
  int32_t x = 0;
  for (char c : text) {
    if (c != ' ') {
      const Bitmap& glyph = GlyphFor(c);
      for (int32_t gy = 0; gy < glyph.height(); ++gy) {
        for (int32_t gx = 0; gx < glyph.width(); ++gx) {
          if (glyph.Get(gx, gy)) {
            run.Set(x + gx, gy, true);
          }
        }
      }
    }
    x += kGlyphAdvance;
  }
  Rect cell{origin.x, origin.y, run.width(), run.height()};
  FillStippled(dst, cell, run, origin, fg, 0, /*transparent_bg=*/true);
}

void WindowServer::CompositeOver(DrawableId dst, const Rect& rect,
                                 std::span<const Pixel> argb) {
  Surface& s = MutableSurfaceOf(dst);
  Rect clipped = rect.Intersect(s.bounds());
  if (clipped.empty()) {
    return;
  }
  s.CompositeOver(rect, argb);
  // Composition lacks hardware acceleration (Section 3): the window server
  // blends in software — roughly 2x the flat-fill cost — and the driver
  // receives the blended result.
  if (cpu_ != nullptr) {
    cpu_->Charge(static_cast<double>(rect.area()) * cpucost::kRenderPerPixel * 2);
  }
  if (driver_ != nullptr) {
    std::vector<Pixel> blended = s.GetPixels(clipped);
    driver_->OnComposite(dst, clipped, blended);
  }
}

void WindowServer::ScrollUp(DrawableId dst, const Rect& rect, int32_t dy, Pixel fill) {
  THINC_CHECK(dy >= 0);
  if (dy == 0 || rect.empty()) {
    return;
  }
  if (dy >= rect.height) {
    FillRect(dst, rect, fill);
    return;
  }
  Rect src{rect.x, rect.y + dy, rect.width, rect.height - dy};
  CopyArea(dst, dst, src, Point{rect.x, rect.y});
  FillRect(dst, Rect{rect.x, rect.bottom() - dy, rect.width, dy}, fill);
}

int32_t WindowServer::VideoStreamCreate(int32_t src_width, int32_t src_height,
                                        const Rect& dst) {
  VideoStream stream;
  stream.src_width = src_width;
  stream.src_height = src_height;
  stream.dst = dst;
  if (driver_ != nullptr && driver_->SupportsVideo()) {
    stream.driver_stream = driver_->OnVideoStreamCreate(src_width, src_height, dst);
  }
  int32_t id = next_stream_id_++;
  streams_[id] = stream;
  return id;
}

void WindowServer::VideoFrame(int32_t stream_id, const Yv12Frame& frame) {
  auto it = streams_.find(stream_id);
  THINC_CHECK_MSG(it != streams_.end(), "unknown video stream");
  VideoStream& stream = it->second;
  if (stream.driver_stream >= 0) {
    // Hardware path: the driver owns conversion and scaling. Keep the
    // reference screen in sync so fidelity checks still apply.
    Yv12ScaleInto(frame, stream.dst, &MutableSurfaceOf(kScreenDrawable));
    driver_->OnVideoFrame(stream.driver_stream, frame);
    return;
  }
  // Software fallback: color conversion + scaling on this host's CPU, then
  // the frame reaches the driver as plain RAW pixels — the path that buries
  // every video-unaware thin client (Section 8.3).
  Surface rgb = Yv12ScaleToRgb(frame, stream.dst.width, stream.dst.height);
  if (cpu_ != nullptr) {
    cpu_->Charge(static_cast<double>(stream.dst.area()) *
                 cpucost::kColorConvertPerPixel);
  }
  PutImage(kScreenDrawable, stream.dst, rgb.pixels());
}

void WindowServer::VideoStreamMove(int32_t stream_id, const Rect& dst) {
  auto it = streams_.find(stream_id);
  THINC_CHECK_MSG(it != streams_.end(), "unknown video stream");
  it->second.dst = dst;
  if (it->second.driver_stream >= 0) {
    driver_->OnVideoStreamMove(it->second.driver_stream, dst);
  }
}

void WindowServer::VideoStreamDestroy(int32_t stream_id) {
  auto it = streams_.find(stream_id);
  THINC_CHECK_MSG(it != streams_.end(), "unknown video stream");
  if (it->second.driver_stream >= 0) {
    driver_->OnVideoStreamDestroy(it->second.driver_stream);
  }
  streams_.erase(it);
}

void WindowServer::InjectInput(Point location) {
  if (driver_ != nullptr) {
    driver_->OnInputEvent(location);
  }
}

SimTime WindowServer::RenderDoneAt() const {
  // "All rendering charged so far is done" is the max watermark across the
  // host's cores — busy_until() — not the earliest-free one: a caller
  // waiting on RenderDoneAt() waits for every outstanding drawing op.
  return cpu_ != nullptr ? cpu_->busy_until() : 0;
}

}  // namespace thinc
