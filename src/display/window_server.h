// The window-server substrate.
//
// Plays the role XFree86/X.org plays in the paper: it accepts
// application-level drawing requests (from the workload generators, which
// stand in for Mozilla and MPlayer), maintains backing store for the screen
// and all offscreen pixmaps, software-renders every request, charges the
// host CPU for the rendering work, and invokes the active display driver's
// hooks with full semantic information.
//
// The screen surface it maintains is the *reference image*: a correct
// thin-client implementation must converge the remote client's framebuffer
// to exactly this surface, which is the end-to-end fidelity invariant the
// integration tests check.
#ifndef THINC_SRC_DISPLAY_WINDOW_SERVER_H_
#define THINC_SRC_DISPLAY_WINDOW_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>

#include "src/display/drawing_api.h"
#include "src/display/driver.h"
#include "src/raster/surface.h"
#include "src/raster/yuv.h"
#include "src/util/cpu.h"

namespace thinc {

class WindowServer : public DrawingApi {
 public:
  // `driver` may be null (local PC: rendering only, no remote display).
  // `cpu` accounts the host's rendering work; may be null to skip accounting.
  WindowServer(int32_t screen_width, int32_t screen_height, DisplayDriver* driver,
               CpuAccount* cpu);

  void set_driver(DisplayDriver* driver) { driver_ = driver; }
  DisplayDriver* driver() const { return driver_; }
  // Rebinds rendering-cost accounting to another host's CPU (live session
  // migration moves the whole server-side stack).
  void set_cpu(CpuAccount* cpu) { cpu_ = cpu; }

  // --- Drawables ------------------------------------------------------------
  DrawableId CreatePixmap(int32_t width, int32_t height) override;
  void FreePixmap(DrawableId id) override;
  const Surface& SurfaceOf(DrawableId id) const;
  const Surface& screen() const { return SurfaceOf(kScreenDrawable); }
  size_t pixmap_count() const { return drawables_.size() - 1; }
  int32_t screen_width() const override { return screen().width(); }
  int32_t screen_height() const override { return screen().height(); }

  // --- Application drawing requests ------------------------------------------
  void FillRect(DrawableId dst, const Rect& rect, Pixel color) override;
  void FillRegion(DrawableId dst, const Region& region, Pixel color);
  void FillTiled(DrawableId dst, const Rect& rect, const Surface& tile,
                 Point origin) override;
  void FillStippled(DrawableId dst, const Rect& rect, const Bitmap& stipple,
                    Point origin, Pixel fg, Pixel bg, bool transparent_bg) override;
  void CopyArea(DrawableId src, DrawableId dst, const Rect& src_rect,
                Point dst_origin) override;
  void PutImage(DrawableId dst, const Rect& rect,
                std::span<const Pixel> pixels) override;
  // Draws `text` with the built-in font; each glyph becomes a stipple fill,
  // which is how X core text reaches the driver layer.
  void DrawText(DrawableId dst, Point origin, std::string_view text,
                Pixel fg) override;
  // Anti-aliased text / translucent content: composited in software (the
  // virtual hardware has no composition acceleration) and handed to the
  // driver as blended pixels.
  void CompositeOver(DrawableId dst, const Rect& rect,
                     std::span<const Pixel> argb) override;
  // Scrolls the given screen rect up by `dy` pixels (dy > 0) and exposes the
  // bottom strip with `fill` — the copy-accelerated scroll path.
  void ScrollUp(DrawableId dst, const Rect& rect, int32_t dy, Pixel fill) override;

  // --- Video (XVideo-like extension) ------------------------------------------
  // Creates a stream; frames are YV12 at (src_width, src_height), displayed
  // scaled into `dst`. If the driver lacks video support the server falls
  // back to software conversion + PutImage, charging this host's CPU.
  int32_t VideoStreamCreate(int32_t src_width, int32_t src_height,
                            const Rect& dst) override;
  void VideoFrame(int32_t stream_id, const Yv12Frame& frame) override;
  void VideoStreamMove(int32_t stream_id, const Rect& dst);
  void VideoStreamDestroy(int32_t stream_id) override;

  // --- Input ----------------------------------------------------------------
  void InjectInput(Point location);

  // Completion time of all rendering charged so far (== cpu busy_until).
  SimTime RenderDoneAt() const;

 private:
  struct VideoStream {
    int32_t driver_stream = -1;  // -1 when using the software fallback
    int32_t src_width = 0;
    int32_t src_height = 0;
    Rect dst;
  };

  Surface& MutableSurfaceOf(DrawableId id);
  void ChargeRender(int64_t pixels);

  DisplayDriver* driver_;
  CpuAccount* cpu_;
  DrawableId next_id_ = 1;
  int32_t next_stream_id_ = 1;
  std::map<DrawableId, std::unique_ptr<Surface>> drawables_;
  std::map<int32_t, VideoStream> streams_;
};

}  // namespace thinc

#endif  // THINC_SRC_DISPLAY_WINDOW_SERVER_H_
