// Sun Ray baseline (Section 2): the system whose low-level command set
// inspired THINC's, but *without* THINC's translation architecture.
//
// Differences modelled, per the paper:
//   * Fills and screen copies keep their semantics (Sun Ray's command set
//     has them), but everything else — text, tiles, images, composited
//     content, and especially copies from offscreen memory — must be
//     "reduced to pixel data then sampled to determine which drawing
//     primitives to use": the driver reads the resulting pixels, pays a
//     per-pixel analysis cost, and emits a solid fill if the area turned out
//     uniform, else RAW.
//   * Offscreen drawing is ignored (no per-pixmap command queues), so
//     Mozilla-style offscreen-composed pages arrive as raw pixels.
//   * No transparent video support: frames reach the driver as software-
//     converted RGB images and go down the inference path.
//   * Adaptive compression: RLE on fast links, LZSS in the WAN profile.
//   * Server-push delivery; under pressure a fresh update is dropped while
//     its predecessor at the same rect still waits untransmitted.
#ifndef THINC_SRC_BASELINES_SUNRAY_SYSTEM_H_
#define THINC_SRC_BASELINES_SUNRAY_SYSTEM_H_

#include "src/baselines/wire_baseline.h"

namespace thinc {

class SunRaySystem : public WireBaseline, private DisplayDriver {
 public:
  // The WAN profile compresses pixel updates with LZSS instead of RLE.
  SunRaySystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
               int32_t screen_height, bool wan_profile = false);

  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override {
    SendPcm(kAudio, pcm, timestamp);
  }
  const Surface* ClientFramebuffer() const override { return &client_fb_; }

 private:
  enum Msg : uint8_t {
    kFill = 1,
    kCopy = 2,
    kRaw = 3,
    kAudio = 4,
    kInput = 5,
    kBitmapFill = 6,  // two-color region recovered by sampling
  };

  // --- DisplayDriver ---------------------------------------------------------------
  void OnFillSolid(DrawableId dst, const Region& region, Pixel color) override {
    if (dst == kScreenDrawable) {
      SendFill(region, color);
    }
  }
  void OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
              Point dst_origin) override {
    Rect dst_rect{dst_origin.x, dst_origin.y, src_rect.width, src_rect.height};
    if (dst != kScreenDrawable) {
      return;  // offscreen ignored
    }
    if (src == kScreenDrawable) {
      SendCopy(src_rect, dst_origin);
    } else {
      InferAndSend(dst_rect, /*from_video=*/false);
    }
  }
  void OnFillTiled(DrawableId dst, const Region& region, const Surface&,
                   Point) override {
    InferRegion(dst, region);
  }
  void OnFillStippled(DrawableId dst, const Region& region, const Bitmap&, Point,
                      Pixel, Pixel, bool) override {
    InferRegion(dst, region);
  }
  void OnPutImage(DrawableId dst, const Rect& rect, std::span<const Pixel>) override {
    // On-screen image stores are the video fallback path; skip frames the
    // saturated inference pipeline could never ship anyway.
    if (dst != kScreenDrawable) {
      return;
    }
    if (server_cpu_.earliest_free() > loop_->now() + 100 * kMillisecond) {
      return;
    }
    // Direct on-screen stores are (almost always) the video fallback:
    // analyzed and shipped as one unit so successive frames coalesce.
    InferAndSend(rect, /*from_video=*/true);
  }
  void OnComposite(DrawableId dst, const Rect& rect, std::span<const Pixel>) override {
    InferRegion(dst, Region(rect));
  }

  void SendFill(const Region& region, Pixel color);
  void SendCopy(const Rect& src_rect, Point dst_origin);
  void InferRegion(DrawableId dst, const Region& region);
  void InferAndSend(const Rect& rect, bool from_video);
  // Classifies and ships one tile: solid fill, two-color bitmap, or RAW.
  void InferTile(const Rect& tile);
  void OnClientFrame(uint8_t type, std::span<const uint8_t> payload) override;

  const bool wan_profile_;
  Surface client_fb_;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_SUNRAY_SYSTEM_H_
