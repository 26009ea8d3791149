// RDP / ICA baseline (Section 2): server-side GUI with a *rich* mid-level
// order set (the GDI-style display-command approach of Microsoft Remote
// Desktop and Citrix MetaFrame).
//
// Modelled behaviours, per the paper:
//   * Fills, tiles, and glyph text stay semantic (compact orders); bitmap
//     and glyph caches suppress re-sending repeated payloads.
//   * "The added overhead of supporting a complex set of display primitives
//     results in slower responsiveness": each order pays a fixed processing
//     cost on both hosts, and image payloads pay RDP bitmap compression.
//   * No offscreen awareness: pixmap drawing is ignored, copies from
//     offscreen arrive as image data read back from the screen.
//   * No transparent video path in the standard products: frames arrive as
//     software-converted RGB images; under pressure the outbound queue
//     drops a fresh frame while its predecessor at the same rect still
//     waits untransmitted (dropped frames).
//   * Audio is supported, lossily compressed ~4:1.
//   * PDA: RDP clips the viewport; ICA resizes on the client (full-size
//     data, slow client-side resample — Section 8.3's latency observation).
#ifndef THINC_SRC_BASELINES_RDP_SYSTEM_H_
#define THINC_SRC_BASELINES_RDP_SYSTEM_H_

#include <map>
#include <optional>
#include <set>

#include "src/baselines/wire_baseline.h"

namespace thinc {

class RdpSystem : public WireBaseline, private DisplayDriver {
 public:
  // `kind` is kRdp or kIca. Both WAN profiles LZSS images harder.
  RdpSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
            int32_t screen_height, SystemKind kind, bool wan_profile = false);

  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override;
  void SetViewport(int32_t width, int32_t height) override;
  const Surface* ClientFramebuffer() const override { return &client_fb_; }

 private:
  enum Msg : uint8_t {
    kFill = 1,
    kTile = 2,
    kGlyph = 3,
    kImage = 4,
    kImageCached = 5,
    kCopy = 6,
    kAudio = 7,
    kInput = 8,
  };

  // --- DisplayDriver: the server's order encoder ---------------------------------
  void OnFillSolid(DrawableId dst, const Region& region, Pixel color) override;
  void OnFillTiled(DrawableId dst, const Region& region, const Surface& tile,
                   Point origin) override;
  void OnFillStippled(DrawableId dst, const Region& region, const Bitmap& stipple,
                      Point origin, Pixel fg, Pixel bg, bool transparent) override;
  void OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
              Point dst_origin) override;
  void OnPutImage(DrawableId dst, const Rect& rect,
                  std::span<const Pixel> pixels) override;
  void OnComposite(DrawableId dst, const Rect& rect,
                   std::span<const Pixel> blended) override;

  void SendImage(const Rect& rect, std::span<const Pixel> pixels, bool video_hint);
  void OnClientFrame(uint8_t type, std::span<const uint8_t> payload) override;
  void ApplyImage(const Rect& rect, std::span<const Pixel> pixels);

  // ICA: a costlier image pipeline than RDP's, and a small viewport
  // resized on the client (RDP clips instead).
  const bool ica_;
  const bool wan_profile_;
  Surface client_fb_;
  std::optional<Rect> viewport_;

  // Bitmap cache: hashes of image payloads both sides hold.
  std::set<uint64_t> bitmap_cache_;
  // Client-side copy of cached payloads as they arrived (LZSS), keyed by
  // hash; a hit decodes its entry again.
  std::map<uint64_t, std::vector<uint8_t>> client_cache_;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_RDP_SYSTEM_H_
