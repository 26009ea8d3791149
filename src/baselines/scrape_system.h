// Screen-scraping baselines: VNC and GoToMyPC (Section 2).
//
// The GUI runs on the server; the display driver merely accumulates a dirty
// region of the *resulting pixels* — all command semantics are discarded,
// which is precisely what THINC's translation layer avoids. Updates are
// delivered client-pull: the client requests, the server encodes whatever is
// dirty and replies, the client applies and requests again. The pull round
// trip is what halves VNC's video quality in the WAN (Section 8.3), and the
// dirty-region coalescing between requests is where its dropped video frames
// go.
//
// VNC encodes updates with hextile (plus LZSS in its adaptive/aggressive
// profile). GoToMyPC quantizes to 8-bit color and applies expensive
// compression (small data, high server CPU — its Figure 2/3 signature), and
// routes everything through an intermediate relay host.
#ifndef THINC_SRC_BASELINES_SCRAPE_SYSTEM_H_
#define THINC_SRC_BASELINES_SCRAPE_SYSTEM_H_

#include <optional>

#include "src/baselines/wire_baseline.h"

namespace thinc {

class ScrapeSystem : public WireBaseline, private DisplayDriver {
 public:
  // `kind` is kVnc or kGotomypc. VNC's WAN profile is its adaptive one
  // (hextile plus LZSS); GoToMyPC has a single profile and ignores
  // `wan_profile`.
  ScrapeSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
               int32_t screen_height, SystemKind kind, bool wan_profile = false);

  bool SupportsAudio() const override { return false; }  // video-only systems
  // VNC clips the desktop to the viewport. GoToMyPC resizes on the client
  // and shows no less than 640x480, so it raises a smaller geometry to that.
  void SetViewport(int32_t width, int32_t height) override;
  const Surface* ClientFramebuffer() const override { return &client_fb_; }

 private:
  enum Msg : uint8_t { kUpdate = 1, kRequest = 2, kInput = 3 };

  // --- DisplayDriver: discards semantics and accumulates damage ----------------------
  void OnFillSolid(DrawableId dst, const Region& region, Pixel) override {
    Damage(dst, region);
  }
  void OnFillTiled(DrawableId dst, const Region& region, const Surface&,
                   Point) override {
    Damage(dst, region);
  }
  void OnFillStippled(DrawableId dst, const Region& region, const Bitmap&, Point,
                      Pixel, Pixel, bool) override {
    Damage(dst, region);
  }
  void OnCopy(DrawableId, DrawableId dst, const Rect& src_rect,
              Point dst_origin) override {
    Damage(dst, Region(Rect{dst_origin.x, dst_origin.y, src_rect.width,
                            src_rect.height}));
  }
  void OnPutImage(DrawableId dst, const Rect& rect, std::span<const Pixel>) override {
    Damage(dst, Region(rect));
  }
  void OnComposite(DrawableId dst, const Rect& rect, std::span<const Pixel>) override {
    Damage(dst, Region(rect));
  }

  void Damage(DrawableId dst, const Region& region);
  void MaybeAnswer();
  void EncodeAndSend();
  void OnServerFrame(uint8_t type) override;
  void OnClientFrame(uint8_t type, std::span<const uint8_t> payload) override;
  void HandleUpdate(std::span<const uint8_t> payload);

  // GoToMyPC: 8-bit 3-3-2 color with an expensive encode, an intermediate
  // relay host, and client-side resizing of a small viewport.
  const bool gotomypc_;
  const bool wan_profile_;  // VNC's adaptive profile
  Surface client_fb_;

  Region dirty_;
  bool request_pending_ = false;
  bool answer_scheduled_ = false;
  std::optional<Rect> viewport_;  // clip (VNC) or client-resize (GoToMyPC)
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_SCRAPE_SYSTEM_H_
