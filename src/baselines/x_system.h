// X and NX baselines: the client-side-GUI architecture (Section 2).
//
// Application display commands are serialized at the Xlib level and
// forwarded to a window server running *on the client*, which performs all
// rendering with the client's (slower) CPU. Key modelled behaviours:
//
//   * Synchronous round trips: every 15th request the application blocks
//     for one RTT (geometry queries, XSync, ...). This is the tight
//     application/interface coupling that makes X degrade ~2.5x from LAN to
//     WAN (Section 8.3). NX's proxy answers most of these locally (one in
//     150 still blocks), which is its main WAN win.
//   * ssh -C style stream compression (LZSS) for X; NX instead applies its
//     lossy image codec (RGB565-quantized PNG-like, RGB444 in the WAN
//     profile) to image payloads.
//   * No XVideo across the network: video frames are color-converted by the
//     player on the server and shipped as full-size RGB images. When the
//     proxy's outbound queue backs up, the player drops frames — X's choppy
//     video.
#ifndef THINC_SRC_BASELINES_X_SYSTEM_H_
#define THINC_SRC_BASELINES_X_SYSTEM_H_

#include <map>
#include <memory>

#include "src/baselines/wire_baseline.h"

namespace thinc {

class XSystem : public WireBaseline, public DrawingApi {
 public:
  // `kind` is kX or kNx; X has no WAN profile, so only NX reads
  // `wan_profile`.
  XSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
          int32_t screen_height, SystemKind kind, bool wan_profile = false);

  // --- RemoteDisplaySystem -----------------------------------------------------
  DrawingApi* api() override { return this; }
  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override {
    SendPcm(kAudio, pcm, timestamp);
  }
  const Surface* ClientFramebuffer() const override {
    return &client_ws_->screen();
  }

  // --- DrawingApi (the Xlib-level proxy) ----------------------------------------
  int32_t screen_width() const override { return width_; }
  int32_t screen_height() const override { return height_; }
  DrawableId CreatePixmap(int32_t width, int32_t height) override;
  void FreePixmap(DrawableId id) override;
  void FillRect(DrawableId dst, const Rect& rect, Pixel color) override;
  void FillTiled(DrawableId dst, const Rect& rect, const Surface& tile,
                 Point origin) override;
  void FillStippled(DrawableId dst, const Rect& rect, const Bitmap& stipple,
                    Point origin, Pixel fg, Pixel bg, bool transparent_bg) override;
  void DrawText(DrawableId dst, Point origin, std::string_view text,
                Pixel fg) override;
  void PutImage(DrawableId dst, const Rect& rect,
                std::span<const Pixel> pixels) override;
  void CopyArea(DrawableId src, DrawableId dst, const Rect& src_rect,
                Point dst_origin) override;
  void CompositeOver(DrawableId dst, const Rect& rect,
                     std::span<const Pixel> argb) override;
  void ScrollUp(DrawableId dst, const Rect& rect, int32_t dy, Pixel fill) override;
  int32_t VideoStreamCreate(int32_t src_width, int32_t src_height,
                            const Rect& dst) override;
  void VideoFrame(int32_t stream_id, const Yv12Frame& frame) override;
  void VideoStreamDestroy(int32_t stream_id) override;

 private:
  enum Msg : uint8_t {
    kCreatePixmap = 1,
    kFreePixmap = 2,
    kFillRect = 3,
    kFillTiled = 4,
    kFillStippled = 5,
    kDrawText = 6,
    kPutImage = 7,
    kCopyArea = 8,
    kComposite = 9,
    kScroll = 10,
    kVideoImage = 11,
    kAudio = 12,
    kInput = 20,
  };
  enum class BodyCodec : uint8_t { kNone = 0, kLzss = 1, kPngLike = 2 };

  // Serializes, compresses, gates, and queues one request.
  void Submit(Msg type, WireWriter* body, bool image_payload = false,
              const Rect* image_rect = nullptr, std::span<const Pixel> image = {});
  // Xlib buffers consecutive image stores: adjacent PutImage scanline strips
  // to the same drawable coalesce into one request before transmission.
  void FlushPendingImage();
  void OnClientFrame(uint8_t type, std::span<const uint8_t> payload) override;

  // NX: the proxy answers most synchronous requests and codes images.
  const bool nx_;
  // NX's WAN profile: RGB444 image quantization instead of RGB565.
  const bool wan_profile_;
  SimTime rtt_;
  std::unique_ptr<WindowServer> client_ws_;  // runs on the client host

  int32_t request_count_ = 0;
  SimTime app_gate_ = 0;  // earliest time the app can issue its next request
  // Pending coalesced image store (empty when pending_image_rect_ is empty).
  DrawableId pending_image_dst_ = 0;
  Rect pending_image_rect_;
  std::vector<Pixel> pending_image_pixels_;
  DrawableId next_pixmap_id_ = 1;  // mirrors the client window server's ids
  int32_t next_stream_id_ = 1;
  std::map<int32_t, Rect> streams_;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_X_SYSTEM_H_
