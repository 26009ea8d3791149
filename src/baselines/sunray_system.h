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
//   * Adaptive compression: RLE on fast links, LZSS when aggressive.
//   * Server-push delivery; under pressure a fresh update is dropped while
//     its predecessor at the same rect still waits untransmitted.
#ifndef THINC_SRC_BASELINES_SUNRAY_SYSTEM_H_
#define THINC_SRC_BASELINES_SUNRAY_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>

#include "src/baselines/send_queue.h"
#include "src/baselines/system.h"
#include "src/display/window_server.h"
#include "src/net/connection.h"
#include "src/protocol/wire.h"

namespace thinc {

struct SunRayOptions {
  bool aggressive_compression = false;  // WAN adaptive profile
  // Cores on the server host (virtual timing only; wire bytes unchanged).
  int server_cpu_cores = 1;
};

class SunRaySystem : public RemoteDisplaySystem {
 public:
  SunRaySystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
               int32_t screen_height, SunRayOptions options = {});

  std::string name() const override { return "SunRay"; }
  DrawingApi* api() override { return server_ws_.get(); }
  CpuAccount* app_cpu() override { return &server_cpu_; }
  void ClientClick(Point location) override;
  void SetInputCallback(InputFn fn) override { input_fn_ = std::move(fn); }
  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override;
  void SetVideoProbeRect(const Rect& rect) override { probe_rect_ = rect; }

  int64_t BytesToClient() const override {
    return conn_->BytesDeliveredTo(Transport::kClient);
  }
  SimTime LastDeliveryToClient() const override {
    return conn_->LastDeliveryTo(Transport::kClient);
  }
  SimTime ClientLastProcessedAt() const override { return client_processed_at_; }
  const std::vector<SimTime>& VideoFrameTimes() const override {
    return video_frame_times_;
  }
  int64_t AudioBytesDelivered() const override { return audio_bytes_; }
  const Surface* ClientFramebuffer() const override { return &client_fb_; }

 private:
  enum class Msg : uint8_t {
    kFill = 1,
    kCopy = 2,
    kRaw = 3,
    kAudio = 4,
    kInput = 5,
    kBitmapFill = 6,  // two-color region recovered by sampling
  };

  class SunRayDriver : public DisplayDriver {
   public:
    explicit SunRayDriver(SunRaySystem* owner) : owner_(owner) {}
    void OnFillSolid(DrawableId dst, const Region& region, Pixel color) override {
      if (dst == kScreenDrawable) {
        owner_->SendFill(region, color);
      }
    }
    void OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
                Point dst_origin) override {
      Rect dst_rect{dst_origin.x, dst_origin.y, src_rect.width, src_rect.height};
      if (dst != kScreenDrawable) {
        return;  // offscreen ignored
      }
      if (src == kScreenDrawable) {
        owner_->SendCopy(src_rect, dst_origin);
      } else {
        owner_->InferAndSend(dst_rect, /*from_video=*/false);
      }
    }
    void OnFillTiled(DrawableId dst, const Region& region, const Surface&,
                     Point) override {
      owner_->InferRegion(dst, region);
    }
    void OnFillStippled(DrawableId dst, const Region& region, const Bitmap&, Point,
                        Pixel, Pixel, bool) override {
      owner_->InferRegion(dst, region);
    }
    void OnPutImage(DrawableId dst, const Rect& rect,
                    std::span<const Pixel>) override {
      // On-screen image stores are the video fallback path; skip frames the
      // saturated inference pipeline could never ship anyway.
      if (dst != kScreenDrawable) {
        return;
      }
      // "Saturated" means no core can take the analysis soon — the
      // earliest-free watermark, not the busy_until() max (which on a
      // multi-core host would skip frames an idle core could handle).
      if (owner_->server_cpu_.earliest_free() >
          owner_->loop_->now() + 100 * kMillisecond) {
        return;
      }
      // Direct on-screen stores are (almost always) the video fallback:
      // analyzed and shipped as one unit so successive frames coalesce.
      owner_->InferAndSend(rect, /*from_video=*/true);
    }
    void OnComposite(DrawableId dst, const Rect& rect,
                     std::span<const Pixel>) override {
      owner_->InferRegion(dst, Region(rect));
    }

   private:
    SunRaySystem* owner_;
  };

  void SendFill(const Region& region, Pixel color);
  void SendCopy(const Rect& src_rect, Point dst_origin);
  void InferRegion(DrawableId dst, const Region& region);
  void InferAndSend(const Rect& rect, bool from_video);
  // Classifies and ships one tile: solid fill, two-color bitmap, or RAW.
  void InferTile(const Rect& tile);
  void OnClientReceive(std::span<const uint8_t> data);
  void OnServerReceive(std::span<const uint8_t> data);

  EventLoop* loop_;
  SunRayOptions options_;
  CpuAccount server_cpu_;
  CpuAccount client_cpu_;
  std::unique_ptr<Transport> conn_;
  std::unique_ptr<SendQueue> out_;
  std::unique_ptr<SunRayDriver> driver_;
  std::unique_ptr<WindowServer> server_ws_;
  Surface client_fb_;

  FrameParser client_parser_;
  FrameParser server_parser_;
  InputFn input_fn_;
  SimTime client_processed_at_ = 0;
  std::vector<SimTime> video_frame_times_;
  std::optional<Rect> probe_rect_;
  int64_t audio_bytes_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_SUNRAY_SYSTEM_H_
