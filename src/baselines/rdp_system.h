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
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "src/baselines/send_queue.h"
#include "src/baselines/system.h"
#include "src/display/window_server.h"
#include "src/net/connection.h"
#include "src/protocol/wire.h"

namespace thinc {

struct RdpOptions {
  std::string name = "RDP";
  // ICA mode: client-side resize on PDA (RDP clips instead).
  bool ica_client_resize = false;
  // WAN profile: LZSS the order stream harder.
  bool aggressive = false;
  // Relative cost of image/order processing (MetaFrame's richer pipeline
  // costs more per update than RDP's).
  double processing_scale = 1.0;
  // Cores on the server host (virtual timing only; wire bytes unchanged).
  int server_cpu_cores = 1;
};

RdpOptions MakeRdpOptions(bool wan_profile);
RdpOptions MakeIcaOptions(bool wan_profile);

class RdpSystem : public RemoteDisplaySystem {
 public:
  RdpSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
            int32_t screen_height, RdpOptions options = {});

  std::string name() const override { return options_.name; }
  DrawingApi* api() override { return server_ws_.get(); }
  CpuAccount* app_cpu() override { return &server_cpu_; }
  void ClientClick(Point location) override;
  void SetInputCallback(InputFn fn) override { input_fn_ = std::move(fn); }
  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override;
  bool SupportsViewport() const override { return true; }
  void SetViewport(int32_t width, int32_t height) override;
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
    kTile = 2,
    kGlyph = 3,
    kImage = 4,
    kImageCached = 5,
    kCopy = 6,
    kAudio = 7,
    kInput = 8,
  };

  class RdpDriver : public DisplayDriver {
   public:
    explicit RdpDriver(RdpSystem* owner) : owner_(owner) {}
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

   private:
    RdpSystem* owner_;
  };

  void SendOrder(Msg type, WireWriter* body, SimTime release, int64_t key = -1);
  void SendImage(const Rect& rect, std::span<const Pixel> pixels, bool video_hint);
  void OnClientReceive(std::span<const uint8_t> data);
  void OnServerReceive(std::span<const uint8_t> data);
  void ApplyImage(const Rect& rect, const std::vector<Pixel>& pixels);

  EventLoop* loop_;
  RdpOptions options_;
  CpuAccount server_cpu_;
  CpuAccount client_cpu_;
  std::unique_ptr<Transport> conn_;
  std::unique_ptr<SendQueue> out_;
  std::unique_ptr<RdpDriver> driver_;
  std::unique_ptr<WindowServer> server_ws_;
  Surface client_fb_;

  // Bitmap cache: hashes of image payloads both sides hold.
  std::set<uint64_t> bitmap_cache_;
  // Client-side copy of cached payloads, keyed by hash.
  std::map<uint64_t, std::vector<Pixel>> client_cache_;
  std::map<uint64_t, Rect> client_cache_geometry_;

  FrameParser client_parser_;
  FrameParser server_parser_;
  InputFn input_fn_;
  std::optional<Rect> viewport_;
  SimTime client_processed_at_ = 0;
  std::vector<SimTime> video_frame_times_;
  std::optional<Rect> probe_rect_;
  int64_t audio_bytes_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_RDP_SYSTEM_H_
