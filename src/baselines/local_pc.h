// Local PC baseline: the paper's "today's prevalent desktop computer model".
//
// Everything — page layout, rendering, video decode — runs on the (slower)
// client CPU; the only network traffic is the application content itself
// (HTML + compressed images fetched from the web server, or the encoded
// media stream). This is why the local PC is the most bandwidth-efficient
// platform in Figures 3 and 6, yet THINC beats its page latency by using the
// faster server CPU (Section 8.3).
#ifndef THINC_SRC_BASELINES_LOCAL_PC_H_
#define THINC_SRC_BASELINES_LOCAL_PC_H_

#include <memory>

#include "src/baselines/send_queue.h"
#include "src/baselines/system.h"
#include "src/display/window_server.h"
#include "src/net/connection.h"

namespace thinc {

class LocalPcSystem : public RemoteDisplaySystem {
 public:
  LocalPcSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
                int32_t screen_height);

  DrawingApi* api() override { return ws_.get(); }
  // Application logic runs on the client machine itself.
  CpuAccount* app_cpu() override { return &client_cpu_; }
  void ClientClick(Point location) override {
    if (input_fn_) {
      input_fn_(location);  // no network between user and application
    }
  }
  void SetInputCallback(InputFn fn) override { input_fn_ = std::move(fn); }

  // Fetches `bytes` of content from the web server over the network; the
  // workload calls this before rendering a page (and continuously during
  // media playback for the encoded stream).
  void FetchContent(int64_t bytes) override;

  int64_t BytesToClient() const override {
    return conn_->BytesDeliveredTo(Transport::kClient);
  }
  SimTime LastDeliveryToClient() const override {
    return conn_->LastDeliveryTo(Transport::kClient);
  }
  SimTime ClientLastProcessedAt() const override { return client_cpu_.busy_until(); }
  const std::vector<SimTime>& VideoFrameTimes() const override {
    return video_frame_times_;
  }
  int64_t AudioBytesDelivered() const override { return audio_bytes_; }
  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override {
    audio_bytes_ += static_cast<int64_t>(pcm.size());
  }
  const Surface* ClientFramebuffer() const override { return &ws_->screen(); }

 private:
  // Local display hardware: XVideo overlay present, so the window server's
  // hardware video path (free scaling) is used.
  class LocalVideoDriver : public DisplayDriver {
   public:
    explicit LocalVideoDriver(LocalPcSystem* owner) : owner_(owner) {}
    bool SupportsVideo() const override { return true; }
    int32_t OnVideoStreamCreate(int32_t, int32_t, const Rect&) override {
      return next_id_++;
    }
    void OnVideoFrame(int32_t, const Yv12Frame&) override {
      owner_->video_frame_times_.push_back(owner_->loop_->now());
    }

   private:
    LocalPcSystem* owner_;
    int32_t next_id_ = 1;
  };

  EventLoop* loop_;
  CpuAccount client_cpu_;
  std::unique_ptr<Transport> conn_;  // client <-> web server
  std::unique_ptr<SendQueue> fetch_queue_;
  std::unique_ptr<LocalVideoDriver> driver_;
  std::unique_ptr<WindowServer> ws_;
  InputFn input_fn_;
  std::vector<SimTime> video_frame_times_;
  int64_t audio_bytes_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_LOCAL_PC_H_
