// THINC assembled as a complete system-under-test: the server host's CPU
// and payload pool, and one THINC session (src/core/thinc_session.h).
#ifndef THINC_SRC_BASELINES_THINC_SYSTEM_H_
#define THINC_SRC_BASELINES_THINC_SYSTEM_H_

#include <optional>
#include <vector>

#include "src/baselines/system.h"
#include "src/core/thinc_session.h"
#include "src/device/device.h"

namespace thinc {

class ThincSystem : public RemoteDisplaySystem {
 public:
  // `server_cpu_cores` models a K-core server host (the paper's server is a
  // dual-CPU PIII); it changes only virtual timing, never wire bytes.
  // `transport_kind` selects the wire (default) or a same-host loopback
  // transport; a loopback session's client decodes on the server host CPU
  // (it IS the host) and `link` only matters for later wire Reconnects.
  ThincSystem(EventLoop* loop, const LinkParams& link, int32_t screen_width,
              int32_t screen_height, ThincServerOptions server_options = {},
              int server_cpu_cores = 1,
              TransportKind transport_kind = TransportKind::kWire);

  // A session serving `profile` (see ApplyProfile).
  ThincSystem(EventLoop* loop, const DeviceProfile& profile,
              const LinkParams& link, int32_t screen_width,
              int32_t screen_height, ThincServerOptions server_options = {},
              int server_cpu_cores = 1);

  DrawingApi* api() override { return session_.window_server(); }
  CpuAccount* app_cpu() override { return &server_cpu_; }

  void ClientClick(Point location) override { session_.ClientClick(location); }
  void SetInputCallback(InputFn fn) override {
    session_.SetInputCallback(std::move(fn));
  }

  void SetViewport(int32_t width, int32_t height) override {
    session_.client()->RequestViewport(width, height);
  }

  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override {
    session_.server()->SubmitAudio(pcm, timestamp);
  }

  int64_t BytesToClient() const override {
    return session_.BytesDeliveredToClient();
  }
  SimTime LastDeliveryToClient() const override {
    return session_.transport()->LastDeliveryTo(Transport::kClient);
  }
  SimTime ClientLastProcessedAt() const override {
    return session_.client()->last_processed_at();
  }
  const std::vector<SimTime>& VideoFrameTimes() const override;
  int64_t AudioBytesDelivered() const override;
  const Surface* ClientFramebuffer() const override {
    return &session_.client()->framebuffer();
  }

  // Replaces the (typically reset) transport with a fresh one — of the same
  // kind by default, or of `kind` when given (wire <-> loopback switches
  // model a session migrating between remote and co-located hosts; the
  // client's decode CPU moves with the kind) — and reattaches server and
  // client to it. Returns the new transport.
  Transport* Reconnect(const LinkParams& link,
                       std::optional<TransportKind> kind = std::nullopt);
  TransportKind transport_kind() const {
    return session_.transport_spec().kind;
  }

  // Direct access for tests and detailed benchmarks.
  WindowServer* window_server() { return session_.window_server(); }
  ThincServer* server() { return session_.server(); }
  ThincClient* client() { return session_.client(); }
  Transport* connection() { return session_.transport(); }
  CpuAccount* client_cpu() { return session_.device_cpu(); }

 private:
  ThincSystem(EventLoop* loop, const ThincSessionOptions& options,
              int server_cpu_cores);

  CpuAccount server_cpu_;
  // The server host's payload pool (declared before session_, whose server
  // uses it).
  PayloadPool payloads_;
  ThincSession session_;
  mutable std::vector<SimTime> video_frame_times_;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_THINC_SYSTEM_H_
