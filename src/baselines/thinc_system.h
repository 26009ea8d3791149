// THINC assembled as a complete system-under-test: window server +
// ThincServer driver on the server host, ThincClient on the client host,
// one simulated connection between them.
#ifndef THINC_SRC_BASELINES_THINC_SYSTEM_H_
#define THINC_SRC_BASELINES_THINC_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/baselines/system.h"
#include "src/core/thinc_client.h"
#include "src/core/thinc_server.h"
#include "src/device/device.h"
#include "src/display/window_server.h"
#include "src/net/connection.h"
#include "src/net/loopback.h"
#include "src/net/lossy.h"

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
              ThincClientOptions client_options = {},
              int server_cpu_cores = 1,
              TransportKind transport_kind = TransportKind::kWire,
              const LossyOptions& lossy_options = {},
              double client_decode_speed = 1.0);

  // Device-profile construction: the profile supplies the transport kind
  // (lossy WAN when profile.lossy), an optional link override, the client's
  // decode CPU speed, the server's degradation schedule, and — when the
  // device panel is smaller than the hosted desktop — the viewport the
  // client negotiates at session start (server-side Fant resize).
  ThincSystem(EventLoop* loop, const DeviceProfile& profile,
              const LinkParams& link, int32_t screen_width,
              int32_t screen_height, ThincServerOptions server_options = {},
              ThincClientOptions client_options = {},
              int server_cpu_cores = 1);

  std::string name() const override { return "THINC"; }
  DrawingApi* api() override { return window_server_.get(); }
  CpuAccount* app_cpu() override { return &server_cpu_; }

  void ClientClick(Point location) override;
  void SetInputCallback(InputFn fn) override { input_fn_ = std::move(fn); }

  bool SupportsViewport() const override { return true; }
  void SetViewport(int32_t width, int32_t height) override;

  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) override {
    server_->SubmitAudio(pcm, timestamp);
  }

  int64_t BytesToClient() const override {
    // Lifetime total across every transport the session has used.
    int64_t total = conn_->BytesDeliveredTo(Transport::kClient);
    for (const auto& c : retired_conns_) {
      total += c->BytesDeliveredTo(Transport::kClient);
    }
    return total;
  }
  SimTime LastDeliveryToClient() const override {
    return conn_->LastDeliveryTo(Transport::kClient);
  }
  SimTime ClientLastProcessedAt() const override {
    return client_->last_processed_at();
  }
  const std::vector<SimTime>& VideoFrameTimes() const override;
  int64_t AudioBytesDelivered() const override;
  const Surface* ClientFramebuffer() const override {
    return &client_->framebuffer();
  }

  // Replaces the (typically reset) transport with a fresh one — of the same
  // kind by default, or of `kind` when given (wire <-> loopback switches
  // model a session migrating between remote and co-located hosts; the
  // client's decode CPU moves with the kind: loopback decodes on the host
  // CPU, wire on the client device) — and reattaches server and client to
  // it. The old transport is retired, not destroyed: its in-loop events may
  // still fire (harmlessly, thanks to stale-connection guards) and its
  // traces stay readable for per-phase stats. Returns the new transport.
  Transport* Reconnect(const LinkParams& link,
                       std::optional<TransportKind> kind = std::nullopt);
  TransportKind transport_kind() const { return transport_kind_; }
  const std::vector<std::unique_ptr<Transport>>& retired_connections() const {
    return retired_conns_;
  }

  // Direct access for tests and detailed benchmarks.
  WindowServer* window_server() { return window_server_.get(); }
  ThincServer* server() { return server_.get(); }
  ThincClient* client() { return client_.get(); }
  Transport* connection() { return conn_.get(); }
  CpuAccount* client_cpu() { return &client_cpu_; }

 private:
  // Builds a fresh transport of this system's kind over the current link.
  std::unique_ptr<Transport> MakeTransport();

  EventLoop* loop_;
  CpuAccount server_cpu_;
  // The server host's payload pool (declared before server_, which uses it).
  PayloadPool payloads_;
  CpuAccount client_cpu_;
  LinkParams link_;
  TransportKind transport_kind_;
  LossyOptions lossy_options_;  // used when transport_kind_ == kLossy
  std::unique_ptr<Transport> conn_;
  // Dead transports outlive their replacement: scheduled loop events
  // capture raw pointers into them, and robustness stats read their traces.
  std::vector<std::unique_ptr<Transport>> retired_conns_;
  std::unique_ptr<ThincServer> server_;
  std::unique_ptr<WindowServer> window_server_;
  std::unique_ptr<ThincClient> client_;
  InputFn input_fn_;
  mutable std::vector<SimTime> video_frame_times_;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_THINC_SYSTEM_H_
