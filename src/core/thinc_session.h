// One THINC session: the server-side virtual display driver, the window
// server whose drawing it intercepts (its own, or one it shares with other
// sessions), the client, and the transport between them.
//
// The paper pairs one virtual display driver with one simple client per
// session, redirected by reconnecting (Section 7) or multiplexed to many
// viewers (Section 1). ThincSession is the only place that builds, rebinds
// and retires that pair; ThincSystem, FleetHost and SharedSessionHost own
// sessions and decide only what they share (host CPU, payload pool, NIC,
// window server). Two rules hold for every owner:
//
//   * Build order: transport, then server, window server, client. Telemetry
//     pids and same-instant event order follow it, so two owners given the
//     same inputs produce the same wire.
//   * A transport is retired, never destroyed. A replaced transport is
//     reset if still open and kept alive: loop events capture raw pointers
//     into it, and its traces stay readable for per-phase statistics.
#ifndef THINC_SRC_CORE_THINC_SESSION_H_
#define THINC_SRC_CORE_THINC_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/thinc_client.h"
#include "src/core/thinc_server.h"
#include "src/display/window_server.h"
#include "src/net/lossy.h"
#include "src/net/nic.h"
#include "src/net/transport.h"

namespace thinc {

// What a session's transport is built from.
struct TransportSpec {
  TransportKind kind = TransportKind::kWire;
  // Wire and lossy kinds: the path, the socket send buffer, and the shared
  // host NIC the server→client direction goes through (null: a private
  // wire).
  LinkParams link = {};
  size_t send_buffer_bytes = 256 << 10;
  NicScheduler* nic = nullptr;
  int64_t nic_weight = 1;
  // Lossy kind: the loss model and its seed.
  LossyOptions loss = {};
};

struct ThincSessionOptions {
  // The desktop an owned window server hosts (a shared one brings its own).
  int32_t screen_width = 1024;
  int32_t screen_height = 768;
  ThincServerOptions server = {};
  // Push/pull and encryption are taken from `server`.
  ThincClientOptions client = {};
  TransportSpec transport = {};
  // Decode speed of the client's own device, relative to the reference
  // terminal. A loopback client decodes on the host CPU instead.
  double decode_speed = 1.0;
  // Panel the client negotiates at session start (the server resamples
  // every update through the Fant path, Section 6); unset shows the whole
  // desktop.
  std::optional<Point> viewport = {};
};

class ThincSession {
 public:
  // `host_cpu` and `payloads` belong to the owner. With `shared_screen` the
  // owner routes that window server's drawing to server(); otherwise the
  // session owns a window server that draws straight into its server.
  ThincSession(EventLoop* loop, CpuAccount* host_cpu, PayloadPool* payloads,
               ThincSessionOptions options,
               WindowServer* shared_screen = nullptr);
  ThincSession(const ThincSession&) = delete;
  ThincSession& operator=(const ThincSession&) = delete;

  // Replaces the transport with a fresh one built from `spec` and reattaches
  // server and client to it; the client's decode CPU follows the kind. With
  // `differential_resync` the client's renegotiation pulls only the region
  // drawn since it provably matched the screen (live migration). Returns
  // the new transport.
  Transport* Rebind(const TransportSpec& spec,
                    bool differential_resync = false);
  // Moves the server-side work (server, owned window server, later loopback
  // transports and co-located decode) onto another host's CPU and payload
  // pool. Call before Rebind so no in-flight charge straddles hosts.
  void RebindHost(CpuAccount* host_cpu, PayloadPool* payloads);
  // Resets the transport if still open: server and client park, the server
  // on its virtual display state, the client on its last applied frame.
  void Disconnect();

  // A click at the client (it crosses the transport like any input).
  void ClientClick(Point location) { client_->SendInput(location, 1); }
  // Application callback for real clicks (button > 0) reaching the server.
  void SetInputCallback(std::function<void(Point)> fn) {
    input_fn_ = std::move(fn);
  }

  ThincServer* server() const { return server_.get(); }
  WindowServer* window_server() const { return screen_; }
  ThincClient* client() const { return client_.get(); }
  Transport* transport() const { return transport_.get(); }
  const TransportSpec& transport_spec() const { return spec_; }
  // The client device's own CPU account; null while the session has only
  // run co-located (its client has decoded on the host CPU alone).
  CpuAccount* device_cpu() { return device_cpu_ ? &*device_cpu_ : nullptr; }
  // Bytes delivered to the client across every transport the session used.
  int64_t BytesDeliveredToClient() const;

 private:
  std::unique_ptr<Transport> MakeTransport();
  // The account the client decodes on under the current transport kind.
  CpuAccount* DecodeCpu();

  EventLoop* loop_;
  CpuAccount* host_cpu_;
  double decode_speed_;
  TransportSpec spec_;
  std::optional<CpuAccount> device_cpu_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Transport>> retired_;
  std::unique_ptr<ThincServer> server_;
  std::unique_ptr<WindowServer> own_screen_;
  WindowServer* screen_ = nullptr;
  std::unique_ptr<ThincClient> client_;
  std::function<void(Point)> input_fn_;
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_THINC_SESSION_H_
