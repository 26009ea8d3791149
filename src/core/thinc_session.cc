#include "src/core/thinc_session.h"

#include "src/net/connection.h"
#include "src/net/loopback.h"

namespace thinc {

ThincSession::ThincSession(EventLoop* loop, CpuAccount* host_cpu,
                           PayloadPool* payloads, ThincSessionOptions options,
                           WindowServer* shared_screen)
    : loop_(loop), host_cpu_(host_cpu), decode_speed_(options.decode_speed),
      spec_(options.transport), transport_(MakeTransport()) {
  // Keep push/pull settings coherent across the pair.
  options.client.client_pull = !options.server.server_push;
  options.client.encrypt = options.server.encrypt;
  server_ = std::make_unique<ThincServer>(loop, transport_.get(), host_cpu,
                                          payloads, options.server);
  screen_ = shared_screen;
  if (screen_ == nullptr) {
    own_screen_ = std::make_unique<WindowServer>(
        options.screen_width, options.screen_height, server_.get(), host_cpu);
    screen_ = own_screen_.get();
  }
  server_->AttachWindowServer(screen_);
  client_ = std::make_unique<ThincClient>(
      loop, transport_.get(), DecodeCpu(), screen_->screen_width(),
      screen_->screen_height(), options.client);
  server_->SetInputHandler([this](Point p, int32_t button) {
    screen_->InjectInput(p);
    // Button 0 is a position-only event (e.g. the cursor sync a reconnecting
    // client sends); only real clicks reach the application callback.
    if (button > 0 && input_fn_) {
      input_fn_(p);
    }
  });
  if (options.viewport.has_value()) {
    client_->RequestViewport(options.viewport->x, options.viewport->y);
  }
}

std::unique_ptr<Transport> ThincSession::MakeTransport() {
  if (spec_.kind == TransportKind::kLoopback) {
    return std::make_unique<LoopbackTransport>(loop_, host_cpu_);
  }
  std::unique_ptr<Connection> wire;
  if (spec_.kind == TransportKind::kLossy) {
    wire = std::make_unique<LossyTransport>(loop_, spec_.link, spec_.loss,
                                            spec_.send_buffer_bytes);
  } else {
    wire = std::make_unique<Connection>(loop_, spec_.link,
                                        spec_.send_buffer_bytes);
  }
  if (spec_.nic != nullptr) {
    wire->AttachUplink(spec_.nic, spec_.nic_weight);
  }
  return wire;
}

CpuAccount* ThincSession::DecodeCpu() {
  // A co-located client is the host: it decodes on the host CPU. A remote
  // one decodes on its own device, whose account lives as long as the
  // session, so the device keeps its history across rebinds.
  if (spec_.kind == TransportKind::kLoopback) {
    return host_cpu_;
  }
  if (!device_cpu_.has_value()) {
    device_cpu_.emplace(loop_, decode_speed_);
  }
  return &*device_cpu_;
}

Transport* ThincSession::Rebind(const TransportSpec& spec,
                                bool differential_resync) {
  Disconnect();
  retired_.push_back(std::move(transport_));
  spec_ = spec;
  transport_ = MakeTransport();
  server_->Attach(transport_.get());
  if (differential_resync) {
    server_->ArmDifferentialResync();
  }
  client_->Attach(transport_.get(), DecodeCpu());
  return transport_.get();
}

void ThincSession::RebindHost(CpuAccount* host_cpu, PayloadPool* payloads) {
  host_cpu_ = host_cpu;
  server_->RebindHost(host_cpu, payloads);
  if (own_screen_ != nullptr) {
    own_screen_->set_cpu(host_cpu);
  }
}

void ThincSession::Disconnect() {
  if (!transport_->closed()) {
    transport_->Reset();
  }
}

int64_t ThincSession::BytesDeliveredToClient() const {
  int64_t total = transport_->BytesDeliveredTo(Transport::kClient);
  for (const auto& t : retired_) {
    total += t->BytesDeliveredTo(Transport::kClient);
  }
  return total;
}

}  // namespace thinc
