#include "src/baselines/thinc_system.h"

namespace thinc {

namespace {

ThincServerOptions WithProfileLadder(ThincServerOptions options,
                                     const DeviceProfile& profile) {
  options.ladder = profile.ladder;
  return options;
}

ThincClientOptions WithProfileName(ThincClientOptions options,
                                   const DeviceProfile& profile) {
  options.telemetry_host = "thinc-client-" + profile.name;
  return options;
}

}  // namespace

ThincSystem::ThincSystem(EventLoop* loop, const LinkParams& link,
                         int32_t screen_width, int32_t screen_height,
                         ThincServerOptions server_options,
                         ThincClientOptions client_options,
                         int server_cpu_cores, TransportKind transport_kind,
                         const LossyOptions& lossy_options,
                         double client_decode_speed)
    : loop_(loop), server_cpu_(loop, kServerCpuSpeed, server_cpu_cores),
      client_cpu_(loop, kClientCpuSpeed * client_decode_speed), link_(link),
      transport_kind_(transport_kind), lossy_options_(lossy_options),
      conn_(MakeTransport()) {
  // Keep push/pull settings coherent across the pair.
  client_options.client_pull = !server_options.server_push;
  client_options.encrypt = server_options.encrypt;
  server_ = std::make_unique<ThincServer>(loop, conn_.get(), &server_cpu_,
                                          &payloads_, server_options);
  window_server_ = std::make_unique<WindowServer>(screen_width, screen_height,
                                                  server_.get(), &server_cpu_);
  server_->AttachWindowServer(window_server_.get());
  // A co-located client decodes on the server host's CPU; a remote one on
  // its own terminal.
  CpuAccount* client_cpu = transport_kind == TransportKind::kLoopback
                               ? &server_cpu_
                               : &client_cpu_;
  client_ = std::make_unique<ThincClient>(loop, conn_.get(), client_cpu,
                                          screen_width, screen_height,
                                          client_options);
  server_->SetInputHandler([this](Point p, int32_t button) {
    window_server_->InjectInput(p);
    // Button 0 is a position-only event (e.g. the cursor sync a reconnecting
    // client sends); only real clicks reach the application callback.
    if (button > 0 && input_fn_) {
      input_fn_(p);
    }
  });
}

ThincSystem::ThincSystem(EventLoop* loop, const DeviceProfile& profile,
                         const LinkParams& link, int32_t screen_width,
                         int32_t screen_height,
                         ThincServerOptions server_options,
                         ThincClientOptions client_options,
                         int server_cpu_cores)
    : ThincSystem(loop, profile.link.value_or(link), screen_width,
                  screen_height, WithProfileLadder(server_options, profile),
                  WithProfileName(client_options, profile), server_cpu_cores,
                  profile.lossy ? TransportKind::kLossy : TransportKind::kWire,
                  profile.loss, profile.decode_speed) {
  // A device panel smaller than the hosted desktop negotiates its viewport
  // at session start: the server resamples every update through the Fant
  // path (Section 6) and ships phone-sized bytes from the first refresh.
  if (profile.screen_width > 0 && profile.screen_height > 0 &&
      (profile.screen_width != screen_width ||
       profile.screen_height != screen_height)) {
    client_->RequestViewport(profile.screen_width, profile.screen_height);
  }
}

std::unique_ptr<Transport> ThincSystem::MakeTransport() {
  if (transport_kind_ == TransportKind::kLoopback) {
    return std::make_unique<LoopbackTransport>(loop_, &server_cpu_);
  }
  if (transport_kind_ == TransportKind::kLossy) {
    return std::make_unique<LossyTransport>(loop_, link_, lossy_options_);
  }
  return std::make_unique<Connection>(loop_, link_);
}

Transport* ThincSystem::Reconnect(const LinkParams& link,
                                  std::optional<TransportKind> kind) {
  if (!conn_->closed()) {
    // Reconnecting over a live transport implies abandoning it first.
    conn_->Reset();
  }
  retired_conns_.push_back(std::move(conn_));
  link_ = link;
  if (kind.has_value()) {
    transport_kind_ = *kind;
  }
  conn_ = MakeTransport();
  server_->Attach(conn_.get());
  // The decode CPU follows the transport kind: a co-located (loopback)
  // client decodes on the host CPU, a remote one on its own device.
  client_->Attach(conn_.get(), transport_kind_ == TransportKind::kLoopback
                                   ? &server_cpu_
                                   : &client_cpu_);
  return conn_.get();
}

void ThincSystem::ClientClick(Point location) {
  client_->SendInput(location, /*button=*/1);
}

void ThincSystem::SetViewport(int32_t width, int32_t height) {
  client_->RequestViewport(width, height);
}

const std::vector<SimTime>& ThincSystem::VideoFrameTimes() const {
  video_frame_times_.clear();
  for (const VideoFrameArrival& f : client_->video_frames()) {
    video_frame_times_.push_back(f.time);
  }
  return video_frame_times_;
}

int64_t ThincSystem::AudioBytesDelivered() const {
  int64_t total = 0;
  for (const AudioChunkArrival& chunk : client_->audio_chunks()) {
    total += static_cast<int64_t>(chunk.bytes);
  }
  return total;
}

}  // namespace thinc
