#include "src/baselines/thinc_system.h"

namespace thinc {

ThincSystem::ThincSystem(EventLoop* loop, const ThincSessionOptions& options,
                         int server_cpu_cores)
    : server_cpu_(loop, kServerCpuSpeed, server_cpu_cores),
      session_(loop, &server_cpu_, &payloads_, options) {}

ThincSystem::ThincSystem(EventLoop* loop, const LinkParams& link,
                         int32_t screen_width, int32_t screen_height,
                         ThincServerOptions server_options,
                         int server_cpu_cores, TransportKind transport_kind)
    : ThincSystem(loop,
                  {.screen_width = screen_width,
                   .screen_height = screen_height,
                   .server = std::move(server_options),
                   .transport = {.kind = transport_kind, .link = link}},
                  server_cpu_cores) {}

ThincSystem::ThincSystem(EventLoop* loop, const DeviceProfile& profile,
                         const LinkParams& link, int32_t screen_width,
                         int32_t screen_height,
                         ThincServerOptions server_options,
                         int server_cpu_cores)
    : ThincSystem(loop,
                  ApplyProfile(profile,
                               {.screen_width = screen_width,
                                .screen_height = screen_height,
                                .server = std::move(server_options),
                                .transport = {.link = link}}),
                  server_cpu_cores) {}

Transport* ThincSystem::Reconnect(const LinkParams& link,
                                  std::optional<TransportKind> kind) {
  TransportSpec spec = session_.transport_spec();
  spec.link = link;
  spec.kind = kind.value_or(spec.kind);
  return session_.Rebind(spec);
}

const std::vector<SimTime>& ThincSystem::VideoFrameTimes() const {
  video_frame_times_.clear();
  for (const VideoFrameArrival& f : session_.client()->video_frames()) {
    video_frame_times_.push_back(f.time);
  }
  return video_frame_times_;
}

int64_t ThincSystem::AudioBytesDelivered() const {
  int64_t total = 0;
  for (const AudioChunkArrival& chunk : session_.client()->audio_chunks()) {
    total += static_cast<int64_t>(chunk.bytes);
  }
  return total;
}

}  // namespace thinc
