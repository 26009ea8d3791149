#include "src/core/session_share.h"

#include <algorithm>

#include "src/telemetry/metrics.h"
#include "src/util/logging.h"

namespace thinc {

// --- BroadcastDriver -----------------------------------------------------------

void BroadcastDriver::AddSink(DisplayDriver* sink) {
  sinks_.push_back(sink);
  // Wire the newcomer into every live video stream.
  for (auto& [shared_id, stream] : streams_) {
    stream.per_sink[sink] =
        sink->OnVideoStreamCreate(stream.src_width, stream.src_height, stream.dst);
  }
}

void BroadcastDriver::RemoveSink(DisplayDriver* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
  for (auto& [shared_id, stream] : streams_) {
    stream.per_sink.erase(sink);
  }
}

void BroadcastDriver::OnFillSolid(DrawableId dst, const Region& region, Pixel color) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnFillSolid(dst, region, color);
  }
}

void BroadcastDriver::OnFillTiled(DrawableId dst, const Region& region,
                                  const Surface& tile, Point origin) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnFillTiled(dst, region, tile, origin);
  }
}

void BroadcastDriver::OnFillStippled(DrawableId dst, const Region& region,
                                     const Bitmap& stipple, Point origin, Pixel fg,
                                     Pixel bg, bool transparent_bg) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnFillStippled(dst, region, stipple, origin, fg, bg, transparent_bg);
  }
}

void BroadcastDriver::OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
                             Point dst_origin) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnCopy(src, dst, src_rect, dst_origin);
  }
}

void BroadcastDriver::OnPutImage(DrawableId dst, const Rect& rect,
                                 std::span<const Pixel> pixels) {
  // Materialize the transient span ONCE; every sink shares the same
  // ref-counted payload instead of copying it per viewer.
  OnPutImageShared(dst, rect, PixelBuffer::Copy(pixels));
}

void BroadcastDriver::OnPutImageShared(DrawableId dst, const Rect& rect,
                                       const PixelBuffer& pixels) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnPutImageShared(dst, rect, pixels.Share());
  }
}

void BroadcastDriver::OnComposite(DrawableId dst, const Rect& rect,
                                  std::span<const Pixel> blended) {
  OnCompositeShared(dst, rect, PixelBuffer::Copy(blended));
}

void BroadcastDriver::OnCompositeShared(DrawableId dst, const Rect& rect,
                                        const PixelBuffer& blended) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnCompositeShared(dst, rect, blended.Share());
  }
}

void BroadcastDriver::OnCreatePixmap(DrawableId id, int32_t width, int32_t height) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnCreatePixmap(id, width, height);
  }
}

void BroadcastDriver::OnDestroyPixmap(DrawableId id) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnDestroyPixmap(id);
  }
}

int32_t BroadcastDriver::OnVideoStreamCreate(int32_t src_width, int32_t src_height,
                                             const Rect& dst) {
  SharedStream stream;
  stream.src_width = src_width;
  stream.src_height = src_height;
  stream.dst = dst;
  for (DisplayDriver* sink : sinks_) {
    stream.per_sink[sink] = sink->OnVideoStreamCreate(src_width, src_height, dst);
  }
  int32_t id = next_stream_id_++;
  streams_[id] = std::move(stream);
  return id;
}

void BroadcastDriver::OnVideoFrame(int32_t stream_id, const Yv12Frame& frame) {
  auto it = streams_.find(stream_id);
  THINC_CHECK(it != streams_.end());
  for (DisplayDriver* sink : sinks_) {
    auto sid = it->second.per_sink.find(sink);
    if (sid != it->second.per_sink.end()) {
      sink->OnVideoFrame(sid->second, frame);
    }
  }
}

void BroadcastDriver::OnVideoStreamMove(int32_t stream_id, const Rect& dst) {
  auto it = streams_.find(stream_id);
  THINC_CHECK(it != streams_.end());
  it->second.dst = dst;
  for (DisplayDriver* sink : sinks_) {
    auto sid = it->second.per_sink.find(sink);
    if (sid != it->second.per_sink.end()) {
      sink->OnVideoStreamMove(sid->second, dst);
    }
  }
}

void BroadcastDriver::OnVideoStreamDestroy(int32_t stream_id) {
  auto it = streams_.find(stream_id);
  THINC_CHECK(it != streams_.end());
  for (DisplayDriver* sink : sinks_) {
    auto sid = it->second.per_sink.find(sink);
    if (sid != it->second.per_sink.end()) {
      sink->OnVideoStreamDestroy(sid->second);
    }
  }
  streams_.erase(it);
}

void BroadcastDriver::OnInputEvent(Point location) {
  for (DisplayDriver* sink : sinks_) {
    sink->OnInputEvent(location);
  }
}

// --- SharedSessionHost -----------------------------------------------------------

namespace {
// Relative host CPU speed (matches the testbed server of Section 8.1).
constexpr double kHostSpeed = 2.0;
}  // namespace

SharedSessionHost::SharedSessionHost(EventLoop* loop, int32_t width, int32_t height,
                                     int host_cpu_cores)
    : loop_(loop), host_cpu_(loop, kHostSpeed, host_cpu_cores) {
  window_server_ =
      std::make_unique<WindowServer>(width, height, &broadcast_, &host_cpu_);
}

SharedSessionHost::~SharedSessionHost() {
  // Detach sinks before their ThincServers are destroyed.
  for (auto& viewer : viewers_) {
    broadcast_.RemoveSink(viewer->server.get());
  }
}

SharedSessionHost::Viewer* SharedSessionHost::AddViewer(
    const LinkParams& link, ThincServerOptions server_options,
    ThincClientOptions client_options) {
  auto viewer = std::make_unique<Viewer>();
  viewer->client_cpu = std::make_unique<CpuAccount>(loop_, 1.0);
  viewer->conn = std::make_unique<Connection>(loop_, link);
  CpuAccount* client_cpu = viewer->client_cpu.get();
  return FinishViewer(std::move(viewer), client_cpu, server_options,
                      client_options);
}

SharedSessionHost::Viewer* SharedSessionHost::AddLocalViewer(
    LoopbackOptions loopback, ThincServerOptions server_options,
    ThincClientOptions client_options) {
  auto viewer = std::make_unique<Viewer>();
  // Co-located: frames reach the client as ref-counted handoffs, and the
  // client decodes on the same machine the session runs on, so its work
  // shares the host CPU instead of a remote terminal's.
  viewer->conn = std::make_unique<LoopbackTransport>(loop_, &host_cpu_, loopback);
  return FinishViewer(std::move(viewer), &host_cpu_, server_options,
                      client_options);
}

SharedSessionHost::Viewer* SharedSessionHost::FinishViewer(
    std::unique_ptr<Viewer> viewer, CpuAccount* client_cpu,
    ThincServerOptions server_options, ThincClientOptions client_options) {
  client_options.client_pull = !server_options.server_push;
  client_options.encrypt = server_options.encrypt;
  // All viewers share one encoded-frame cache: a frame encoded for any
  // viewer is reused (bytes and skipped CPU charge) by the rest.
  server_options.shared_frame_cache = &frame_cache_;
  // Per-viewer protocol work (translation, encode, encryption) runs on the
  // one shared host CPU — which is what bounds how many viewers one session
  // scales to.
  viewer->server = std::make_unique<ThincServer>(
      loop_, viewer->conn.get(), &host_cpu_, &payloads_, server_options);
  viewer->server->AttachWindowServer(window_server_.get());
  viewer->client = std::make_unique<ThincClient>(
      loop_, viewer->conn.get(), client_cpu,
      window_server_->screen_width(), window_server_->screen_height(),
      client_options);
  viewer->server->SetInputHandler([this](Point p, int32_t) {
    // Input from any collaborator reaches the shared application.
    window_server_->InjectInput(p);
    if (input_fn_) {
      input_fn_(p);
    }
  });
  broadcast_.AddSink(viewer->server.get());
  // Late joiners catch up with the session's current contents.
  viewer->server->SendFullRefresh();
  viewers_.push_back(std::move(viewer));
  static Gauge* viewers = MetricsRegistry::Get().GetGauge("share.viewers");
  viewers->Set(static_cast<int64_t>(viewers_.size()));
  return viewers_.back().get();
}

void SharedSessionHost::RemoveViewer(Viewer* viewer) {
  broadcast_.RemoveSink(viewer->server.get());
  viewers_.erase(std::remove_if(viewers_.begin(), viewers_.end(),
                                [viewer](const std::unique_ptr<Viewer>& v) {
                                  return v.get() == viewer;
                                }),
                 viewers_.end());
  MetricsRegistry::Get().GetGauge("share.viewers")->Set(
      static_cast<int64_t>(viewers_.size()));
}

void SharedSessionHost::SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) {
  for (auto& viewer : viewers_) {
    viewer->server->SubmitAudio(pcm, timestamp);
  }
}

}  // namespace thinc
