#include "src/core/session_share.h"

#include <algorithm>

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
    broadcast_.RemoveSink(viewer->server());
  }
}

SharedSessionHost::Viewer* SharedSessionHost::AddSession(
    ThincServerOptions server_options, const TransportSpec& transport) {
  ThincSessionOptions options{.server = std::move(server_options),
                              .transport = transport};
  // All viewers share one encoded-frame cache: a frame encoded for any
  // viewer is reused (bytes and skipped CPU charge) by the rest.
  options.server.shared_frame_cache = &frame_cache_;
  // Per-viewer protocol work (translation, encode, encryption) runs on the
  // one shared host CPU — which is what bounds how many viewers one session
  // scales to.
  viewers_.push_back(std::make_unique<Viewer>(
      loop_, &host_cpu_, &payloads_, std::move(options), window_server_.get()));
  Viewer* viewer = viewers_.back().get();
  // Input from any collaborator reaches the shared application.
  viewer->SetInputCallback([this](Point p) {
    if (input_fn_) {
      input_fn_(p);
    }
  });
  broadcast_.AddSink(viewer->server());
  // Late joiners catch up with the session's current contents.
  viewer->server()->SendFullRefresh();
  return viewer;
}

void SharedSessionHost::RemoveViewer(Viewer* viewer) {
  broadcast_.RemoveSink(viewer->server());
  viewer->Disconnect();
  auto it = std::find_if(viewers_.begin(), viewers_.end(),
                         [viewer](const std::unique_ptr<Viewer>& v) {
                           return v.get() == viewer;
                         });
  THINC_CHECK(it != viewers_.end());
  removed_.push_back(std::move(*it));
  viewers_.erase(it);
}

void SharedSessionHost::SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) {
  for (auto& viewer : viewers_) {
    viewer->server()->SubmitAudio(pcm, timestamp);
  }
}

}  // namespace thinc
