// Screen sharing: one desktop session multiplexed to multiple THINC clients.
//
// The paper's introduction motivates this directly: "since display output
// can be arbitrarily redirected and multiplexed over the network, screen
// sharing among multiple clients becomes possible", enabling collaboration
// and remote technical support (Section 7 extends the authentication model
// with session passwords for exactly this).
//
// The virtual-driver architecture makes it almost free: a BroadcastDriver
// fans every device-layer operation out to one ThincServer per viewer, each
// with its own connection, update scheduler, transport cipher, and viewport
// (a PDA and a desktop can watch the same session at different scales).
// Late joiners receive a full-screen refresh; pixmaps created before they
// joined degrade gracefully to the residual-RAW path on first use.
#ifndef THINC_SRC_CORE_SESSION_SHARE_H_
#define THINC_SRC_CORE_SESSION_SHARE_H_

#include <map>
#include <memory>
#include <vector>

#include "src/core/thinc_session.h"
#include "src/display/window_server.h"

namespace thinc {

// Fans DisplayDriver hooks out to any number of downstream drivers
// (typically ThincServers). Video stream creation returns a shared id that
// maps onto each downstream's own stream id.
class BroadcastDriver : public DisplayDriver {
 public:
  void AddSink(DisplayDriver* sink);
  void RemoveSink(DisplayDriver* sink);
  size_t sink_count() const { return sinks_.size(); }

  void OnFillSolid(DrawableId dst, const Region& region, Pixel color) override;
  void OnFillTiled(DrawableId dst, const Region& region, const Surface& tile,
                   Point origin) override;
  void OnFillStippled(DrawableId dst, const Region& region, const Bitmap& stipple,
                      Point origin, Pixel fg, Pixel bg, bool transparent_bg) override;
  void OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
              Point dst_origin) override;
  void OnPutImage(DrawableId dst, const Rect& rect,
                  std::span<const Pixel> pixels) override;
  void OnPutImageShared(DrawableId dst, const Rect& rect,
                        const PixelBuffer& pixels) override;
  void OnComposite(DrawableId dst, const Rect& rect,
                   std::span<const Pixel> blended) override;
  void OnCompositeShared(DrawableId dst, const Rect& rect,
                         const PixelBuffer& blended) override;
  void OnCreatePixmap(DrawableId id, int32_t width, int32_t height) override;
  void OnDestroyPixmap(DrawableId id) override;
  bool SupportsVideo() const override { return true; }
  int32_t OnVideoStreamCreate(int32_t src_width, int32_t src_height,
                              const Rect& dst) override;
  void OnVideoFrame(int32_t stream_id, const Yv12Frame& frame) override;
  void OnVideoStreamMove(int32_t stream_id, const Rect& dst) override;
  void OnVideoStreamDestroy(int32_t stream_id) override;
  void OnInputEvent(Point location) override;

 private:
  std::vector<DisplayDriver*> sinks_;
  // shared stream id -> (sink -> sink's stream id), plus stream geometry so
  // late-joining sinks can be wired into live streams.
  struct SharedStream {
    int32_t src_width;
    int32_t src_height;
    Rect dst;
    std::map<DisplayDriver*, int32_t> per_sink;
  };
  std::map<int32_t, SharedStream> streams_;
  int32_t next_stream_id_ = 1;
};

// A complete shared session: the window server plus any number of viewers.
class SharedSessionHost {
 public:
  // A viewer is one THINC session on the shared window server.
  using Viewer = ThincSession;

  // `host_cpu_cores` models a K-core host: per-viewer encodes overlap
  // across cores, and large RAW encodes additionally split into parallel
  // slices (timing only; wire bytes are core-count independent).
  SharedSessionHost(EventLoop* loop, int32_t width, int32_t height,
                    int host_cpu_cores = 1);
  ~SharedSessionHost();

  // Adds a viewer over `link`. If content has already been drawn, the new
  // viewer immediately receives a full refresh (the late-join path).
  Viewer* AddViewer(const LinkParams& link,
                    ThincServerOptions server_options = {}) {
    return AddSession(std::move(server_options), {.link = link});
  }
  // Adds a co-located viewer: a LoopbackTransport hands encoded frames to
  // the client by reference (no wire, no copies), and both the handoffs and
  // the client's decode work are charged to the shared host CPU — the
  // "second head on the same machine" collaboration setup.
  Viewer* AddLocalViewer(ThincServerOptions server_options = {}) {
    return AddSession(std::move(server_options),
                      {.kind = TransportKind::kLoopback});
  }
  // Disconnects a viewer (the session keeps running for the others). The
  // viewer's transport is reset and the viewer kept alive: loop events
  // still point into its transport, server and client.
  void RemoveViewer(Viewer* viewer);

  WindowServer* window_server() { return window_server_.get(); }
  CpuAccount* host_cpu() { return &host_cpu_; }
  size_t viewer_count() const { return viewers_.size(); }
  Viewer* viewer(size_t i) { return viewers_[i].get(); }

  // Host-side input callback (fired for input from ANY viewer — the shared
  // session model of Section 7).
  void SetInputCallback(std::function<void(Point)> fn) { input_fn_ = std::move(fn); }

  // Sends audio to every connected viewer.
  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp);

 private:
  // Shared tail of AddViewer/AddLocalViewer: builds the viewer's session on
  // the shared window server and wires it into the broadcast fan-out and
  // the late-join refresh.
  Viewer* AddSession(ThincServerOptions server_options,
                     const TransportSpec& transport);

  EventLoop* loop_;
  CpuAccount host_cpu_;
  BroadcastDriver broadcast_;
  // Encoded-frame cache shared by every viewer's server: the first viewer to
  // encode a RAW frame at flush time stores it here, the rest reuse the
  // bytes and skip the encode CPU charge (~1 encode per frame regardless of
  // viewer count).
  ByteBufferCache frame_cache_;
  // Payload pool shared by every viewer's server: viewers whose servers
  // rebuild the same pixels separately (scanline merges, viewport pieces)
  // share one payload and its encodes.
  PayloadPool payloads_;
  std::unique_ptr<WindowServer> window_server_;
  std::vector<std::unique_ptr<Viewer>> viewers_;
  // Removed viewers, disconnected but alive.
  std::vector<std::unique_ptr<Viewer>> removed_;
  std::function<void(Point)> input_fn_;
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_SESSION_SHARE_H_
