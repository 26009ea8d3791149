// WireBaseline: the skeleton of the wire-protocol comparison platforms of
// Section 8 (X/NX, VNC/GoToMyPC, Sun Ray, RDP/ICA).
//
// The base owns what the four models share:
//   * the hosts and the path: the server and client CPU accounts, the
//     connection (or GoToMyPC's two half-RTT legs joined by its relay), the
//     server's SendQueue and a frame parser at each end;
//   * the click: ClientClick sends the model's input message from the
//     client, and the server decodes it into the server window server (when
//     the model has one) and the application's input callback;
//   * the Section 8.2 measurement surface: bytes and last delivery at the
//     client, the client-processed stamp, displayed video frames and
//     decoded audio bytes. Only the base writes it.
//
// A model supplies its driver hooks and encoders on the server side, and a
// decode of one frame at the client (OnClientFrame). Two rules hold for all
// of them:
//   * the client-processed stamp is taken after every frame the client
//     parses, so page latency with client processing ends when the client
//     CPU has finished the page's last frame;
//   * a model that loses frame identity counts a displayed video frame
//     whenever a delivered update covers at least 30% of the probe rect.
#ifndef THINC_SRC_BASELINES_WIRE_BASELINE_H_
#define THINC_SRC_BASELINES_WIRE_BASELINE_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/baselines/send_queue.h"
#include "src/baselines/system.h"
#include "src/display/window_server.h"
#include "src/net/connection.h"
#include "src/protocol/wire.h"

namespace thinc {

class WireBaseline : public RemoteDisplaySystem {
 public:
  // Connection callbacks hold `this`.
  WireBaseline(const WireBaseline&) = delete;
  WireBaseline& operator=(const WireBaseline&) = delete;

  DrawingApi* api() override { return server_ws_.get(); }
  CpuAccount* app_cpu() override { return &server_cpu_; }
  void ClientClick(Point location) override;
  void SetInputCallback(InputFn fn) override { input_fn_ = std::move(fn); }
  void SetVideoProbeRect(const Rect& rect) override { probe_rect_ = rect; }

  int64_t BytesToClient() const override;
  SimTime LastDeliveryToClient() const override;
  SimTime ClientLastProcessedAt() const override { return client_processed_at_; }
  const std::vector<SimTime>& VideoFrameTimes() const override {
    return video_frame_times_;
  }
  int64_t AudioBytesDelivered() const override { return audio_bytes_; }

 protected:
  // `input_type` is the model's message code for a click. With `relay`, the
  // path is two legs of half the RTT each, joined by a hosted relay.
  WireBaseline(EventLoop* loop, const LinkParams& link, int32_t screen_width,
               int32_t screen_height, uint8_t input_type, bool relay = false);
  // Builds the frame parsers and registers both receivers, which dispatch
  // to the model's OnServerFrame and OnClientFrame. Each model calls it
  // last in its constructor. Building the parsers after the model's
  // framebuffers also keeps their small buffers above those surfaces on
  // the heap, so the allocator does not return and re-fault the surfaces'
  // pages each time a system is built.
  void Connect();

  // --- Server side ---------------------------------------------------------------
  // Frames `payload` as message `type` and queues it to leave the server at
  // `release`; `key` as in SendQueue::Enqueue.
  void Send(uint8_t type, std::span<const uint8_t> payload, SimTime release,
            int64_t key = -1);
  // Ships PCM uncompressed as message `type`: timestamp, length, samples.
  void SendPcm(uint8_t type, std::span<const uint8_t> pcm, SimTime timestamp);
  const SendQueue& send_queue() const { return *out_; }
  // A server-bound frame other than a click (VNC's update request).
  virtual void OnServerFrame(uint8_t type) {}

  // --- Client side ---------------------------------------------------------------
  // Decodes one frame at the client; the base stamps afterwards.
  virtual void OnClientFrame(uint8_t type, std::span<const uint8_t> payload) = 0;
  void SendFromClient(uint8_t type, std::span<const uint8_t> payload = {});
  // Counts an audio frame's decoded PCM bytes; its payload opens with the
  // timestamp and the PCM length.
  void CountAudio(std::span<const uint8_t> payload);
  // A video frame reached the client display now.
  void VideoFrameDisplayed();
  // An update covering `covered` reached the client display now; with
  // `visible`, only that part of the desktop (and of the probe) is shown.
  void UpdateDisplayed(const Region& covered,
                       std::optional<Rect> visible = std::nullopt);
  // Client-side resizing: `fb` shows the whole desktop scaled to its size.
  // ScaleOnto maps a desktop rect onto it (rounded outward); ResampleOnto
  // draws desktop pixels there with the nearest-neighbour resample a
  // constrained client uses, charged to the client CPU.
  Rect ScaleOnto(const Surface& fb, const Rect& rect) const;
  void ResampleOnto(Surface* fb, const Rect& rect, std::span<const Pixel> pixels);

  EventLoop* const loop_;
  const int32_t width_;  // the desktop, as the server renders it
  const int32_t height_;
  CpuAccount server_cpu_;
  CpuAccount client_cpu_;
  // The window server the application draws into, when it runs on the
  // server host; clicks are injected there. The model builds it.
  std::unique_ptr<WindowServer> server_ws_;

 private:
  void OnServerReceive(std::span<const uint8_t> data);
  void OnClientReceive(std::span<const uint8_t> data);
  Transport* client_leg() const {
    return client_conn_ != nullptr ? client_conn_.get() : conn_.get();
  }

  const uint8_t input_type_;
  std::unique_ptr<Transport> conn_;         // server <-> client (or relay)
  std::unique_ptr<Transport> client_conn_;  // relay <-> client (relay only)
  std::unique_ptr<Relay> relay_;
  std::unique_ptr<SendQueue> out_;
  std::optional<FrameParser> client_parser_;
  std::optional<FrameParser> server_parser_;

  InputFn input_fn_;
  std::optional<Rect> probe_rect_;
  SimTime client_processed_at_ = 0;
  std::vector<SimTime> video_frame_times_;
  int64_t audio_bytes_ = 0;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_WIRE_BASELINE_H_
