#include "src/core/thinc_client.h"

#include <algorithm>

#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

constexpr uint8_t kTransportKey[16] = {0x54, 0x48, 0x49, 0x4E, 0x43, 0x2D, 0x4B, 0x45,
                                       0x59, 0x2D, 0x30, 0x30, 0x30, 0x31, 0x00, 0x01};

}  // namespace

ThincClient::ThincClient(EventLoop* loop, Transport* conn, CpuAccount* cpu,
                         int32_t fb_width, int32_t fb_height,
                         ThincClientOptions options)
    : loop_(loop), conn_(conn), cpu_(cpu), options_(options),
      framebuffer_(fb_width, fb_height, kBlack) {
  if (options_.encrypt) {
    tx_cipher_.emplace(kTransportKey);
    rx_cipher_.emplace(kTransportKey);
  }
  Telemetry& telemetry = Telemetry::Get();
  if (telemetry.active()) {
    telemetry_pid_ = telemetry.RegisterHostAuto(options_.telemetry_host);
    telemetry.NameThread(telemetry_pid_, 1, "net");
    telemetry.NameThread(telemetry_pid_, 2, "decode");
  }
  BindConnection();
  if (options_.client_pull) {
    RequestUpdate();
  }
}

void ThincClient::BindConnection() {
  conn_->SetReceiver(Transport::kClient,
                     [this](std::span<const uint8_t> data) { OnReceive(data); });
  conn_->SetClosed(Transport::kClient, [this, c = conn_] {
    if (c == conn_) {  // a retired connection's late notification is moot
      connected_ = false;
    }
  });
}

void ThincClient::Attach(Transport* conn, CpuAccount* cpu) {
  conn_ = conn;
  cpu_ = cpu;
  connected_ = true;
  // Transport state died with the old connection: half-parsed frame bytes,
  // cipher keystream position, the server's stream table (it re-announces).
  parser_ = FrameParser();
  if (options_.encrypt) {
    tx_cipher_.emplace(kTransportKey);
    rx_cipher_.emplace(kTransportKey);
  }
  streams_.clear();
  pull_outstanding_ = false;
  BindConnection();
  // Session renegotiation, mirroring startup: report the display geometry —
  // which triggers the server's single full-screen resync — and sync the
  // cursor position (button 0: position only, no click).
  WireWriter w;
  w.I32(framebuffer_.width());
  w.I32(framebuffer_.height());
  SendFrame(BuildFrame(MsgType::kResizeViewport, w.Take()));
  SendInput(last_pointer_, /*button=*/0);
  if (options_.client_pull) {
    RequestUpdate();
  }
}

bool ThincClient::SendFrame(std::vector<uint8_t> frame) {
  if (!connected_ || conn_->closed()) {
    return false;  // dropped; resync after Attach() covers the intent
  }
  if (tx_cipher_.has_value()) {
    tx_cipher_->Process(frame, frame);
  }
  size_t sent = conn_->Send(Transport::kClient, frame);
  THINC_CHECK_MSG(sent == frame.size(), "control channel backed up");
  return true;
}

SimTime ThincClient::ChargeAndStamp(double cost_us) {
  SimTime done = cpu_->Charge(cost_us);
  last_processed_at_ = std::max(last_processed_at_, done);
  return done;
}

void ThincClient::SendInput(Point location, int32_t button) {
  last_pointer_ = location;  // renegotiated on reconnect
  WireWriter w;
  w.PointVal(location);
  w.I32(button);
  w.I64(loop_->now());
  std::vector<uint8_t> payload = w.Take();
  SendFrame(BuildFrame(MsgType::kInput, payload));
}

void ThincClient::RequestViewport(int32_t width, int32_t height) {
  // "When the user zooms in on the desktop, the client presents a temporary
  // magnified view ... while it requests updated content from the server"
  // (Section 6): scale the current framebuffer into the new geometry as a
  // placeholder instead of blanking; the server's refresh then replaces it
  // with real content.
  if (!framebuffer_.empty()) {
    Surface magnified(width, height, kBlack);
    for (int32_t y = 0; y < height; ++y) {
      int32_t sy = static_cast<int32_t>(static_cast<int64_t>(y) *
                                        framebuffer_.height() / height);
      for (int32_t x = 0; x < width; ++x) {
        int32_t sx = static_cast<int32_t>(static_cast<int64_t>(x) *
                                          framebuffer_.width() / width);
        magnified.Put(x, y, framebuffer_.At(sx, sy));
      }
    }
    cpu_->Charge(static_cast<double>(width) * height *
                 cpucost::kClientResamplePerPixel);
    framebuffer_ = std::move(magnified);
  } else {
    framebuffer_ = Surface(width, height, kBlack);
  }
  WireWriter w;
  w.I32(width);
  w.I32(height);
  std::vector<uint8_t> payload = w.Take();
  SendFrame(BuildFrame(MsgType::kResizeViewport, payload));
}

void ThincClient::RequestUpdate() {
  if (pull_outstanding_) {
    return;
  }
  if (SendFrame(BuildFrame(MsgType::kUpdateRequest, {}))) {
    pull_outstanding_ = true;  // only armed if the request actually left
  }
}

void ThincClient::MaybeRearmPull() {
  if (!options_.client_pull || pull_rearm_scheduled_) {
    return;
  }
  pull_rearm_scheduled_ = true;
  // Re-request after this batch is processed (coalesced per loop turn).
  loop_->Schedule(0, [this] {
    pull_rearm_scheduled_ = false;
    RequestUpdate();
  });
}

void ThincClient::OnReceive(std::span<const uint8_t> data) {
  std::vector<uint8_t> plain(data.begin(), data.end());
  if (rx_cipher_.has_value()) {
    rx_cipher_->Process(plain, plain);
    cpu_->Charge(cpucost::kRc4PerByte * static_cast<double>(plain.size()));
  }
  parser_.Feed(plain);
  while (auto frame = parser_.Next()) {
    ++frames_received_;
    if (frame->type < type_stats_.size()) {
      type_stats_[frame->type].frames += 1;
      type_stats_[frame->type].payload_bytes +=
          static_cast<int64_t>(frame->payload.size());
    }
    HandleFrame(frame->type, frame->payload);
  }
}

void ThincClient::HandleFrame(uint8_t type, std::span<const uint8_t> payload) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kRaw:
    case MsgType::kRawDelta:
    case MsgType::kCopy:
    case MsgType::kSfill:
    case MsgType::kPfill:
    case MsgType::kBitmap: {
      // Pop the out-of-band trace id first (even for malformed frames, so
      // the channel stays aligned with the server's commit order).
      Telemetry& telemetry = Telemetry::Get();
      const uint64_t trace_id =
          telemetry.spans_on() ? telemetry.PopWireTrace(conn_) : 0;
      if (trace_id != 0) {
        telemetry.StampDelivered(trace_id, telemetry_pid_, loop_->now());
      }
      std::unique_ptr<Command> cmd = DecodeCommand(type, payload);
      if (cmd == nullptr) {
        return;  // malformed frame: drop, never crash
      }
      SimTime done = ChargeAndStamp(cpucost::kDecodePerByte *
                                    static_cast<double>(payload.size()));
      if (trace_id != 0) {
        telemetry.StampDecoded(trace_id, done);
      }
      cmd->Apply(&framebuffer_);
      // Fill/copy operations run on the display hardware; charge a token
      // cost per pixel touched.
      done = ChargeAndStamp(0.001 * static_cast<double>(cmd->region().Area()));
      if (trace_id != 0) {
        telemetry.StampDamaged(trace_id, done);
      }
      ++commands_applied_;
      pull_outstanding_ = false;
      MaybeRearmPull();
      return;
    }
    case MsgType::kVideoSetup: {
      WireReader r(payload);
      int32_t id, sw, sh;
      Rect dst;
      if (!r.I32(&id) || !r.I32(&sw) || !r.I32(&sh) || !r.RectVal(&dst)) {
        return;
      }
      streams_[id] = StreamState{sw, sh, dst};
      return;
    }
    case MsgType::kVideoFrame: {
      WireReader r(payload);
      int32_t id, w, h;
      int64_t server_ts;
      if (!r.I32(&id) || !r.I32(&w) || !r.I32(&h) || !r.I64(&server_ts) || w <= 0 ||
          h <= 0) {
        return;
      }
      auto it = streams_.find(id);
      if (it == streams_.end()) {
        return;
      }
      Yv12Frame probe = Yv12Frame::Allocate(w, h);
      std::vector<uint8_t> planes;
      if (!r.Bytes(probe.byte_size(), &planes)) {
        return;
      }
      // Overlay hardware: color conversion + scale to the display rect is
      // effectively free; charge only the data shuffle.
      ChargeAndStamp(0.001 * static_cast<double>(planes.size()));
      // Scale to the stream's whole destination, then clip to the screen,
      // as the server's reference screen does.
      Yv12ScaleInto(Yv12Frame::Unpack(w, h, planes), it->second.dst, &framebuffer_);
      video_frames_.push_back(VideoFrameArrival{id, loop_->now(), server_ts});
      pull_outstanding_ = false;
      MaybeRearmPull();
      return;
    }
    case MsgType::kVideoMove: {
      WireReader r(payload);
      int32_t id;
      Rect dst;
      if (!r.I32(&id) || !r.RectVal(&dst)) {
        return;
      }
      auto it = streams_.find(id);
      if (it != streams_.end()) {
        it->second.dst = dst;
      }
      return;
    }
    case MsgType::kVideoTeardown: {
      WireReader r(payload);
      int32_t id;
      if (r.I32(&id)) {
        streams_.erase(id);
      }
      return;
    }
    case MsgType::kAudio: {
      WireReader r(payload);
      int64_t timestamp;
      uint32_t len;
      if (!r.I64(&timestamp) || !r.U32(&len)) {
        return;
      }
      std::vector<uint8_t> pcm;
      if (!r.Bytes(len, &pcm)) {
        return;
      }
      ChargeAndStamp(0.001 * static_cast<double>(len));
      audio_chunks_.push_back(AudioChunkArrival{timestamp, loop_->now(), pcm.size()});
      return;
    }
    default:
      return;
  }
}

SimTime ThincClient::MaxAvSkew() const {
  if (video_frames_.empty() || audio_chunks_.empty()) {
    return 0;
  }
  // Compare each video frame's delay with the delay of the closest audio
  // chunk (by server timestamp).
  SimTime worst = 0;
  size_t ai = 0;
  for (const VideoFrameArrival& frame : video_frames_) {
    while (ai + 1 < audio_chunks_.size() &&
           audio_chunks_[ai + 1].server_timestamp <= frame.server_timestamp) {
      ++ai;
    }
    SimTime video_delay = frame.time - frame.server_timestamp;
    SimTime audio_delay =
        audio_chunks_[ai].time - audio_chunks_[ai].server_timestamp;
    SimTime skew = video_delay - audio_delay;
    if (skew < 0) {
      skew = -skew;
    }
    worst = std::max(worst, skew);
  }
  return worst;
}

}  // namespace thinc
