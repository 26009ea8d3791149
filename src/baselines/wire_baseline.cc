#include "src/baselines/wire_baseline.h"

#include <algorithm>

namespace thinc {

WireBaseline::WireBaseline(EventLoop* loop, const LinkParams& link,
                           int32_t screen_width, int32_t screen_height,
                           uint8_t input_type, bool relay)
    : loop_(loop), width_(screen_width), height_(screen_height),
      server_cpu_(loop, kServerCpuSpeed), client_cpu_(loop, kClientCpuSpeed),
      input_type_(input_type) {
  if (relay) {
    // Two legs, each contributing half the end-to-end RTT, joined by the
    // hosted intermediate server.
    LinkParams leg = link;
    leg.rtt = link.rtt / 2;
    conn_ = std::make_unique<Connection>(loop, leg);
    client_conn_ = std::make_unique<Connection>(loop, leg);
    relay_ = std::make_unique<Relay>(conn_.get(), Transport::kClient,
                                     client_conn_.get(), Transport::kServer);
  } else {
    conn_ = std::make_unique<Connection>(loop, link);
  }
  out_ = std::make_unique<SendQueue>(loop, conn_.get(), Transport::kServer);
}

void WireBaseline::Connect() {
  client_parser_.emplace();
  server_parser_.emplace();
  client_leg()->SetReceiver(Transport::kClient,
                            [this](std::span<const uint8_t> d) { OnClientReceive(d); });
  conn_->SetReceiver(Transport::kServer,
                     [this](std::span<const uint8_t> d) { OnServerReceive(d); });
}

int64_t WireBaseline::BytesToClient() const {
  return client_leg()->BytesDeliveredTo(Transport::kClient);
}

SimTime WireBaseline::LastDeliveryToClient() const {
  return client_leg()->LastDeliveryTo(Transport::kClient);
}

// --- The click -------------------------------------------------------------------

void WireBaseline::ClientClick(Point location) {
  WireWriter w;
  w.PointVal(location);
  SendFromClient(input_type_, w.Take());
}

void WireBaseline::OnServerReceive(std::span<const uint8_t> data) {
  server_parser_->Feed(data);
  while (auto frame = server_parser_->Next()) {
    if (frame->type != input_type_) {
      OnServerFrame(frame->type);
      continue;
    }
    WireReader r(frame->payload);
    Point p;
    if (r.PointVal(&p)) {
      if (server_ws_ != nullptr) {
        server_ws_->InjectInput(p);
      }
      if (input_fn_) {
        input_fn_(p);
      }
    }
  }
}

// --- Sending ---------------------------------------------------------------------

void WireBaseline::Send(uint8_t type, std::span<const uint8_t> payload,
                        SimTime release, int64_t key) {
  out_->Enqueue(BuildFrame(static_cast<MsgType>(type), payload), release, key);
}

void WireBaseline::SendPcm(uint8_t type, std::span<const uint8_t> pcm,
                           SimTime timestamp) {
  WireWriter w;
  w.I64(timestamp);
  w.U32(static_cast<uint32_t>(pcm.size()));
  w.Bytes(pcm);
  Send(type, w.Take(), loop_->now());
}

void WireBaseline::SendFromClient(uint8_t type, std::span<const uint8_t> payload) {
  client_leg()->Send(Transport::kClient, BuildFrame(static_cast<MsgType>(type), payload));
}

// --- Client side -----------------------------------------------------------------

void WireBaseline::OnClientReceive(std::span<const uint8_t> data) {
  client_parser_->Feed(data);
  while (auto frame = client_parser_->Next()) {
    OnClientFrame(frame->type, frame->payload);
    client_processed_at_ = std::max(client_processed_at_, client_cpu_.busy_until());
  }
}

void WireBaseline::CountAudio(std::span<const uint8_t> payload) {
  WireReader r(payload);
  int64_t timestamp = 0;
  uint32_t pcm_bytes = 0;
  if (r.I64(&timestamp) && r.U32(&pcm_bytes)) {
    audio_bytes_ += pcm_bytes;
  }
}

void WireBaseline::VideoFrameDisplayed() { video_frame_times_.push_back(loop_->now()); }

void WireBaseline::UpdateDisplayed(const Region& covered, std::optional<Rect> visible) {
  if (!probe_rect_.has_value()) {
    return;
  }
  const Rect probe =
      visible.has_value() ? probe_rect_->Intersect(*visible) : *probe_rect_;
  if (!probe.empty() && covered.Intersect(probe).Area() * 10 >= probe.area() * 3) {
    VideoFrameDisplayed();
  }
}

Rect WireBaseline::ScaleOnto(const Surface& fb, const Rect& rect) const {
  const int32_t vw = fb.width();
  const int32_t vh = fb.height();
  return Rect::FromEdges(rect.x * vw / width_, rect.y * vh / height_,
                         (rect.right() * vw + width_ - 1) / width_,
                         (rect.bottom() * vh + height_ - 1) / height_)
      .Intersect(fb.bounds());
}

void WireBaseline::ResampleOnto(Surface* fb, const Rect& rect,
                                std::span<const Pixel> pixels) {
  client_cpu_.Charge(static_cast<double>(rect.area()) *
                     cpucost::kClientResamplePerPixel);
  const Rect dst = ScaleOnto(*fb, rect);
  for (int32_t y = dst.y; y < dst.bottom(); ++y) {
    for (int32_t x = dst.x; x < dst.right(); ++x) {
      const int32_t sx = std::clamp(x * width_ / fb->width() - rect.x, 0, rect.width - 1);
      const int32_t sy =
          std::clamp(y * height_ / fb->height() - rect.y, 0, rect.height - 1);
      fb->Put(x, y, pixels[static_cast<size_t>(sy) * rect.width + sx]);
    }
  }
}

}  // namespace thinc
