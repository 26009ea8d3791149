#include "src/baselines/scrape_system.h"

#include <algorithm>

#include "src/codec/hextile.h"
#include "src/codec/lzss.h"
#include "src/codec/palette.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// GoToMyPC's smallest supported client geometry.
constexpr int32_t kGotomypcMinWidth = 640;
constexpr int32_t kGotomypcMinHeight = 480;

}  // namespace

ScrapeSystem::ScrapeSystem(EventLoop* loop, const LinkParams& link,
                           int32_t screen_width, int32_t screen_height,
                           SystemKind kind, bool wan_profile)
    : WireBaseline(loop, link, screen_width, screen_height, kInput,
                   /*relay=*/kind == SystemKind::kGotomypc),
      gotomypc_(kind == SystemKind::kGotomypc), wan_profile_(wan_profile),
      client_fb_(screen_width, screen_height, kBlack) {
  THINC_CHECK(kind == SystemKind::kVnc || kind == SystemKind::kGotomypc);
  server_ws_ = std::make_unique<WindowServer>(
      screen_width, screen_height, static_cast<DisplayDriver*>(this), &server_cpu_);
  Connect();
  // The client opens with an initial update request (RFB handshake).
  SendFromClient(kRequest);
}

void ScrapeSystem::SetViewport(int32_t width, int32_t height) {
  if (gotomypc_) {
    width = std::max(width, kGotomypcMinWidth);
    height = std::max(height, kGotomypcMinHeight);
  }
  viewport_ = Rect{0, 0, width, height};
  client_fb_ = Surface(width, height, kBlack);
}

void ScrapeSystem::Damage(DrawableId dst, const Region& region) {
  if (dst != kScreenDrawable) {
    return;  // semantics (and offscreen content) are invisible to a scraper
  }
  dirty_ = dirty_.Union(region);
  MaybeAnswer();
}

void ScrapeSystem::MaybeAnswer() {
  if (!request_pending_ || dirty_.empty() || answer_scheduled_) {
    return;
  }
  answer_scheduled_ = true;
  constexpr SimTime kDefer = 5 * kMillisecond;  // update aggregation window
  loop_->Schedule(kDefer, [this] {
    answer_scheduled_ = false;
    EncodeAndSend();
  });
}

void ScrapeSystem::EncodeAndSend() {
  if (!request_pending_ || dirty_.empty()) {
    return;
  }
  Region to_send = dirty_;
  if (viewport_.has_value() && !gotomypc_) {
    // Clip model: only the viewport window into the desktop is shipped.
    to_send = to_send.Intersect(*viewport_);
    dirty_ = dirty_.Subtract(*viewport_);
    if (to_send.empty()) {
      return;
    }
  } else {
    dirty_ = Region();
  }
  request_pending_ = false;

  WireWriter w;
  w.U32(static_cast<uint32_t>(to_send.rect_count()));
  double cpu_cost = 0;
  for (const Rect& r : to_send.rects()) {
    std::vector<Pixel> pixels = server_ws_->screen().GetPixels(r);
    const double raw_bytes = static_cast<double>(pixels.size() * sizeof(Pixel));
    std::vector<uint8_t> encoded;
    uint8_t mode;
    if (gotomypc_) {
      // GoToMyPC: quantize to 8-bit, then compress hard.
      std::vector<uint8_t> indexed = PaletteQuantize(pixels);
      encoded = LzssEncode(indexed);
      cpu_cost += cpucost::kHeavyPerByte * raw_bytes;
      mode = 2;
    } else {
      encoded = HextileEncode(pixels, r.width, r.height);
      cpu_cost += cpucost::kHextilePerByte * raw_bytes;
      mode = 0;
      if (wan_profile_) {
        std::vector<uint8_t> packed = LzssEncode(encoded);
        cpu_cost += cpucost::kLzssPerByte * static_cast<double>(encoded.size());
        if (packed.size() < encoded.size()) {
          encoded = std::move(packed);
          mode = 1;
        }
      }
    }
    w.RectVal(r);
    w.U8(mode);
    w.U32(static_cast<uint32_t>(encoded.size()));
    w.Bytes(encoded);
  }
  Send(kUpdate, w.Take(), server_cpu_.Charge(cpu_cost));
}

void ScrapeSystem::OnServerFrame(uint8_t type) {
  if (type == kRequest) {
    request_pending_ = true;
    MaybeAnswer();
  }
}

void ScrapeSystem::OnClientFrame(uint8_t type, std::span<const uint8_t> payload) {
  if (type == kUpdate) {
    HandleUpdate(payload);
    // Pull model: processed this update, ask for the next.
    SendFromClient(kRequest);
  }
}

void ScrapeSystem::HandleUpdate(std::span<const uint8_t> payload) {
  WireReader r(payload);
  uint32_t rect_count;
  if (!r.U32(&rect_count) || rect_count > 1'000'000) {
    return;
  }
  Region covered;
  for (uint32_t i = 0; i < rect_count; ++i) {
    Rect rect;
    uint8_t mode;
    uint32_t len;
    if (!r.RectVal(&rect) || !r.U8(&mode) || !r.U32(&len)) {
      return;
    }
    std::vector<uint8_t> encoded;
    if (!r.Bytes(len, &encoded)) {
      return;
    }
    std::vector<Pixel> pixels;
    if (mode == 2) {
      std::vector<uint8_t> indexed;
      if (!LzssDecode(encoded, &indexed) ||
          indexed.size() != static_cast<size_t>(rect.area())) {
        return;
      }
      pixels = PaletteExpand(indexed);
    } else if (mode == 1) {
      std::vector<uint8_t> hextile;
      if (!LzssDecode(encoded, &hextile) ||
          !HextileDecode(hextile, rect.width, rect.height, &pixels)) {
        return;
      }
    } else {
      if (!HextileDecode(encoded, rect.width, rect.height, &pixels)) {
        return;
      }
    }
    client_cpu_.Charge(cpucost::kDecodePerByte * static_cast<double>(len) * 2);

    if (viewport_.has_value() && gotomypc_) {
      // GoToMyPC PDA: full-resolution data arrives; the *client* resamples —
      // latency up, bandwidth unchanged (Section 8.3).
      ResampleOnto(&client_fb_, rect, pixels);
    } else {
      client_fb_.PutPixels(rect, pixels);
    }
    covered = covered.Union(rect);
  }
  // The clip model shows (and probes) only the viewport window.
  UpdateDisplayed(covered, gotomypc_ ? std::nullopt : viewport_);
}

}  // namespace thinc
