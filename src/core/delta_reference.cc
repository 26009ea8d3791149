#include "src/core/delta_reference.h"

#include <utility>
#include <vector>

#include "src/codec/delta.h"
#include "src/telemetry/metrics.h"

namespace thinc {
namespace {

// Counts one invalidation of an armed reference.
void CountInvalidation() {
  static Counter* invalidations =
      MetricsRegistry::Get().GetCounter("codec.reference_invalidations");
  invalidations->Inc();
}

}  // namespace

void DeltaReference::Observe(Transport* conn) {
  estimator_.Invalidate();
  conn->SetObserver(&estimator_);
}

void DeltaReference::Drop() {
  Void();
  lazy_arm_ok_ = false;
  estimator_.Invalidate();
}

void DeltaReference::Renegotiated(const Surface& screen, const Region& stale,
                                  bool scaled) {
  lazy_arm_ok_ = false;  // the client is past its virgin black framebuffer
  if (scaled) {
    Void();
    return;
  }
  screen_ = screen;
  stale_ = stale;
  armed_ = true;
}

void DeltaReference::FidelityChanged() {
  if (armed_) {
    CountInvalidation();
    stale_ = Region(screen_.bounds());
  }
}

void DeltaReference::MarkStale(const Region& region) {
  if (armed_) {
    stale_ = stale_.Union(region);
  }
}

void DeltaReference::Void() {
  if (armed_) {
    CountInvalidation();
  }
  armed_ = false;
  screen_ = Surface();
  stale_ = Region();
}

void DeltaReference::Apply(const Command& cmd, const Surface& screen) {
  if (!armed_) {
    if (!lazy_arm_ok_) {
      return;
    }
    screen_ = Surface(screen.width(), screen.height(), kBlack);
    stale_ = Region();
    armed_ = true;
  }
  // Commands that read the client framebuffer (COPY; transparent BITMAP
  // blends over it) propagate staleness from their source into their
  // destination; pure overwrites scrub it. The server-side DeltaCommand
  // carries its reconstructed pixels, so it counts as an overwrite here
  // even though its wire form is reference-dependent.
  bool reads_stale = false;
  switch (cmd.type()) {
    case MsgType::kCopy:
      reads_stale = static_cast<const CopyCommand&>(cmd).SourceRegion().Intersects(
          stale_);
      break;
    case MsgType::kBitmap:
      reads_stale = cmd.overlap() == OverlapClass::kTransparent &&
                    cmd.region().Intersects(stale_);
      break;
    default:
      break;
  }
  cmd.Apply(&screen_);
  if (reads_stale) {
    stale_ = stale_.Union(cmd.region());
  } else {
    stale_ = stale_.Subtract(cmd.region());
  }
}

std::unique_ptr<Command> DeltaReference::MaybeDelta(
    std::unique_ptr<Command> cmd, int degradation_level,
    std::span<const Rect> overlays, CpuAccount* cpu, PayloadPool* payloads) {
  if (!armed_ || cmd->type() != MsgType::kRaw) {
    return cmd;
  }
  auto* raw = static_cast<RawCommand*>(cmd.get());
  const Rect rect = raw->rect();
  // Only full-rect RAWs qualify: a clipped region would need the delta
  // payload re-clipped, which the wire format cannot express.
  if (raw->region() != Region(rect)) {
    return cmd;
  }
  const CodecChoice choice = selector_.Choose(rect.area(), degradation_level);
  if (choice == CodecChoice::kIntra) {
    return cmd;
  }
  // Reference must be exact under the whole rect, and the rect must not
  // overlap a live video overlay (client pixels there are video frames the
  // reference never saw).
  if (rect.Intersect(screen_.bounds()) != rect || stale_.Intersects(rect)) {
    return cmd;
  }
  for (const Rect& overlay : overlays) {
    if (overlay.Intersects(rect)) {
      return cmd;
    }
  }
  static Counter* delta_hits = MetricsRegistry::Get().GetCounter("codec.delta_hits");
  static Counter* delta_fallbacks =
      MetricsRegistry::Get().GetCounter("codec.delta_fallbacks");
  static Counter* bytes_saved =
      MetricsRegistry::Get().GetCounter("codec.delta_bytes_saved");
  if (choice == CodecChoice::kDeltaSubsample) {
    // Starved link: drop fidelity before diffing, same knob as the ladder's
    // subsample rung (idempotent with it — SubsampleFidelity applies once).
    if (raw->SubsampleFidelity(2)) {
      cpu->Charge(static_cast<double>(rect.area()) * cpucost::kResamplePerPixel);
      raw->InternPayload(payloads);
    }
  }
  const std::vector<Pixel> ref_slice = screen_.GetPixels(rect);
  DeltaStats stats;
  double delta_cost = 0;
  std::vector<uint8_t> payload = DeltaEncode(ref_slice, raw->PixelData(),
                                             rect.width, rect.height, &stats,
                                             &delta_cost);
  // Honest comparison against the intra frame this would replace. The intra
  // encode work is genuinely done (EncodedSize() encodes and caches), so the
  // delta path's CPU cost is intra + diff — the bet only pays in bytes.
  const size_t intra_bytes = raw->EncodedSize();
  const size_t delta_bytes = DeltaCommand::EncodedSizeFor(payload.size());
  if (delta_bytes >= intra_bytes) {
    delta_fallbacks->Inc();
    return cmd;
  }
  delta_hits->Inc();
  bytes_saved->Inc(static_cast<int64_t>(intra_bytes - delta_bytes));
  auto delta = std::make_unique<DeltaCommand>(
      rect, raw->SharePayload(), std::move(payload),
      raw->EncodeCpuCost() + delta_cost);
  delta->set_trace_id(raw->trace_id());
  delta->set_schedule_seq(raw->schedule_seq());
  delta->set_queued_at(raw->queued_at());
  return delta;
}

}  // namespace thinc
