#include "src/core/command_queue.h"

#include <utility>

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace thinc {

void CommandQueue::EvictOverwritten(std::deque<std::unique_ptr<Command>>* queue,
                                    const Region& incoming) {
  for (auto it = queue->begin(); it != queue->end();) {
    Command& existing = **it;
    if (!existing.region().Intersects(incoming)) {
      ++it;
      continue;
    }
    bool keep;
    if (existing.overlap() == OverlapClass::kComplete) {
      // Complete commands are only ever fully evicted.
      keep = !existing.region().Subtract(incoming).empty();
    } else {
      // Partial and transparent commands are clipped to what remains
      // visible.
      keep = existing.RestrictTo(existing.region().Subtract(incoming));
    }
    if (!keep) {
      static Counter* evicted =
          MetricsRegistry::Get().GetCounter("queue.evicted_commands");
      evicted->Inc();
      Telemetry::Get().MarkEvicted(existing.trace_id());
    }
    it = keep ? it + 1 : queue->erase(it);
  }
}

void CommandQueue::Insert(std::unique_ptr<Command> cmd) {
  THINC_CHECK(!cmd->region().empty());
  const bool opaque = cmd->overlap() != OverlapClass::kTransparent;
  if (opaque) {
    EvictOverwritten(&commands_, cmd->region());
    // Scanline aggregation: merge into the most recent command when both
    // are RAW and the new rows extend it downward.
    if (cmd->type() == MsgType::kRaw && !commands_.empty() &&
        commands_.back()->type() == MsgType::kRaw) {
      auto* incoming = static_cast<RawCommand*>(cmd.get());
      auto* last = static_cast<RawCommand*>(commands_.back().get());
      if (incoming->region() == Region(incoming->rect()) &&
          last->TryAppendRows(incoming->rect(), incoming->PixelData())) {
        return;
      }
    }
  }
  commands_.push_back(std::move(cmd));
}

std::vector<std::unique_ptr<Command>> CommandQueue::ExtractForCopy(
    const Rect& src_rect, Point dst_origin, const Surface& src_surface) const {
  const int32_t dx = dst_origin.x - src_rect.x;
  const int32_t dy = dst_origin.y - src_rect.y;
  const Region src_region{Rect(src_rect)};

  std::vector<std::unique_ptr<Command>> out;
  Region opaque_cov;  // opaque coverage accumulated in arrival order
  std::vector<std::unique_ptr<Command>> replayed;
  for (const auto& cmd : commands_) {
    std::unique_ptr<Command> clone = cmd->Clone();
    Region keep = clone->region().Intersect(src_region);
    if (clone->overlap() == OverlapClass::kTransparent) {
      // Transparent output is only replayable where an opaque base is also
      // being replayed beneath it; elsewhere its effect ships inside the
      // residual RAW.
      keep = keep.Intersect(opaque_cov);
    }
    if (keep.empty() || !clone->RestrictTo(keep)) {
      continue;
    }
    if (clone->overlap() != OverlapClass::kTransparent) {
      opaque_cov = opaque_cov.Union(clone->region());
    }
    clone->Translate(dx, dy);
    replayed.push_back(std::move(clone));
  }

  // Residual: source content no queued opaque command accounts for. Read it
  // from the surface (it already reflects transparent commands drawn there).
  Region residual = src_region.Subtract(opaque_cov);
  residual = residual.Intersect(src_surface.bounds());
  if (!residual.empty()) {
    for (const Rect& r : residual.rects()) {
      auto raw = std::make_unique<RawCommand>(r, src_surface.GetPixels(r));
      raw->Translate(dx, dy);
      out.push_back(std::move(raw));
    }
  }
  for (auto& cmd : replayed) {
    out.push_back(std::move(cmd));
  }
  return out;
}

void CommandQueue::Replay(Surface* fb) const {
  for (const auto& cmd : commands_) {
    cmd->Apply(fb);
  }
}

Region CommandQueue::OpaqueCoverage() const {
  Region cov;
  for (const auto& cmd : commands_) {
    if (cmd->overlap() != OverlapClass::kTransparent) {
      cov = cov.Union(cmd->region());
    }
  }
  return cov;
}

size_t CommandQueue::TotalBytes() const {
  size_t total = 0;
  for (const auto& cmd : commands_) {
    total += cmd->EncodedSize();
  }
  return total;
}

}  // namespace thinc
