#include "src/core/scheduler.h"

#include <algorithm>

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace thinc {

UpdateScheduler::UpdateScheduler(SchedulerOptions options) : options_(options) {}

int UpdateScheduler::BandFor(size_t bytes) {
  size_t bound = kBandBase;
  for (int band = 0; band < kNumBands - 1; ++band) {
    if (bytes < bound) {
      return band;
    }
    bound <<= 1;
  }
  return kNumBands - 1;
}

bool UpdateScheduler::IsRealtime(const Command& cmd, SimTime now) const {
  // Transparent commands depend on earlier output; letting them preempt
  // would draw them before their base content arrives.
  if (cmd.overlap() == OverlapClass::kTransparent) {
    return false;
  }
  if (last_input_time_ < 0 || now - last_input_time_ > kRealtimeWindow) {
    return false;
  }
  if (cmd.EncodedSize() > kRealtimeMaxBytes) {
    return false;
  }
  Rect halo{last_input_.x - kRealtimeHalo, last_input_.y - kRealtimeHalo,
            kRealtimeHalo * 2, kRealtimeHalo * 2};
  return cmd.region().Intersects(halo);
}

int UpdateScheduler::DependencyBand(const Command& cmd) const {
  // Dependencies: buffered commands whose output overlaps this command's
  // output — plus, for COPY, its source region, since the copy reads the
  // framebuffer. The command must flush after ALL of them, so it belongs at
  // the back of the highest band holding a dependency (the paper phrases
  // this as following the largest dependency; with complete commands pinned
  // to the first queue, "highest band" is the safe generalization).
  Region probe = cmd.region();
  if (cmd.type() == MsgType::kCopy) {
    probe = probe.Union(static_cast<const CopyCommand&>(cmd).SourceRegion());
  }
  int best_band = -1;
  for (int band = kNumBands - 1; band >= 0; --band) {
    for (const auto& other : bands_[band]) {
      if (other->region().Intersects(probe)) {
        return band;
      }
    }
  }
  return best_band;
}

void UpdateScheduler::Evict(const Region& incoming) {
  auto evict_from = [&incoming, this](std::deque<std::unique_ptr<Command>>* q) {
    size_t before = q->size();
    CommandQueue::EvictOverwritten(q, incoming);
    count_ -= before - q->size();
  };
  evict_from(&realtime_);
  for (auto& band : bands_) {
    evict_from(&band);
  }
  // Clipping may have shrunk commands below their band's range; re-band so
  // the remaining-size ordering stays truthful. Only partial (RAW) commands
  // are size-placed; complete commands are pinned to band 0 and transparent
  // commands sit where their dependencies put them.
  if (!options_.fifo) {
    for (int band = kNumBands - 1; band > 0; --band) {
      auto& q = bands_[band];
      for (auto it = q.begin(); it != q.end();) {
        if ((*it)->overlap() != OverlapClass::kPartial) {
          ++it;
          continue;
        }
        int want = BandFor((*it)->EncodedSize());
        if (want != band) {
          bands_[want].push_back(std::move(*it));
          it = q.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

int UpdateScheduler::PlannedBand(const Command& cmd, SimTime now) const {
  if (options_.fifo) {
    return 0;  // the ablation baseline: no SRSF, no real-time queue
  }
  if (IsRealtime(cmd, now)) {
    // The real-time queue flushes before every band — which is only safe if
    // no *older* buffered complete command (kept whole under overlap) would
    // later redraw over this command's output.
    bool blocked = false;
    for (const auto& other : bands_[0]) {
      if (other->overlap() == OverlapClass::kComplete &&
          other->region().Intersects(cmd.region())) {
        blocked = true;
        break;
      }
    }
    if (!blocked) {
      return -1;
    }
  }
  return ClassBand(cmd);
}

int UpdateScheduler::ClassBand(const Command& cmd) const {
  switch (cmd.overlap()) {
    case OverlapClass::kTransparent: {
      int dep = DependencyBand(cmd);
      return dep >= 0 ? dep : BandFor(cmd.EncodedSize());
    }
    case OverlapClass::kComplete:
      // Complete commands are kept whole under overlap, so their reordering
      // safety rests on always occupying the first queue (Section 5: "they
      // are guaranteed to end up in the first scheduler queue"); we enforce
      // that invariant rather than rely on their encodings staying tiny.
      return 0;
    case OverlapClass::kPartial:
      break;
  }
  return BandFor(cmd.EncodedSize());
}

void UpdateScheduler::Insert(std::unique_ptr<Command> cmd, SimTime now,
                             int min_band) {
  THINC_CHECK(!cmd->region().empty());
  AssignSeq(cmd.get());
  if (cmd->queued_at() < 0) {
    cmd->set_queued_at(now);
  }
  static Counter* inserted = MetricsRegistry::Get().GetCounter("sched.inserted");
  inserted->Inc();
  Telemetry& telemetry = Telemetry::Get();
  if (telemetry.spans_on() && cmd->trace_id() == 0) {
    // Entry into the client buffer is where an update's lifecycle starts;
    // translation happens in the same loop turn, so this stamp doubles as
    // the driver-interception time.
    cmd->set_trace_id(telemetry.NewUpdateSpan(static_cast<uint8_t>(cmd->type()),
                                              telemetry_pid_, now));
  }
  const int planned = PlannedBand(*cmd, now);
  if (cmd->overlap() != OverlapClass::kTransparent) {
    Evict(cmd->region());
  }
  if (planned < 0 && min_band < 0) {
    realtime_.push_back(std::move(cmd));
    ++count_;
    return;
  }
  // Re-plan after eviction (dependencies may have been clipped away) but
  // never below the caller's floor or the pre-eviction plan used to decide
  // copy materialization.
  int band = std::max({PlannedBand(*cmd, now), planned, min_band, 0});
  bands_[band].push_back(std::move(cmd));
  ++count_;
}

void UpdateScheduler::AssignSeq(Command* cmd) {
  if (cmd->schedule_seq() < 0) {
    cmd->set_schedule_seq(next_seq_++);
  }
}

void UpdateScheduler::Reinsert(std::unique_ptr<Command> cmd) {
  // Remainders go through the same class-aware placement as Insert: complete
  // commands keep the band-0 invariant, transparent remainders stay behind
  // their buffered dependencies, and only partial (RAW) remainders are
  // re-banded purely by remaining size.
  const int band = options_.fifo ? 0 : ClassBand(*cmd);
  if (!options_.fifo && cmd->overlap() == OverlapClass::kTransparent &&
      DependencyBand(*cmd) >= 0) {
    // Its dependencies live in this band and must still flush first.
    bands_[band].push_back(std::move(cmd));
  } else {
    // Front of the band: delivery of a split command's segments stays
    // contiguous unless something strictly smaller arrives.
    bands_[band].push_front(std::move(cmd));
  }
  ++count_;
}

void UpdateScheduler::Clear() {
  for (auto& band : bands_) {
    band.clear();
  }
  realtime_.clear();
  count_ = 0;
  // A cleared buffer belongs to a new (or resynchronized) client session;
  // the previous session's input hotspot must not preempt for it.
  last_input_ = Point{-10000, -10000};
  last_input_time_ = -1;
}

std::unique_ptr<Command> UpdateScheduler::PopNext(SimTime now) {
  if (!realtime_.empty()) {
    std::unique_ptr<Command> cmd = std::move(realtime_.front());
    realtime_.pop_front();
    --count_;
    return cmd;
  }
  if (starvation_limit_ > 0 && now >= 0) {
    // Starvation relief: among band fronts aged past the limit, flush the
    // oldest first. Band 0's front flushes next anyway, so start at band 1.
    int aged_band = -1;
    SimTime oldest = 0;
    for (int band = 1; band < kNumBands; ++band) {
      if (bands_[band].empty()) {
        continue;
      }
      const Command& front = *bands_[band].front();
      // Transparent commands must stay behind their dependencies; promoting
      // one would draw it before its base content reaches the client.
      if (front.overlap() == OverlapClass::kTransparent ||
          front.queued_at() < 0 ||
          now - front.queued_at() <= starvation_limit_) {
        continue;
      }
      if (aged_band < 0 || front.queued_at() < oldest) {
        aged_band = band;
        oldest = front.queued_at();
      }
    }
    if (aged_band >= 0) {
      // Promotion hazards, mirroring the real-time guards in PlannedBand:
      //  * A COPY in a lower band reads the framebuffer before this command
      //    would normally flush; promoting over it would let the copy read
      //    the promoted output.
      //  * A complete command in a lower band overlapping the promoted
      //    output is necessarily *older* (a newer one would have evicted or
      //    clipped this command on insert, but eviction keeps partially
      //    overlapped complete commands whole); flushing it after the
      //    promoted command would redraw stale pixels over newer content.
      // Skip promotion while either exists.
      const Region& out = bands_[aged_band].front()->region();
      bool unsafe = false;
      for (int band = 0; band < aged_band && !unsafe; ++band) {
        for (const auto& other : bands_[band]) {
          if (other->type() == MsgType::kCopy &&
              static_cast<const CopyCommand&>(*other).SourceRegion().Intersects(
                  out)) {
            unsafe = true;
            break;
          }
          if (other->overlap() == OverlapClass::kComplete &&
              other->region().Intersects(out)) {
            unsafe = true;
            break;
          }
        }
      }
      if (!unsafe) {
        std::unique_ptr<Command> cmd = std::move(bands_[aged_band].front());
        bands_[aged_band].pop_front();
        --count_;
        return cmd;
      }
    }
  }
  for (auto& band : bands_) {
    if (!band.empty()) {
      std::unique_ptr<Command> cmd = std::move(band.front());
      band.pop_front();
      --count_;
      return cmd;
    }
  }
  return nullptr;
}

std::vector<Region> UpdateScheduler::SplitCopiesReading(const Region& overwritten,
                                                        int incoming_band) {
  std::vector<Region> materialize;
  // Two hazards can corrupt what a buffered COPY reads at the client:
  //  H1 — the incoming command flushes *before* the copy (it lands in a
  //       band below the copy's), so the copy would read the new content.
  //  H2 — inserting the incoming command evicts/clips OTHER buffered
  //       commands whose output the copy's source still needs; that content
  //       will now never reach the client before the copy runs.
  // For H2 we need the pre-eviction buffered output regions (any of them
  // may be what a copy's source expects to read). Snapshot regions by value
  // — the processing below mutates and erases commands; the identity
  // pointer is used only for self-exclusion comparisons, never dereferenced
  // after an erase.
  struct Snapshot {
    const Command* id;
    Region region;
    int64_t seq;
  };
  std::vector<Snapshot> buffered;
  for (const auto& cmd : realtime_) {
    buffered.push_back(Snapshot{cmd.get(), cmd->region(), cmd->schedule_seq()});
  }
  for (const auto& band : bands_) {
    for (const auto& cmd : band) {
      buffered.push_back(Snapshot{cmd.get(), cmd->region(), cmd->schedule_seq()});
    }
  }

  for (int band = 0; band < kNumBands; ++band) {
    auto& q = bands_[band];
    for (auto it = q.begin(); it != q.end();) {
      Command& cmd = **it;
      if (cmd.type() != MsgType::kCopy) {
        ++it;
        continue;
      }
      auto& copy = static_cast<CopyCommand&>(cmd);
      Region src_overlap = overwritten.Intersect(copy.SourceRegion());
      if (src_overlap.empty()) {
        ++it;
        continue;
      }
      Region hazard;
      if (incoming_band >= 0 && band <= incoming_band) {
        // No H1 (the copy flushes first); only the parts of the source
        // whose expected content is still-undelivered buffered output the
        // copy DEPENDS on (H2) — i.e. commands that arrived before it.
        // Anything drawn after the copy is not part of what it reads, and
        // the copy itself reads atomically before writing.
        for (const Snapshot& other : buffered) {
          if (other.id == &cmd || other.seq >= copy.schedule_seq()) {
            continue;
          }
          hazard = hazard.Union(src_overlap.Intersect(other.region));
        }
      } else {
        hazard = src_overlap;
      }
      if (hazard.empty()) {
        ++it;
        continue;
      }
      // Destination pixels whose source is about to be destroyed.
      Region affected = hazard.Translated(-copy.delta().x, -copy.delta().y)
                            .Intersect(copy.region());
      if (affected.empty()) {
        ++it;
        continue;
      }
      materialize.push_back(affected);
      if (copy.RestrictTo(copy.region().Subtract(affected))) {
        ++it;
      } else {
        it = q.erase(it);
        --count_;
      }
    }
  }
  return materialize;
}

void UpdateScheduler::NoteInput(Point location, SimTime now) {
  last_input_ = location;
  last_input_time_ = now;
}

size_t UpdateScheduler::TotalBytes() const {
  size_t total = 0;
  for (const auto& cmd : realtime_) {
    total += cmd->EncodedSize();
  }
  for (const auto& band : bands_) {
    for (const auto& cmd : band) {
      total += cmd->EncodedSize();
    }
  }
  return total;
}

}  // namespace thinc
