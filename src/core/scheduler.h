// Shortest-Remaining-Size-First command scheduler (Section 5 of the paper).
//
// The per-client update buffer keeps commands awaiting transmission. It
// combines the command-queue overwrite semantics (outdated commands are
// evicted as the screen changes) with a multi-queue SRSF scheduler:
//
//   * Ten size-banded queues with power-of-two boundaries; commands are
//     placed by their *remaining* encoded size and flushed in increasing
//     band order, FIFO within a band. SRSF approximates SRPT, minimizing
//     mean response time for interactive updates.
//   * A real-time queue that preempts all bands: small/medium commands whose
//     output lands near the last user input event are delivered first, since
//     a video driver has no notion of "button" but does know where the user
//     just clicked.
//   * Transparent commands depend on commands drawn before them; each is
//     placed at the back of the band occupied by the largest command it
//     overlaps (output or source overlap), so every dependency flushes
//     before it does.
#ifndef THINC_SRC_CORE_SCHEDULER_H_
#define THINC_SRC_CORE_SCHEDULER_H_

#include <array>
#include <deque>
#include <memory>

#include "src/core/command.h"
#include "src/core/command_queue.h"
#include "src/util/event_loop.h"

namespace thinc {

struct SchedulerOptions {
  // Ablation knob (bench_paper's A2): single FIFO queue instead of
  // SRSF bands.
  bool fifo = false;
};

class UpdateScheduler {
 public:
  static constexpr int kNumBands = 10;
  // Band i holds sizes in [kBandBase << (i-1), kBandBase << i); band 0 holds
  // anything smaller, the last band anything larger.
  static constexpr size_t kBandBase = 128;
  // Real-time region half-size around the last input event, and how long an
  // input event keeps its region "hot".
  static constexpr int32_t kRealtimeHalo = 48;
  static constexpr SimTime kRealtimeWindow = 500 * kMillisecond;
  // Commands larger than this never enter the real-time queue ("small to
  // medium-sized", Section 5).
  static constexpr size_t kRealtimeMaxBytes = 16 << 10;

  explicit UpdateScheduler(SchedulerOptions options = {});

  // The band Insert() would choose for `cmd` right now (-1 for the
  // real-time queue). Exposed so callers can decide whether buffered COPYs
  // must be materialized before this command is inserted.
  int PlannedBand(const Command& cmd, SimTime now) const;

  // Inserts with overwrite semantics across *all* buffered commands (the
  // client-buffer eviction that keeps outdated content off the wire).
  // `min_band` floors the placement (used to keep a command behind state it
  // depends on even when eviction changed the buffer since planning).
  void Insert(std::unique_ptr<Command> cmd, SimTime now, int min_band = -1);

  // Reinserts the remainder of a split command using the same class-aware
  // placement as Insert (complete commands stay pinned to band 0,
  // transparent remainders stay behind their dependencies). Partial (RAW)
  // remainders go to the *front* of their remaining-size band so delivery of
  // a split command's segments stays contiguous unless something strictly
  // smaller arrives.
  void Reinsert(std::unique_ptr<Command> cmd);

  // Drops every buffered command and the real-time input hotspot (used when
  // a dead connection's buffer is discarded before reconnect resync).
  void Clear();

  // Pops the next command in flush order (real-time queue first, then bands
  // in increasing order). Null when empty. When a starvation limit is set
  // and `now` is provided, a band-front command aged past the limit is
  // flushed ahead of lower bands (see set_starvation_limit).
  std::unique_ptr<Command> PopNext(SimTime now = -1);

  // SRSF starvation limit (0 = off, the default; the overload ladder turns
  // it on and off): a buffered command older than this is flushed ahead of
  // lower bands, bounding the tail latency SRSF imposes on large updates
  // under sustained small-update load. Transparent commands are never
  // promoted (their dependencies must flush first), and a promotion is
  // skipped when a lower-band COPY still reads the candidate's output region
  // or an older lower-band complete command (kept whole under partial
  // overlap) would redraw over it.
  void set_starvation_limit(SimTime limit) { starvation_limit_ = limit; }
  SimTime starvation_limit() const { return starvation_limit_; }

  // Notes a user input event (drives the real-time region).
  void NoteInput(Point location, SimTime now);

  // New drawing, about to be inserted at `incoming_band`, will overwrite
  // `overwritten`. A buffered COPY whose *source* intersects it AND which
  // sits in a band *above* incoming_band would flush after the new command
  // and read the wrong framebuffer content at the client; the affected part
  // of each such copy's destination is removed from the buffer and returned
  // so the caller can materialize it as RAW pixels (the untouched remainder
  // stays an accelerated COPY). Copies at or below incoming_band flush
  // first, so they are safe and left alone.
  std::vector<Region> SplitCopiesReading(const Region& overwritten,
                                         int incoming_band);

  bool empty() const { return count_ == 0; }
  size_t count() const { return count_; }
  size_t TotalBytes() const;
  // Which band a command of `bytes` maps to (exposed for tests).
  static int BandFor(size_t bytes);

  // Telemetry host (Chrome-trace pid) that lifecycle spans created by this
  // scheduler are attributed to. 0 until the owning server registers one.
  void set_telemetry_pid(int pid) { telemetry_pid_ = pid; }

 private:
  bool IsRealtime(const Command& cmd, SimTime now) const;
  // Placement by overlap class (band-0 invariant for kComplete, dependency
  // banding for kTransparent, remaining size for kPartial). Shared by
  // Insert/PlannedBand and Reinsert.
  int ClassBand(const Command& cmd) const;
  // Stamps an arrival sequence number (no-op if already stamped).
  void AssignSeq(Command* cmd);
  // Index (band) of the largest command overlapping `cmd`'s dependencies,
  // or -1 when it has none buffered.
  int DependencyBand(const Command& cmd) const;
  void Evict(const Region& incoming);

  SchedulerOptions options_;
  SimTime starvation_limit_ = 0;
  int telemetry_pid_ = 0;
  int64_t next_seq_ = 0;
  std::array<std::deque<std::unique_ptr<Command>>, kNumBands> bands_;
  std::deque<std::unique_ptr<Command>> realtime_;
  size_t count_ = 0;
  Point last_input_{-10000, -10000};
  SimTime last_input_time_ = -1;
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_SCHEDULER_H_
