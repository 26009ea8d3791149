// Command queue object (Section 4 of the paper).
//
// A command queue holds the protocol commands that produce the *current*
// contents of one drawing region (the screen's client buffer, or one
// offscreen pixmap). Its central guarantee: "only those commands relevant to
// the current contents of the region are in the queue" — when new drawing
// overwrites old, overwritten commands are clipped or evicted according to
// their overlap class:
//   * partial commands are clipped to their still-visible remainder,
//   * complete commands are evicted only when fully covered,
//   * transparent commands never overwrite others, and are clipped like
//     partial commands when drawn over.
//
// The queue also performs THINC's aggregation: consecutive RAW scanline
// stores (image rasterization) merge into one command.
#ifndef THINC_SRC_CORE_COMMAND_QUEUE_H_
#define THINC_SRC_CORE_COMMAND_QUEUE_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/core/command.h"

namespace thinc {

class CommandQueue {
 public:
  CommandQueue() = default;
  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;
  CommandQueue(CommandQueue&&) = default;
  CommandQueue& operator=(CommandQueue&&) = default;

  // Inserts a command, evicting/clipping overwritten ones and merging RAW
  // scanlines with the most recent command when geometry lines up.
  void Insert(std::unique_ptr<Command> cmd);

  // The commands that draw `src_rect`, cloned, clipped to it, and moved so
  // src_rect's origin lands on dst_origin — the queue-copy operation behind
  // THINC's offscreen hierarchy support ("commands cannot simply be moved
  // from one queue to the other since an offscreen region may be used
  // multiple times as source"). Content in src_rect not attributable to any
  // queued opaque command is returned as residual RAW read from
  // `src_surface` (the last-resort path).
  std::vector<std::unique_ptr<Command>> ExtractForCopy(const Rect& src_rect,
                                                       Point dst_origin,
                                                       const Surface& src_surface) const;

  // Replays every queued command, in order, into `fb` (used by tests to
  // check replay equivalence).
  void Replay(Surface* fb) const;

  // Union of queued opaque command regions.
  Region OpaqueCoverage() const;

  void Clear() { commands_.clear(); }
  bool empty() const { return commands_.empty(); }
  size_t size() const { return commands_.size(); }
  // Total encoded bytes of all queued commands.
  size_t TotalBytes() const;

  const std::deque<std::unique_ptr<Command>>& commands() const { return commands_; }

  // Shared eviction pass: clips/evicts commands in `queue` overwritten by an
  // incoming opaque command with destination `incoming`. Used both here and
  // by the scheduler's client buffer.
  static void EvictOverwritten(std::deque<std::unique_ptr<Command>>* queue,
                               const Region& incoming);

 private:
  std::deque<std::unique_ptr<Command>> commands_;
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_COMMAND_QUEUE_H_
