#include "src/core/scheduler.h"

#include <gtest/gtest.h>

#include "src/util/prng.h"

namespace thinc {
namespace {

std::unique_ptr<RawCommand> RawOfSize(const Rect& r, Pixel color = kWhite) {
  auto cmd = std::make_unique<RawCommand>(
      r, std::vector<Pixel>(static_cast<size_t>(r.area()), color));
  cmd->set_compression_enabled(false);  // deterministic size
  return cmd;
}

std::unique_ptr<SfillCommand> Sfill(const Rect& r, Pixel color = kWhite) {
  return std::make_unique<SfillCommand>(Region(r), color);
}

TEST(BandTest, PowersOfTwoBoundaries) {
  EXPECT_EQ(UpdateScheduler::BandFor(0), 0);
  EXPECT_EQ(UpdateScheduler::BandFor(127), 0);
  EXPECT_EQ(UpdateScheduler::BandFor(128), 1);
  EXPECT_EQ(UpdateScheduler::BandFor(255), 1);
  EXPECT_EQ(UpdateScheduler::BandFor(256), 2);
  EXPECT_EQ(UpdateScheduler::BandFor(1 << 20), UpdateScheduler::kNumBands - 1);
}

TEST(SchedulerTest, SmallerCommandsPopFirst) {
  UpdateScheduler sched;
  // A large RAW arrives before a small fill; the fill must pop first (SRSF).
  sched.Insert(RawOfSize(Rect{0, 0, 100, 100}), 0);
  sched.Insert(Sfill(Rect{200, 200, 10, 10}), 0);
  std::unique_ptr<Command> first = sched.PopNext();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->type(), MsgType::kSfill);
}

TEST(SchedulerTest, FifoWithinBand) {
  UpdateScheduler sched;
  sched.Insert(Sfill(Rect{0, 0, 5, 5}), 0);
  sched.Insert(Sfill(Rect{10, 0, 5, 5}), 0);
  EXPECT_EQ(sched.PopNext()->region().Bounds().x, 0);
  EXPECT_EQ(sched.PopNext()->region().Bounds().x, 10);
}

TEST(SchedulerTest, FifoModeIgnoresSize) {
  SchedulerOptions options;
  options.fifo = true;
  UpdateScheduler sched(options);
  sched.Insert(RawOfSize(Rect{0, 0, 100, 100}), 0);
  sched.Insert(Sfill(Rect{200, 200, 10, 10}), 0);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kRaw);
}

TEST(SchedulerTest, RealtimeQueuePreempts) {
  UpdateScheduler sched;
  sched.NoteInput(Point{500, 500}, 0);
  sched.Insert(Sfill(Rect{0, 0, 5, 5}), 0);            // normal small
  sched.Insert(Sfill(Rect{495, 495, 20, 20}), 0);      // near the click
  EXPECT_EQ(sched.PopNext()->region().Bounds().x, 495);
}

TEST(SchedulerTest, RealtimeWindowExpires) {
  UpdateScheduler sched;
  sched.NoteInput(Point{500, 500}, 0);
  SimTime late = UpdateScheduler::kRealtimeWindow + 1;
  sched.Insert(Sfill(Rect{0, 0, 5, 5}), late);
  sched.Insert(Sfill(Rect{495, 495, 20, 20}), late);
  // Input stale: plain FIFO within the band.
  EXPECT_EQ(sched.PopNext()->region().Bounds().x, 0);
}

TEST(SchedulerTest, LargeCommandsNeverRealtime) {
  UpdateScheduler sched;
  sched.NoteInput(Point{50, 50}, 0);
  sched.Insert(RawOfSize(Rect{0, 0, 200, 200}), 0);  // overlaps input, too big
  sched.Insert(Sfill(Rect{300, 300, 5, 5}), 0);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kSfill);
}

TEST(SchedulerTest, TransparentFollowsLargestDependency) {
  UpdateScheduler sched;
  // Large RAW at the target area (a high band).
  sched.Insert(RawOfSize(Rect{0, 0, 100, 100}), 0);
  // Transparent copy reading that area: must not be scheduled before it.
  auto copy = std::make_unique<CopyCommand>(Region(Rect{0, 0, 20, 20}), Point{10, 10});
  sched.Insert(std::move(copy), 0);
  // A small unrelated fill pops first; then the RAW; the copy last.
  sched.Insert(Sfill(Rect{400, 400, 5, 5}), 0);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kSfill);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kRaw);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kCopy);
}

TEST(SchedulerTest, CopySourceOverlapCountsAsDependency) {
  UpdateScheduler sched;
  sched.Insert(RawOfSize(Rect{0, 0, 100, 100}), 0);
  // Copy whose *source* (but not destination) overlaps the RAW.
  auto copy =
      std::make_unique<CopyCommand>(Region(Rect{300, 300, 20, 20}), Point{-290, -290});
  sched.Insert(std::move(copy), 0);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kRaw);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kCopy);
}

TEST(SchedulerTest, IndependentTransparentUsesOwnSize) {
  UpdateScheduler sched;
  sched.Insert(RawOfSize(Rect{0, 0, 100, 100}), 0);
  // Copy with no buffered dependency: scheduled by its own (small) size.
  auto copy =
      std::make_unique<CopyCommand>(Region(Rect{300, 300, 20, 20}), Point{5, 5});
  sched.Insert(std::move(copy), 0);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kCopy);
}

TEST(SchedulerTest, EvictionDropsOverwrittenCommands) {
  UpdateScheduler sched;
  sched.Insert(RawOfSize(Rect{0, 0, 50, 50}), 0);
  EXPECT_EQ(sched.count(), 1u);
  // A full-cover fill evicts the RAW from the buffer entirely.
  sched.Insert(Sfill(Rect{0, 0, 60, 60}), 0);
  EXPECT_EQ(sched.count(), 1u);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kSfill);
  EXPECT_TRUE(sched.empty());
}

TEST(SchedulerTest, ClippedCommandRebands) {
  UpdateScheduler sched;
  // RAW of 100x20 = 8 KB encoded; clipping away most of it should drop its
  // band so it schedules ahead of a medium command.
  sched.Insert(RawOfSize(Rect{0, 0, 100, 20}), 0);
  sched.Insert(RawOfSize(Rect{200, 0, 40, 20}), 0);  // ~3.2 KB
  // Overwrite all but a 4x4 corner of the first RAW.
  sched.Insert(Sfill(Rect{0, 0, 100, 16}, kBlack), 0);
  sched.Insert(Sfill(Rect{4, 16, 96, 4}, kBlack), 0);
  // Pop everything; the clipped RAW (tiny remaining size) must come out
  // before the 3.2 KB RAW.
  std::vector<size_t> raw_sizes;
  while (auto cmd = sched.PopNext()) {
    if (cmd->type() == MsgType::kRaw) {
      raw_sizes.push_back(cmd->EncodedSize());
    }
  }
  ASSERT_EQ(raw_sizes.size(), 2u);
  EXPECT_LT(raw_sizes[0], raw_sizes[1]);
}

TEST(SchedulerTest, ReinsertGoesToBandFront) {
  UpdateScheduler sched;
  sched.Insert(Sfill(Rect{0, 0, 5, 5}), 0);
  auto remainder = Sfill(Rect{100, 100, 5, 5}, kBlack);
  sched.Reinsert(std::move(remainder));
  // Reinserted command continues ahead of same-band arrivals.
  EXPECT_EQ(sched.PopNext()->region().Bounds().x, 100);
}

TEST(SchedulerTest, ReinsertKeepsCompleteCommandsInBandZero) {
  UpdateScheduler sched;
  // A band-1 partial is already buffered.
  sched.Insert(RawOfSize(Rect{200, 0, 6, 6}), 0);
  // A many-rect SFILL whose encoding is well past band 0's 128-byte bound;
  // re-banding it purely by size (the old Reinsert) would break the band-0
  // invariant complete commands' reordering safety rests on.
  Region big(Rect{0, 0, 4, 4});
  for (int i = 1; i < 24; ++i) {
    big = big.Union(Region(Rect{i * 10, 0, 4, 4}));
  }
  auto sfill = std::make_unique<SfillCommand>(big, kWhite);
  ASSERT_GT(UpdateScheduler::BandFor(sfill->EncodedSize()), 0);
  sched.Reinsert(std::move(sfill));
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kSfill);  // still band 0
}

TEST(SchedulerTest, ReinsertKeepsTransparentBehindDependencies) {
  UpdateScheduler sched;
  sched.Insert(Sfill(Rect{0, 0, 40, 40}), 0);  // the copy's base content
  auto copy =
      std::make_unique<CopyCommand>(Region(Rect{0, 0, 40, 40}), Point{5, 5});
  sched.Reinsert(std::move(copy));
  // A reinserted transparent command must flush after what it depends on —
  // front-of-band placement would draw it before its base content arrives.
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kSfill);
  EXPECT_EQ(sched.PopNext()->type(), MsgType::kCopy);
}

TEST(SchedulerTest, ClearEmptiesEverythingAndDropsInputHotspot) {
  UpdateScheduler sched;
  sched.NoteInput(Point{500, 500}, 0);
  sched.Insert(Sfill(Rect{495, 495, 20, 20}), 0);  // realtime queue
  sched.Insert(RawOfSize(Rect{0, 0, 50, 50}), 0);  // a band
  sched.Clear();
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.TotalBytes(), 0u);
  EXPECT_EQ(sched.PopNext(), nullptr);
  // The cleared buffer belongs to a new session: the old input hotspot must
  // not preempt for it.
  sched.Insert(Sfill(Rect{0, 0, 5, 5}), 0);
  sched.Insert(Sfill(Rect{495, 495, 20, 20}), 0);
  EXPECT_EQ(sched.PopNext()->region().Bounds().x, 0);  // plain FIFO order
}

TEST(SchedulerTest, StarvationPromotesAgedBandFront) {
  UpdateScheduler sched;
  sched.set_starvation_limit(10);
  sched.Insert(RawOfSize(Rect{200, 0, 100, 100}), 1);  // high band
  sched.Insert(Sfill(Rect{0, 0, 50, 50}), 900);        // band 0, fresh
  // The RAW's age exceeds the limit and nothing overlaps it: promoted over
  // the band-0 fill.
  EXPECT_EQ(sched.PopNext(1000)->type(), MsgType::kRaw);
}

TEST(SchedulerTest, StarvationPromotionBlockedByOlderCompleteOverlap) {
  // An older complete fill (kept whole under partial overlap by eviction)
  // sits in band 0 overlapping a newer aged RAW. Promoting the RAW would
  // flush it first and the older fill would later redraw stale pixels over
  // the newer content at the client; the promotion must be skipped so the
  // fill still flushes first.
  UpdateScheduler sched;
  sched.set_starvation_limit(10);
  sched.Insert(Sfill(Rect{0, 0, 50, 50}), 0);          // older complete, band 0
  sched.Insert(RawOfSize(Rect{20, 20, 100, 100}), 1);  // newer partial, aged
  EXPECT_EQ(sched.PopNext(1000)->type(), MsgType::kSfill);
  EXPECT_EQ(sched.PopNext(1000)->type(), MsgType::kRaw);
}

TEST(SchedulerTest, TotalBytesAndCount) {
  UpdateScheduler sched;
  EXPECT_TRUE(sched.empty());
  sched.Insert(Sfill(Rect{0, 0, 5, 5}), 0);
  sched.Insert(RawOfSize(Rect{0, 100, 10, 10}), 0);
  EXPECT_EQ(sched.count(), 2u);
  EXPECT_GT(sched.TotalBytes(), 400u);
}

TEST(CopyMaterializationTest, NoHazardWhenOverwriterFlushesAfterCopy) {
  // The common scroll pattern: COPY in band 0, then its exposure fill also
  // in band 0 (appended behind it). The fill flushes after the copy and the
  // copy's source content is already delivered -> nothing to materialize.
  UpdateScheduler sched;
  auto copy =
      std::make_unique<CopyCommand>(Region(Rect{0, 0, 100, 100}), Point{0, 8});
  sched.Insert(std::move(copy), 0);
  SfillCommand fill(Region(Rect{0, 100, 100, 8}), kWhite);
  int planned = sched.PlannedBand(fill, 0);
  EXPECT_EQ(planned, 0);
  std::vector<Region> mats = sched.SplitCopiesReading(fill.region(), planned);
  EXPECT_TRUE(mats.empty());
  // The copy is untouched.
  EXPECT_EQ(sched.count(), 1u);
  EXPECT_EQ(sched.PopNext()->region().Area(), 100 * 100);
}

TEST(CopyMaterializationTest, H1OverwriterInLowerBandSplitsCopy) {
  // A copy pinned behind a big RAW dependency (high band); a small fill
  // overwriting the copy's source lands in band 0 and would flush first.
  UpdateScheduler sched;
  sched.Insert(RawOfSize(Rect{0, 0, 100, 100}), 0);  // the copy's dependency
  auto copy =
      std::make_unique<CopyCommand>(Region(Rect{0, 110, 100, 10}), Point{0, -60});
  sched.Insert(std::move(copy), 0);  // reads rows 50..60
  SfillCommand fill(Region(Rect{0, 50, 100, 5}), kWhite);  // overwrites rows 50..55
  int planned = sched.PlannedBand(fill, 0);
  ASSERT_EQ(planned, 0);
  std::vector<Region> mats = sched.SplitCopiesReading(fill.region(), planned);
  ASSERT_EQ(mats.size(), 1u);
  // The affected destination: rows 110..115 (source rows 50..55 shifted).
  EXPECT_EQ(mats[0].Bounds(), (Rect{0, 110, 100, 5}));
}

TEST(CopyMaterializationTest, H2EvictedDependencyContentSplitsCopy) {
  // The copy depends on an EARLIER buffered RAW; a later same-band fill
  // would flush after the copy (no H1), but inserting it would evict part
  // of the RAW the copy still needs to read.
  UpdateScheduler sched;
  sched.Insert(RawOfSize(Rect{0, 40, 100, 20}), 0);  // content the copy reads
  auto copy =
      std::make_unique<CopyCommand>(Region(Rect{0, 110, 100, 10}), Point{0, -60});
  sched.Insert(std::move(copy), 0);  // reads rows 50..60 (inside the RAW)
  // A fill overwriting rows 50..55. Its planned band is 0 == the copy's
  // dependency band... the copy itself sits in the RAW's band. Use a band
  // at least as high as the copy's to rule out H1.
  SfillCommand fill(Region(Rect{0, 50, 100, 5}), kWhite);
  int copy_band = UpdateScheduler::kNumBands - 1;  // force the no-H1 branch
  std::vector<Region> mats = sched.SplitCopiesReading(fill.region(), copy_band);
  ASSERT_EQ(mats.size(), 1u);
  EXPECT_EQ(mats[0].Bounds(), (Rect{0, 110, 100, 5}));
}

TEST(CopyMaterializationTest, ContentDrawnAfterCopyIsNotADependency) {
  // A fill drawn AFTER the copy arrived overwrites part of the copy's
  // source. If it flushes after the copy (same/lower precedence ruled out),
  // the copy never needed its content -> no materialization (H2 respects
  // arrival order).
  UpdateScheduler sched;
  auto copy =
      std::make_unique<CopyCommand>(Region(Rect{0, 110, 100, 10}), Point{0, -60});
  sched.Insert(std::move(copy), 0);  // copy arrives first, band 0
  // A later fill overwriting the copy's source, probing from a band >= the
  // copy's (flushes after it).
  SfillCommand fill(Region(Rect{0, 50, 100, 5}), kWhite);
  std::vector<Region> mats = sched.SplitCopiesReading(fill.region(), 0);
  EXPECT_TRUE(mats.empty());
}

TEST(SchedulerTest, ReorderingPreservesFinalImage) {
  // The Section 5 safety argument, tested directly: applying commands in
  // scheduler order yields the same framebuffer as arrival order.
  Prng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    UpdateScheduler sched;
    Surface arrival_order(64, 64, kBlack);
    std::vector<std::unique_ptr<Command>> originals;
    for (int i = 0; i < 25; ++i) {
      Rect r{static_cast<int32_t>(rng.NextBelow(48)),
             static_cast<int32_t>(rng.NextBelow(48)),
             static_cast<int32_t>(rng.NextInRange(1, 16)),
             static_cast<int32_t>(rng.NextInRange(1, 16))};
      Pixel color = static_cast<Pixel>(rng.Next()) | 0xFF000000;
      std::unique_ptr<Command> cmd;
      if (rng.NextBool(0.5)) {
        cmd = RawOfSize(r, color);
      } else {
        cmd = Sfill(r, color);
      }
      cmd->Apply(&arrival_order);
      sched.Insert(cmd->Clone(), 0);
    }
    Surface sched_order(64, 64, kBlack);
    while (auto cmd = sched.PopNext()) {
      cmd->Apply(&sched_order);
    }
    int64_t diff = 0;
    ASSERT_TRUE(arrival_order.Equals(sched_order, &diff))
        << "trial " << trial << ": " << diff << " pixels differ";
  }
}

}  // namespace
}  // namespace thinc
