#include "src/core/command_queue.h"

#include <gtest/gtest.h>

#include "src/util/prng.h"

namespace thinc {
namespace {

std::unique_ptr<RawCommand> Raw(const Rect& r, Pixel color) {
  return std::make_unique<RawCommand>(
      r, std::vector<Pixel>(static_cast<size_t>(r.area()), color));
}

std::unique_ptr<SfillCommand> Sfill(const Rect& r, Pixel color) {
  return std::make_unique<SfillCommand>(Region(r), color);
}

std::unique_ptr<BitmapCommand> TransparentText(const Rect& r, Pixel fg) {
  Bitmap mask(r.width, r.height);
  for (int32_t x = 0; x < r.width; x += 2) {
    mask.Set(x, 0, true);
  }
  return std::make_unique<BitmapCommand>(Region(r), std::move(mask), r.origin(), fg,
                                         0, /*transparent_bg=*/true);
}

TEST(CommandQueueTest, InsertKeepsArrivalOrder) {
  CommandQueue q;
  q.Insert(Sfill(Rect{0, 0, 5, 5}, kWhite));
  q.Insert(Sfill(Rect{10, 0, 5, 5}, kBlack));
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.commands()[0]->region().Bounds().x, 0);
  EXPECT_EQ(q.commands()[1]->region().Bounds().x, 10);
}

TEST(CommandQueueTest, PartialCommandGetsClipped) {
  CommandQueue q;
  q.Insert(Raw(Rect{0, 0, 10, 10}, kWhite));
  q.Insert(Sfill(Rect{0, 0, 10, 5}, kBlack));  // overwrites top half
  ASSERT_EQ(q.size(), 2u);
  // The RAW was clipped to its visible remainder.
  EXPECT_EQ(q.commands()[0]->region().Bounds(), (Rect{0, 5, 10, 5}));
}

TEST(CommandQueueTest, PartialCommandFullyCoveredIsEvicted) {
  CommandQueue q;
  q.Insert(Raw(Rect{2, 2, 5, 5}, kWhite));
  q.Insert(Sfill(Rect{0, 0, 20, 20}, kBlack));
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.commands()[0]->type(), MsgType::kSfill);
}

TEST(CommandQueueTest, CompleteCommandOnlyFullyEvicted) {
  CommandQueue q;
  q.Insert(Sfill(Rect{0, 0, 10, 10}, kWhite));
  // Partial overlap: the complete command stays whole.
  q.Insert(Raw(Rect{5, 5, 10, 10}, kBlack));
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.commands()[0]->region().Bounds(), (Rect{0, 0, 10, 10}));
  // Full cover: now it is evicted.
  q.Insert(Raw(Rect{0, 0, 20, 20}, MakePixel(3, 3, 3)));
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.commands()[0]->type(), MsgType::kRaw);
}

TEST(CommandQueueTest, TransparentNeverEvictsOthers) {
  CommandQueue q;
  q.Insert(Sfill(Rect{0, 0, 10, 10}, kWhite));
  q.Insert(TransparentText(Rect{0, 0, 10, 1}, kBlack));
  EXPECT_EQ(q.size(), 2u);
}

TEST(CommandQueueTest, TransparentGetsClippedByLaterOpaque) {
  CommandQueue q;
  q.Insert(TransparentText(Rect{0, 0, 10, 1}, kBlack));
  q.Insert(Sfill(Rect{0, 0, 5, 1}, kWhite));
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q.commands()[0]->region().Bounds(), (Rect{5, 0, 5, 1}));
}

TEST(CommandQueueTest, RawScanlinesMerge) {
  CommandQueue q;
  q.Insert(Raw(Rect{0, 0, 50, 1}, kWhite));
  q.Insert(Raw(Rect{0, 1, 50, 1}, kWhite));
  q.Insert(Raw(Rect{0, 2, 50, 1}, kWhite));
  EXPECT_EQ(q.size(), 1u);  // the rasterization aggregation
  EXPECT_EQ(q.commands()[0]->region().Bounds(), (Rect{0, 0, 50, 3}));
}

TEST(CommandQueueTest, NonAdjacentRawsDoNotMerge) {
  CommandQueue q;
  q.Insert(Raw(Rect{0, 0, 50, 1}, kWhite));
  q.Insert(Raw(Rect{0, 5, 50, 1}, kWhite));
  EXPECT_EQ(q.size(), 2u);
}

TEST(CommandQueueTest, ReplayMatchesSequentialApplication) {
  // The central queue invariant: replaying the (evicted/clipped) queue
  // produces the same image as applying every original command in order.
  Prng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    Surface direct(64, 64, kBlack);
    CommandQueue q;
    for (int i = 0; i < 30; ++i) {
      Rect r{static_cast<int32_t>(rng.NextBelow(48)),
             static_cast<int32_t>(rng.NextBelow(48)),
             static_cast<int32_t>(rng.NextInRange(1, 16)),
             static_cast<int32_t>(rng.NextInRange(1, 16))};
      Pixel color = static_cast<Pixel>(rng.Next()) | 0xFF000000;
      std::unique_ptr<Command> cmd;
      switch (rng.NextBelow(3)) {
        case 0:
          cmd = Raw(r, color);
          break;
        case 1:
          cmd = Sfill(r, color);
          break;
        default:
          cmd = TransparentText(r, color);
          break;
      }
      cmd->Apply(&direct);
      q.Insert(cmd->Clone());
    }
    Surface replayed(64, 64, kBlack);
    q.Replay(&replayed);
    int64_t diff = 0;
    ASSERT_TRUE(direct.Equals(replayed, &diff))
        << "trial " << trial << ": " << diff << " pixels differ";
  }
}

TEST(CommandQueueTest, QueueStaysMinimal) {
  // Overwriting the same area repeatedly must not grow the queue.
  CommandQueue q;
  for (int i = 0; i < 100; ++i) {
    q.Insert(Sfill(Rect{0, 0, 20, 20}, static_cast<Pixel>(i) | 0xFF000000));
  }
  EXPECT_EQ(q.size(), 1u);
}

TEST(CommandQueueTest, OpaqueCoverage) {
  CommandQueue q;
  q.Insert(Sfill(Rect{0, 0, 10, 10}, kWhite));
  q.Insert(TransparentText(Rect{20, 20, 10, 1}, kBlack));
  EXPECT_EQ(q.OpaqueCoverage().Bounds(), (Rect{0, 0, 10, 10}));
}

TEST(CommandQueueTest, TotalBytesSumsEncodedSizes) {
  CommandQueue q;
  q.Insert(Sfill(Rect{0, 0, 10, 10}, kWhite));
  size_t one = q.TotalBytes();
  q.Insert(Raw(Rect{20, 0, 10, 10}, kWhite));
  EXPECT_GT(q.TotalBytes(), one);
}

// --- ExtractForCopy (the offscreen mechanism) -------------------------------------

TEST(ExtractForCopyTest, CommandsTranslatedAndClipped) {
  CommandQueue q;
  q.Insert(Sfill(Rect{0, 0, 20, 20}, kWhite));
  Surface pixmap(20, 20, kBlack);
  pixmap.FillRect(Rect{0, 0, 20, 20}, kWhite);

  std::vector<std::unique_ptr<Command>> out =
      q.ExtractForCopy(Rect{5, 5, 10, 10}, Point{50, 60}, pixmap);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->type(), MsgType::kSfill);
  EXPECT_EQ(out[0]->region().Bounds(), (Rect{50, 60, 10, 10}));
}

TEST(ExtractForCopyTest, UncoveredAreaBecomesResidualRaw) {
  CommandQueue q;  // empty: nothing tracked
  Surface pixmap(20, 20, MakePixel(77, 88, 99));
  std::vector<std::unique_ptr<Command>> out =
      q.ExtractForCopy(Rect{0, 0, 20, 20}, Point{0, 0}, pixmap);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->type(), MsgType::kRaw);
  Surface fb(20, 20, kBlack);
  out[0]->Apply(&fb);
  EXPECT_EQ(fb.At(10, 10), MakePixel(77, 88, 99));
}

TEST(ExtractForCopyTest, MixedCoverage) {
  CommandQueue q;
  q.Insert(Sfill(Rect{0, 0, 10, 20}, kWhite));  // covers the left half
  Surface pixmap(20, 20, MakePixel(5, 5, 5));
  pixmap.FillRect(Rect{0, 0, 10, 20}, kWhite);
  std::vector<std::unique_ptr<Command>> out =
      q.ExtractForCopy(Rect{0, 0, 20, 20}, Point{0, 0}, pixmap);
  // Residual RAW for the right half + the SFILL.
  ASSERT_EQ(out.size(), 2u);
  Surface fb(20, 20, kBlack);
  for (const auto& cmd : out) {
    cmd->Apply(&fb);
  }
  EXPECT_EQ(fb.At(5, 5), kWhite);
  EXPECT_EQ(fb.At(15, 5), MakePixel(5, 5, 5));
}

TEST(ExtractForCopyTest, ReplayEqualsPixmapContent) {
  // Whatever mix of commands is queued, extraction must reproduce the
  // pixmap's actual pixels at the destination.
  Prng rng(23);
  for (int trial = 0; trial < 15; ++trial) {
    Surface pixmap(40, 40, kBlack);
    CommandQueue q;
    for (int i = 0; i < 12; ++i) {
      Rect r{static_cast<int32_t>(rng.NextBelow(30)),
             static_cast<int32_t>(rng.NextBelow(30)),
             static_cast<int32_t>(rng.NextInRange(1, 12)),
             static_cast<int32_t>(rng.NextInRange(1, 12))};
      Pixel color = static_cast<Pixel>(rng.Next()) | 0xFF000000;
      std::unique_ptr<Command> cmd;
      switch (rng.NextBelow(3)) {
        case 0:
          cmd = Raw(r, color);
          break;
        case 1:
          cmd = Sfill(r, color);
          break;
        default:
          cmd = TransparentText(r, color);
          break;
      }
      cmd->Apply(&pixmap);
      q.Insert(std::move(cmd));
    }
    Rect src{static_cast<int32_t>(rng.NextBelow(10)),
             static_cast<int32_t>(rng.NextBelow(10)), 25, 25};
    Point dst{static_cast<int32_t>(rng.NextBelow(10)),
              static_cast<int32_t>(rng.NextBelow(10))};
    std::vector<std::unique_ptr<Command>> out = q.ExtractForCopy(src, dst, pixmap);

    Surface fb(40, 40, MakePixel(1, 2, 3));
    for (const auto& cmd : out) {
      cmd->Apply(&fb);
    }
    // Compare against a direct pixel copy.
    Surface expect(40, 40, MakePixel(1, 2, 3));
    expect.CopyFrom(pixmap, src, dst);
    int64_t diff = 0;
    ASSERT_TRUE(expect.Equals(fb, &diff))
        << "trial " << trial << ": " << diff << " differing pixels";
  }
}

TEST(ExtractForCopyTest, SourceReusableMultipleTimes) {
  // "An offscreen region may be used multiple times as source" — extraction
  // must not consume the queue.
  CommandQueue q;
  q.Insert(Sfill(Rect{0, 0, 10, 10}, kWhite));
  Surface pixmap(10, 10, kWhite);
  auto first = q.ExtractForCopy(Rect{0, 0, 10, 10}, Point{0, 0}, pixmap);
  auto second = q.ExtractForCopy(Rect{0, 0, 10, 10}, Point{20, 0}, pixmap);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
}

TEST(ExtractForCopyTest, ExtractedRawSharesPayloadUntilMutation) {
  // The offscreen queue-copy is the CoW tentpole case: extracting a RAW from
  // the queue clones it by reference (one backing allocation), and only a
  // genuine mutation of either side detaches.
  Rect r{0, 0, 16, 16};
  CommandQueue q;
  q.Insert(Raw(r, MakePixel(10, 20, 30)));
  auto* original = static_cast<RawCommand*>(q.commands()[0].get());
  Surface pixmap(16, 16, MakePixel(10, 20, 30));

  BufferStats::Get().Reset();
  auto out = q.ExtractForCopy(r, Point{0, 0}, pixmap);
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0]->type(), MsgType::kRaw);
  auto* extracted = static_cast<RawCommand*>(out[0].get());
  // Same backing payload, zero pixel bytes copied by the extraction.
  EXPECT_EQ(extracted->payload_content_id(), original->payload_content_id());
  EXPECT_TRUE(extracted->payload_shared());
  EXPECT_EQ(BufferStats::Get().copied_bytes, 0);

  // Mutating the extracted copy detaches it; the queued original is intact.
  uint64_t queued_id = original->payload_content_id();
  ASSERT_TRUE(extracted->TryAppendRows(Rect{0, 16, 16, 1},
                                       std::vector<Pixel>(16, kBlack)));
  EXPECT_NE(extracted->payload_content_id(), queued_id);
  EXPECT_EQ(original->payload_content_id(), queued_id);
  EXPECT_EQ(BufferStats::Get().cow_detaches, 1);
  EXPECT_EQ(original->PixelData()[0], MakePixel(10, 20, 30));
  EXPECT_EQ(original->PixelData().size(), static_cast<size_t>(r.area()));
}

TEST(ExtractForCopyTest, QueueCopyIndependenceUnderCoW) {
  // Full behavioural independence: extract, then overwrite the source queue
  // entry — the previously extracted commands must still replay the old
  // content (value semantics preserved by copy-on-write).
  Rect r{0, 0, 8, 8};
  CommandQueue q;
  q.Insert(Raw(r, kWhite));
  Surface pixmap(8, 8, kWhite);
  auto out = q.ExtractForCopy(r, Point{0, 0}, pixmap);
  ASSERT_EQ(out.size(), 1u);

  // The source pixmap is redrawn: its queue now holds different content.
  q.Insert(Raw(r, kBlack));

  Surface fb(8, 8, MakePixel(1, 1, 1));
  out[0]->Apply(&fb);
  EXPECT_EQ(fb.At(4, 4), kWhite);  // the copy kept the pre-overwrite pixels
}

}  // namespace
}  // namespace thinc
