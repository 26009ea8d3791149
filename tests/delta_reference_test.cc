// Unit tests for the adaptive codec's per-connection reference
// (src/core/delta_reference.h, DESIGN.md §15): how committed commands move
// the stale region, when the reference arms and drops, and when a RAW
// update leaves as a delta.

#include "src/core/delta_reference.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/util/event_loop.h"

namespace thinc {
namespace {

constexpr int32_t kW = 128, kH = 64;

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Get().GetCounter(name)->value();
}

// Photo-like texture: the intra codecs cannot collapse it, so a repaint of
// unchanged texture is where a delta wins.
Surface TexturedScreen() {
  Surface s(kW, kH);
  for (int32_t y = 0; y < kH; ++y) {
    for (int32_t x = 0; x < kW; ++x) {
      uint32_t hash = (static_cast<uint32_t>(x) * 73856093u ^
                       static_cast<uint32_t>(y) * 19349663u) *
                      2654435761u;
      s.Put(x, y,
            MakePixel(static_cast<uint8_t>(hash), static_cast<uint8_t>(hash >> 8),
                      static_cast<uint8_t>(hash >> 16)));
    }
  }
  return s;
}

// A RAW repaint of `rect` carrying exactly what `screen` shows there.
std::unique_ptr<RawCommand> RepaintOf(const Surface& screen, const Rect& rect) {
  return std::make_unique<RawCommand>(rect, screen.GetPixels(rect));
}

std::unique_ptr<Command> Fill(const Rect& rect) {
  return std::make_unique<SfillCommand>(Region(rect), MakePixel(10, 200, 10));
}

class DeltaReferenceTest : public ::testing::Test {
 protected:
  // Runs MaybeDelta on `cmd` and returns what came back.
  std::unique_ptr<Command> Delta(DeltaReference& ref, std::unique_ptr<Command> cmd,
                                 int level = 2, std::vector<Rect> overlays = {}) {
    return ref.MaybeDelta(std::move(cmd), level, overlays, &cpu_, &payloads_);
  }

  const Surface screen_ = TexturedScreen();
  const Rect window_{16, 0, 64, 64};  // 4096 px: above the delta floor
  EventLoop loop_;
  CpuAccount cpu_{&loop_, 1.0};
  PayloadPool payloads_;
};

// --- Stale-region rules --------------------------------------------------------

TEST_F(DeltaReferenceTest, OverwriteScrubsStaleRegion) {
  DeltaReference ref;
  ref.Renegotiated(screen_, Region(Rect{0, 0, 64, 64}), /*scaled=*/false);
  ref.Apply(*Fill(Rect{0, 0, 32, 64}), screen_);
  EXPECT_EQ(ref.stale(), Region(Rect{32, 0, 32, 64}));
}

TEST_F(DeltaReferenceTest, CopyFromStaleSourceMakesDestinationStale) {
  DeltaReference ref;
  ref.Renegotiated(screen_, Region(Rect{0, 0, 16, 16}), /*scaled=*/false);
  // Destination (64,0) reads its pixels from (0,0): stale in, stale out.
  ref.Apply(CopyCommand(Region(Rect{64, 0, 16, 16}), Point{-64, 0}), screen_);
  EXPECT_EQ(ref.stale(), Region(Rect{0, 0, 16, 16}).Union(Rect{64, 0, 16, 16}));
  // A copy from clean pixels scrubs its destination like any overwrite.
  ref.Apply(CopyCommand(Region(Rect{64, 0, 16, 16}), Point{0, 32}), screen_);
  EXPECT_EQ(ref.stale(), Region(Rect{0, 0, 16, 16}));
}

TEST_F(DeltaReferenceTest, TransparentBitmapOverStalePixelsMakesThemStale) {
  DeltaReference ref;
  ref.Renegotiated(screen_, Region(Rect{0, 0, 16, 16}), /*scaled=*/false);
  Bitmap glyph(32, 8);
  glyph.Set(1, 1, true);
  const Region text(Rect{8, 4, 32, 8});
  // Transparent text blends over whatever the client holds beneath it.
  ref.Apply(BitmapCommand(text, glyph, Point{8, 4}, kWhite, kBlack,
                          /*transparent_bg=*/true),
            screen_);
  EXPECT_EQ(ref.stale(), Region(Rect{0, 0, 16, 16}).Union(text));
  // Opaque text paints every pixel of its region.
  ref.Apply(BitmapCommand(text, glyph, Point{8, 4}, kWhite, kBlack,
                          /*transparent_bg=*/false),
            screen_);
  EXPECT_EQ(ref.stale(), Region(Rect{0, 0, 16, 16}).Subtract(text));
}

// --- Arming and invalidation ---------------------------------------------------

TEST_F(DeltaReferenceTest, FirstApplyArmsAgainstBlackUntilDropped) {
  DeltaReference ref;
  EXPECT_FALSE(ref.armed());
  ref.Apply(*Fill(Rect{0, 0, 8, 8}), screen_);
  ASSERT_TRUE(ref.armed());
  EXPECT_TRUE(ref.stale().empty());
  // Armed against black: an all-black repaint matches it and ships as a
  // near-empty delta.
  auto black = std::make_unique<RawCommand>(
      window_, std::vector<Pixel>(static_cast<size_t>(window_.area()), kBlack));
  EXPECT_EQ(Delta(ref, std::move(black))->type(), MsgType::kRawDelta);

  ref.Drop();
  EXPECT_FALSE(ref.armed());
  ref.Apply(*Fill(Rect{0, 0, 8, 8}), screen_);
  EXPECT_FALSE(ref.armed()) << "a dropped transport forfeits the black arm";
}

TEST_F(DeltaReferenceTest, DropCountsAnInvalidationOnlyWhenArmed) {
  DeltaReference ref;
  const int64_t before = CounterValue("codec.reference_invalidations");
  ref.Drop();
  EXPECT_EQ(CounterValue("codec.reference_invalidations"), before);
  ref.Renegotiated(screen_, Region(), /*scaled=*/false);
  ref.Drop();
  EXPECT_EQ(CounterValue("codec.reference_invalidations"), before + 1);
}

TEST_F(DeltaReferenceTest, ScaledRenegotiationDropsAndForfeitsLazyArm) {
  DeltaReference ref;
  ref.Apply(*Fill(Rect{0, 0, 8, 8}), screen_);
  ASSERT_TRUE(ref.armed());
  const int64_t before = CounterValue("codec.reference_invalidations");
  ref.Renegotiated(screen_, Region(), /*scaled=*/true);
  EXPECT_FALSE(ref.armed());
  EXPECT_EQ(CounterValue("codec.reference_invalidations"), before + 1);
  ref.Apply(*Fill(Rect{0, 0, 8, 8}), screen_);
  EXPECT_FALSE(ref.armed()) << "a scaled viewport never holds an armed reference";
}

TEST_F(DeltaReferenceTest, FidelityChangeCountsOneInvalidationWhenArmed) {
  DeltaReference ref;
  const int64_t before = CounterValue("codec.reference_invalidations");
  ref.FidelityChanged();
  EXPECT_EQ(CounterValue("codec.reference_invalidations"), before);
  EXPECT_FALSE(ref.armed());

  ref.Renegotiated(screen_, Region(), /*scaled=*/false);
  ref.FidelityChanged();
  EXPECT_EQ(CounterValue("codec.reference_invalidations"), before + 1);
  EXPECT_TRUE(ref.armed()) << "a fidelity change keeps the reference";
  EXPECT_EQ(ref.stale(), Region(screen_.bounds()));
}

// --- MaybeDelta ----------------------------------------------------------------

TEST_F(DeltaReferenceTest, NotArmedPassesTheCommandThrough) {
  DeltaReference ref;
  std::unique_ptr<RawCommand> raw = RepaintOf(screen_, window_);
  const Command* input = raw.get();
  EXPECT_EQ(Delta(ref, std::move(raw)).get(), input) << "never armed";

  ref.Renegotiated(screen_, Region(), /*scaled=*/false);
  ref.Drop();
  raw = RepaintOf(screen_, window_);
  input = raw.get();
  EXPECT_EQ(Delta(ref, std::move(raw)).get(), input) << "dropped";
}

TEST_F(DeltaReferenceTest, ClippedRawPassesThrough) {
  DeltaReference ref;
  ref.Renegotiated(screen_, Region(), /*scaled=*/false);
  std::unique_ptr<RawCommand> raw = RepaintOf(screen_, window_);
  ASSERT_TRUE(raw->RestrictTo(Region(Rect{16, 0, 32, 64})));
  const Command* input = raw.get();
  EXPECT_EQ(Delta(ref, std::move(raw)).get(), input);
}

TEST_F(DeltaReferenceTest, StaleOrOverlayRectPassesThrough) {
  DeltaReference ref;
  ref.Renegotiated(screen_, Region(Rect{70, 60, 4, 4}), /*scaled=*/false);
  std::unique_ptr<RawCommand> raw = RepaintOf(screen_, window_);
  const Command* input = raw.get();
  EXPECT_EQ(Delta(ref, std::move(raw)).get(), input) << "stale pixels under it";

  ref.Renegotiated(screen_, Region(), /*scaled=*/false);
  raw = RepaintOf(screen_, window_);
  input = raw.get();
  EXPECT_EQ(Delta(ref, std::move(raw), 2, {Rect{0, 0, 20, 4}}).get(), input)
      << "live video under it";
}

TEST_F(DeltaReferenceTest, ShipsOnlyStrictlySmallerDeltas) {
  DeltaReference ref;
  ref.Renegotiated(screen_, Region(), /*scaled=*/false);
  const int64_t hits = CounterValue("codec.delta_hits");
  const int64_t fallbacks = CounterValue("codec.delta_fallbacks");

  // Unchanged texture: all SKIP runs, far smaller than the intra frame.
  std::unique_ptr<RawCommand> same = RepaintOf(screen_, window_);
  const size_t intra_bytes = same->EncodedSize();
  std::unique_ptr<Command> out = Delta(ref, std::move(same));
  ASSERT_EQ(out->type(), MsgType::kRawDelta);
  EXPECT_LT(out->EncodedSize(), intra_bytes);
  EXPECT_EQ(out->region(), Region(window_));
  EXPECT_EQ(CounterValue("codec.delta_hits"), hits + 1);
  EXPECT_EQ(CounterValue("codec.delta_fallbacks"), fallbacks);

  // A solid repaint over the texture: the intra codec collapses it, the
  // delta must spell out every block, so the intra frame stays.
  auto solid = std::make_unique<RawCommand>(
      window_,
      std::vector<Pixel>(static_cast<size_t>(window_.area()), MakePixel(9, 9, 9)));
  const Command* input = solid.get();
  EXPECT_EQ(Delta(ref, std::move(solid)).get(), input);
  EXPECT_EQ(CounterValue("codec.delta_hits"), hits + 1);
  EXPECT_EQ(CounterValue("codec.delta_fallbacks"), fallbacks + 1);
}

TEST_F(DeltaReferenceTest, LadderLevelTwoForcesDeltaWithoutEstimate) {
  DeltaReference ref;  // no transport observed: the estimate is unknown
  ref.Renegotiated(screen_, Region(), /*scaled=*/false);
  std::unique_ptr<RawCommand> raw = RepaintOf(screen_, window_);
  const Command* input = raw.get();
  EXPECT_EQ(Delta(ref, std::move(raw), /*level=*/1).get(), input);
  EXPECT_EQ(Delta(ref, RepaintOf(screen_, window_), /*level=*/2)->type(),
            MsgType::kRawDelta);
}

}  // namespace
}  // namespace thinc
