#include "src/util/buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/core/command.h"
#include "src/util/prng.h"

namespace thinc {
namespace {

std::vector<uint8_t> Iota(size_t n) {
  std::vector<uint8_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// A horizontal gradient with noise in every fourth pixel: compressible, and
// distinct per seed.
std::vector<Pixel> Pixels(size_t n, uint64_t seed) {
  Prng rng(seed);
  std::vector<Pixel> px(n);
  for (size_t i = 0; i < n; ++i) {
    px[i] = i % 4 == 0 ? static_cast<Pixel>(rng.Next()) | 0xFF000000
                       : MakePixel(static_cast<uint8_t>(i), 90, 200);
  }
  return px;
}

// Clears the buffer counters before each test.
class BufferTest : public ::testing::Test {
 protected:
  void SetUp() override { BufferStats::Get().Reset(); }
};

// --- ByteBuffer -----------------------------------------------------------------

TEST_F(BufferTest, AdoptDoesNotCopy) {
  BufferStats::Get().Reset();
  ByteBuffer b = ByteBuffer::Adopt(Iota(100));
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b[7], 7);
  EXPECT_EQ(BufferStats::Get().copies, 0);
}

TEST_F(BufferTest, SliceSharesBackingStore) {
  ByteBuffer b = ByteBuffer::Adopt(Iota(100));
  BufferStats::Get().Reset();
  ByteBuffer s = b.Slice(10, 20);
  EXPECT_EQ(s.size(), 20u);
  EXPECT_EQ(s[0], 10);
  EXPECT_EQ(s.data(), b.data() + 10);  // same allocation
  EXPECT_EQ(BufferStats::Get().copies, 0);
  EXPECT_EQ(BufferStats::Get().allocations, 0);
}

TEST_F(BufferTest, SliceClampsOutOfRange) {
  ByteBuffer b = ByteBuffer::Adopt(Iota(10));
  EXPECT_EQ(b.Slice(4, 100).size(), 6u);
  EXPECT_EQ(b.Slice(50, 5).size(), 0u);
}

TEST_F(BufferTest, ShareOutlivesOriginalHandle) {
  ByteBuffer s;
  {
    ByteBuffer b = ByteBuffer::Adopt(Iota(32));
    s = b.Share();
  }
  EXPECT_EQ(s.size(), 32u);
  EXPECT_EQ(s[31], 31);
}

// --- PixelBuffer ----------------------------------------------------------------

TEST_F(BufferTest, PixelShareIsRefCountBump) {
  PixelBuffer a(std::vector<Pixel>(256, kWhite));
  BufferStats::Get().Reset();
  PixelBuffer b = a.Share();
  EXPECT_EQ(a.data(), b.data());
  EXPECT_TRUE(a.shared());
  EXPECT_EQ(BufferStats::Get().copies, 0);
  EXPECT_EQ(BufferStats::Get().shares, 1);
}

TEST_F(BufferTest, MutateDetachesSharedPayload) {
  PixelBuffer a(std::vector<Pixel>(256, kWhite));
  PixelBuffer b = a.Share();
  BufferStats::Get().Reset();
  b.Mutate()[0] = kBlack;
  // b detached; a still sees the original content.
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a.view()[0], kWhite);
  EXPECT_EQ(b.view()[0], kBlack);
  EXPECT_EQ(BufferStats::Get().cow_detaches, 1);
}

TEST_F(BufferTest, MutateUnsharedDoesNotCopy) {
  PixelBuffer a(std::vector<Pixel>(256, kWhite));
  BufferStats::Get().Reset();
  const Pixel* before = a.data();
  a.Mutate()[0] = kBlack;
  EXPECT_EQ(a.data(), before);
  EXPECT_EQ(BufferStats::Get().copies, 0);
  EXPECT_EQ(BufferStats::Get().cow_detaches, 0);
}

TEST_F(BufferTest, MutateAlwaysChangesContentId) {
  PixelBuffer a(std::vector<Pixel>(16, kWhite));
  uint64_t id0 = a.content_id();
  a.Mutate()[0] = kBlack;
  uint64_t id1 = a.content_id();
  EXPECT_NE(id0, id1);
  PixelBuffer b = a.Share();
  b.Mutate()[1] = kBlack;  // detach: fresh storage, fresh id
  EXPECT_NE(b.content_id(), id1);
  EXPECT_EQ(a.content_id(), id1);  // a untouched
}

TEST_F(BufferTest, AppendGrowsAndTracksLiveBytes) {
  PixelBuffer a(std::vector<Pixel>(8, kWhite));
  int64_t live0 = BufferStats::Get().live_payload_bytes;
  std::vector<Pixel> extra(8, kBlack);
  a.Append(extra);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a.view()[8], kBlack);
  EXPECT_EQ(BufferStats::Get().live_payload_bytes,
            live0 + static_cast<int64_t>(8 * sizeof(Pixel)));
}

TEST_F(BufferTest, PayloadEncodeCacheRoundTrip) {
  PixelBuffer a(std::vector<Pixel>(16, kWhite));
  EXPECT_EQ(a.LookupEncode("k"), nullptr);
  a.StoreEncode("k", ByteBuffer::Adopt(Iota(5)), 42.0);
  auto hit = a.LookupEncode("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->frame.size(), 5u);
  EXPECT_EQ(hit->cpu_cost, 42.0);
  // The cache lives on the payload: a share sees the same entries.
  PixelBuffer b = a.Share();
  EXPECT_NE(b.LookupEncode("k"), nullptr);
}

// --- FrameArena -----------------------------------------------------------------

TEST_F(BufferTest, ArenaRecyclesReleasedSlab) {
  FrameArena arena;
  internal::ByteStorage* first;
  {
    auto slab = arena.Acquire();
    first = slab.get();
    slab->bytes = Iota(100);
  }  // slab released back to the pool
  BufferStats::Get().Reset();
  auto again = arena.Acquire();
  EXPECT_EQ(again.get(), first);
  EXPECT_TRUE(again->bytes.empty());  // recycled slabs come back clean
  EXPECT_EQ(BufferStats::Get().arena_reuses, 1);
  EXPECT_EQ(BufferStats::Get().allocations, 0);
}

TEST_F(BufferTest, ArenaDoesNotRecycleLiveSlab) {
  FrameArena arena;
  auto held = arena.Acquire();
  auto other = arena.Acquire();
  EXPECT_NE(held.get(), other.get());
}

// --- SegmentQueue ---------------------------------------------------------------

TEST_F(BufferTest, PopWithinOneSegmentIsZeroCopy) {
  SegmentQueue q;
  ByteBuffer b = ByteBuffer::Adopt(Iota(100));
  q.Append(b.Share());
  BufferStats::Get().Reset();
  ByteBuffer head = q.PopUpTo(40);
  EXPECT_EQ(head.size(), 40u);
  EXPECT_EQ(head.data(), b.data());  // a slice, not a copy
  EXPECT_EQ(q.size(), 60u);
  EXPECT_EQ(BufferStats::Get().copies, 0);
  ByteBuffer rest = q.PopUpTo(100);
  EXPECT_EQ(rest.size(), 60u);
  EXPECT_EQ(rest[0], 40);
  EXPECT_TRUE(q.empty());
}

TEST_F(BufferTest, PopSpanningSegmentsGathers) {
  SegmentQueue q;
  q.Append(ByteBuffer::Adopt(Iota(10)));
  q.Append(ByteBuffer::Adopt(Iota(10)));
  BufferStats::Get().Reset();
  ByteBuffer all = q.PopUpTo(15);
  EXPECT_EQ(all.size(), 15u);
  EXPECT_EQ(all[9], 9);
  EXPECT_EQ(all[10], 0);  // second segment starts over
  EXPECT_EQ(BufferStats::Get().copies, 1);
  EXPECT_EQ(BufferStats::Get().copied_bytes, 15);
  EXPECT_EQ(q.size(), 5u);
}

TEST_F(BufferTest, PrependRestoresConsumptionOrder) {
  SegmentQueue q;
  q.Append(ByteBuffer::Adopt(Iota(10)));
  ByteBuffer head = q.PopUpTo(6);
  q.Prepend(head.Slice(2, 4));  // pretend only 2 of 6 bytes were accepted
  EXPECT_EQ(q.size(), 8u);
  ByteBuffer next = q.PopUpTo(8);
  EXPECT_EQ(next[0], 2);
  EXPECT_EQ(next[4], 6);
  EXPECT_EQ(next[7], 9);
}

TEST_F(BufferTest, PopUpToClampsToQueueSize) {
  SegmentQueue q;
  q.Append(ByteBuffer::Adopt(Iota(5)));
  ByteBuffer all = q.PopUpTo(500);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.PopUpTo(10).size(), 0u);
}

TEST_F(BufferTest, AppendCopyIsIndependentOfCaller) {
  std::vector<uint8_t> scratch = Iota(8);
  SegmentQueue q;
  q.AppendCopy(scratch);
  scratch.assign(8, 0xFF);  // caller reuses its buffer
  ByteBuffer out = q.PopUpTo(8);
  EXPECT_EQ(out[3], 3);
}

TEST_F(BufferTest, ClearDropsEverything) {
  SegmentQueue q;
  q.Append(ByteBuffer::Adopt(Iota(10)));
  q.Append(ByteBuffer::Adopt(Iota(10)));
  q.Clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// --- ByteBufferCache ------------------------------------------------------------

TEST_F(BufferTest, CacheStoresAndEvictsFifo) {
  ByteBufferCache cache(2);
  cache.Store("a", ByteBuffer::Adopt(Iota(1)));
  cache.Store("b", ByteBuffer::Adopt(Iota(2)));
  EXPECT_EQ(cache.Lookup("a").size(), 1u);
  cache.Store("c", ByteBuffer::Adopt(Iota(3)));  // evicts "a"
  EXPECT_TRUE(cache.Lookup("a").empty());
  EXPECT_EQ(cache.Lookup("b").size(), 2u);
  EXPECT_EQ(cache.Lookup("c").size(), 3u);
}

TEST_F(BufferTest, CacheFirstWriterWins) {
  ByteBufferCache cache;
  cache.Store("k", ByteBuffer::Adopt(Iota(4)));
  cache.Store("k", ByteBuffer::Adopt(Iota(9)));
  EXPECT_EQ(cache.Lookup("k").size(), 4u);
  EXPECT_EQ(cache.size(), 1u);
}

// --- PayloadPool ----------------------------------------------------------------

TEST_F(BufferTest, PoolAdoptsLivePayloadWithEqualContent) {
  PayloadPool pool;
  PixelBuffer a(Pixels(300, 1));
  PixelBuffer b(Pixels(300, 1));  // separately allocated, same pixels
  EXPECT_FALSE(pool.Intern(&a));   // first sight registers
  ASSERT_NE(a.data(), b.data());
  EXPECT_TRUE(pool.Intern(&b));
  EXPECT_EQ(b.data(), a.data());
  EXPECT_EQ(b.content_id(), a.content_id());
  EXPECT_EQ(BufferStats::Get().payload_adoptions, 1);
  // Interning a pooled payload again neither adopts nor re-registers it.
  EXPECT_FALSE(pool.Intern(&a));
  EXPECT_EQ(pool.entry_count(), 1u);
}

TEST_F(BufferTest, PoolKeepsEqualSizedPayloadWithDifferentBytes) {
  PayloadPool pool;
  PixelBuffer a(Pixels(300, 1));
  std::vector<Pixel> px = Pixels(300, 1);
  px.back() ^= 1;
  PixelBuffer b(std::move(px));
  pool.Intern(&a);
  EXPECT_FALSE(pool.Intern(&b));
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(BufferStats::Get().payload_adoptions, 0);
  EXPECT_EQ(pool.entry_count(), 2u);
}

TEST_F(BufferTest, PoolNeverAdoptsPayloadMutatedInPlace) {
  PayloadPool pool;
  const std::vector<Pixel> original = Pixels(300, 2);
  PixelBuffer a{std::vector<Pixel>(original)};
  pool.Intern(&a);
  const Pixel* storage = a.data();
  a.Mutate()[0] ^= 0xFF;  // sole owner: rewritten under the same storage
  ASSERT_EQ(a.data(), storage);
  PixelBuffer b{std::vector<Pixel>(original)};
  EXPECT_FALSE(pool.Intern(&b));
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(b.view()[0], original[0]);
  // Even a rewrite that leaves the bytes as they were retires the entry:
  // adoption needs the content id the payload was registered under.
  PixelBuffer c(Pixels(300, 5));
  pool.Intern(&c);
  c.Mutate();
  PixelBuffer d(Pixels(300, 5));
  EXPECT_FALSE(pool.Intern(&d));
  EXPECT_NE(d.data(), c.data());
  EXPECT_EQ(BufferStats::Get().payload_adoptions, 0);
}

TEST_F(BufferTest, PoolEntriesExpireWithTheirPayloads) {
  const int64_t live0 = BufferStats::Get().live_payload_bytes;
  PayloadPool pool;
  {
    PixelBuffer a(Pixels(1000, 3));
    pool.Intern(&a);
    EXPECT_EQ(BufferStats::Get().live_payload_bytes,
              live0 + static_cast<int64_t>(1000 * sizeof(Pixel)));
  }
  // The pool's entry kept nothing alive, and is never adopted.
  EXPECT_EQ(BufferStats::Get().live_payload_bytes, live0);
  PixelBuffer b(Pixels(1000, 3));
  EXPECT_FALSE(pool.Intern(&b));
  // Dead entries are swept as registrations grow the table.
  for (uint64_t seed = 100; seed < 164; ++seed) {
    PixelBuffer transient(Pixels(16, seed));
    pool.Intern(&transient);
  }
  EXPECT_LT(pool.entry_count(), 8u);
}

TEST_F(BufferTest, AdoptedCommandEncodeIsPayloadCacheHit) {
  const Rect r{0, 0, 64, 48};
  PayloadPool pool;
  RawCommand first(r, Pixels(static_cast<size_t>(r.area()), 4));
  first.InternPayload(&pool);
  const ByteBuffer frame = first.EncodeFrame();
  const double cost = first.EncodeCpuCost();
  RawCommand second(r, Pixels(static_cast<size_t>(r.area()), 4));
  ASSERT_TRUE(second.InternPayload(&pool));
  const BufferStats before = BufferStats::Get();
  const ByteBuffer again = second.EncodeFrame();
  EXPECT_EQ(BufferStats::Get().raw_encodes, before.raw_encodes);
  EXPECT_EQ(BufferStats::Get().payload_encode_hits, before.payload_encode_hits + 1);
  EXPECT_TRUE(std::equal(again.begin(), again.end(), frame.begin(), frame.end()));
  EXPECT_EQ(second.EncodeCpuCost(), cost);
}

// --- Stats ----------------------------------------------------------------------

TEST_F(BufferTest, LiveBytesFallWhenBuffersDie) {
  int64_t live0 = BufferStats::Get().live_payload_bytes;
  {
    ByteBuffer b = ByteBuffer::Adopt(Iota(1000));
    EXPECT_EQ(BufferStats::Get().live_payload_bytes, live0 + 1000);
    EXPECT_GE(BufferStats::Get().peak_payload_bytes, live0 + 1000);
  }
  EXPECT_EQ(BufferStats::Get().live_payload_bytes, live0);
}

TEST_F(BufferTest, ResetPreservesLiveAsNewBaseline) {
  ByteBuffer keep = ByteBuffer::Adopt(Iota(100));
  BufferStats::Get().Reset();
  EXPECT_EQ(BufferStats::Get().allocations, 0);
  EXPECT_EQ(BufferStats::Get().live_payload_bytes,
            BufferStats::Get().peak_payload_bytes);
  EXPECT_GE(BufferStats::Get().live_payload_bytes, 100);
}

}  // namespace
}  // namespace thinc
