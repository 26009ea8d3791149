#include "src/codec/lzss.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>

namespace thinc {
namespace {

constexpr size_t kWindow = 4096;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 18;
constexpr size_t kHashSize = 1 << 15;
constexpr int kMaxProbes = 32;
// Capacity of the prev[] chain ring. A link is followed only from a
// candidate at most kWindow bytes behind the cursor, and only a position a
// whole ring length later reuses that candidate's slot, so a ring of more
// than kWindow entries is never read stale. Shorter inputs get a ring of
// their own (power-of-two) size, which no position ever wraps.
constexpr size_t kMaxRing = 2 * kWindow;
// The longest period whose runs the encoder emits a whole run at a time.
constexpr size_t kMaxBulkPeriod = 4;

uint32_t Hash3(const uint8_t* p) {
  uint32_t v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> 17;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Length of the common prefix of `a` and `b`, at most `max_len`; compares
// eight bytes at a time. Inlined into the probe loop even though the run
// step calls it too: a call per probe costs the loop a fifth.
[[gnu::always_inline]] inline size_t CommonPrefix(const uint8_t* a, const uint8_t* b,
                                                  size_t max_len) {
  size_t len = 0;
  for (; len + 8 <= max_len; len += 8) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                  : std::countl_zero(diff);
      return len + static_cast<size_t>(bits) / 8;
    }
  }
  while (len < max_len && a[len] == b[len]) {
    ++len;
  }
  return len;
}

// A match token's two bytes: the low 8 bits of distance-1, then the high 4
// bits of distance-1 under length-3 in the top nibble.
size_t TokenDistance(const uint8_t* t) {
  return static_cast<size_t>(t[0] | ((t[1] & 0x0F) << 8)) + 1;
}
size_t TokenLength(const uint8_t* t) { return static_cast<size_t>(t[1] >> 4) + kMinMatch; }

// Where the encoder's output stands: `o` bytes written, the open flag byte
// at `flag_pos` holding `flag_bit` tokens.
struct TokenCursor {
  size_t o;
  size_t flag_pos;
  int flag_bit;
};

// The encoder just emitted (period, kMaxMatch) at `i - kMaxMatch` for a
// period of at most kMaxBulkPeriod, and inserted every position before `i`
// into the chains. If the run of that period goes on for whole tokens,
// emits them all, leaves the chains as inserting each of their positions
// would, and returns where the run's tokens end; otherwise returns `i` and
// changes nothing. DESIGN.md §17 gives the argument that these are the
// tokens the probe loop would emit. Kept out of line: the token loop it
// leaves is faster for not carrying it.
[[gnu::noinline]] size_t EmitPeriodicRun(const uint8_t* src, size_t n, size_t i,
                                         size_t period, int32_t* head, int32_t* prev,
                                         size_t ring, uint8_t* out, TokenCursor* cursor) {
  // The run's `period` phases must hash apart, so that at each token start
  // the chain head is the same phase one period back.
  uint32_t phase_hash[kMaxBulkPeriod] = {};
  for (size_t k = 0; k < period; ++k) {
    phase_hash[k] = Hash3(src + i - kMaxMatch + 1 + k);
    for (size_t j = 0; j < k; ++j) {
      if (phase_hash[j] == phase_hash[k]) {
        return i;
      }
    }
  }
  const size_t run = CommonPrefix(src + i - period, src + i, n - i);
  const size_t tokens = run / kMaxMatch;
  if (tokens == 0) {
    return i;
  }
  const size_t end = i + tokens * kMaxMatch;
  // Positions before `periodic` have their whole hash window in the run.
  // Inserting one links it to its phase one period back, and the last of
  // each phase heads that phase's chain. Only the last `ring` links are not
  // overwritten by later ones in the run.
  const size_t periodic = std::min(end, i + run - (kMinMatch - 1));
  const size_t ring_mask = ring - 1;
  for (size_t q = periodic - std::min(periodic - i, ring); q < periodic; ++q) {
    prev[q & ring_mask] = static_cast<int32_t>(q - period);
  }
  for (size_t q = periodic - period; q < periodic; ++q) {
    head[Hash3(src + q)] = static_cast<int32_t>(q);
  }
  // The at most two positions whose windows leave the run go in as usual.
  for (size_t q = periodic; q < end && q + kMinMatch <= n; ++q) {
    const uint32_t h = Hash3(src + q);
    prev[q & ring_mask] = head[h];
    head[h] = static_cast<int32_t>(q);
  }
  const uint8_t dist_low = static_cast<uint8_t>(period - 1);
  const uint8_t len_high = static_cast<uint8_t>((kMaxMatch - kMinMatch) << 4);
  TokenCursor c = *cursor;
  for (size_t t = 0; t < tokens; ++t) {
    if (c.flag_bit == 8) {
      c.flag_pos = c.o;
      out[c.o++] = 0;
      c.flag_bit = 0;
    }
    out[c.flag_pos] |= static_cast<uint8_t>(1u << c.flag_bit);
    out[c.o++] = dist_low;
    out[c.o++] = len_high;
    ++c.flag_bit;
  }
  *cursor = c;
  return end;
}

void Store64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

// Bytes a match copy may write past its end: it stores whole words.
constexpr size_t kCopySlack = sizeof(uint64_t);

// The periodic copy below takes a period's bytes from the top of a word
// loaded before it and repeats them upward from the low byte.
static_assert(std::endian::native == std::endian::little);

// For a period p < 8: `repeat` times a word holding the period's bytes in
// its low p bytes fills all eight with them, and `step` is the whole
// number of periods that word advances by.
struct PeriodWord {
  uint64_t repeat = 0;
  size_t step = 0;
};
constexpr std::array<PeriodWord, 8> kPeriodWords = [] {
  std::array<PeriodWord, 8> w{};
  for (size_t p = 1; p < 8; ++p) {
    for (size_t shift = 0; shift < 64; shift += 8 * p) {
      w[p].repeat |= uint64_t{1} << shift;
    }
    w[p].step = 8 / p * p;
  }
  return w;
}();

// Writes the `len` bytes of a match `dist` back from `o`, where `o - begin`
// bytes are already decoded, and up to kCopySlack - 1 bytes past them.
void CopyMatch(const uint8_t* begin, uint8_t* o, size_t dist, size_t len) {
  const uint8_t* from = o - dist;
  if (dist >= sizeof(uint64_t)) {
    // Each word reads only bytes written before it, even when the match
    // overlaps its own output.
    for (size_t k = 0; k < len; k += sizeof(uint64_t)) {
      Store64(o + k, Load64(from + k));
    }
  } else if (o - begin >= static_cast<ptrdiff_t>(sizeof(uint64_t))) {
    // Periodic: the period's bytes are the last `dist` before `o`. Storing
    // their repeat every whole number of periods lays the pattern down.
    const PeriodWord& w = kPeriodWords[dist];
    const uint64_t pattern = (Load64(o - sizeof(uint64_t)) >> (64 - 8 * dist)) * w.repeat;
    for (size_t k = 0; k < len; k += w.step) {
      Store64(o + k, pattern);
    }
  } else {
    for (size_t k = 0; k < len; ++k) {
      o[k] = from[k];
    }
  }
}

}  // namespace

std::vector<uint8_t> LzssEncode(std::span<const uint8_t> in) {
  const size_t n = in.size();
  const uint8_t* src = in.data();
  // head[h] = most recent position with hash h; prev[] chains earlier ones.
  std::vector<int32_t> head(kHashSize, -1);
  const size_t ring = std::min(kMaxRing, std::bit_ceil(std::max<size_t>(n, 1)));
  const size_t ring_mask = ring - 1;
  std::unique_ptr<int32_t[]> prev = std::make_unique_for_overwrite<int32_t[]>(ring);
  // Worst case is all literals: n bytes plus one flag byte per 8 tokens.
  std::unique_ptr<uint8_t[]> out = std::make_unique_for_overwrite<uint8_t[]>(n + n / 8 + 1);
  size_t o = 0;
  size_t flag_pos = 0;
  int flag_bit = 8;  // force new flag byte on first token

  size_t i = 0;
  while (i < n) {
    if (flag_bit == 8) {
      flag_pos = o;
      out[o++] = 0;
      flag_bit = 0;
    }
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const uint32_t h = Hash3(src + i);
      const size_t max_len = std::min(kMaxMatch, n - i);
      int32_t cand = head[h];
      for (int probe = 0;
           probe < kMaxProbes && cand >= 0 && i - static_cast<size_t>(cand) <= kWindow;
           ++probe) {
        const uint8_t* c = src + cand;
        // Only a strictly longer match replaces the best, and a longer match
        // must agree at byte best_len: skip candidates that do not.
        if (best_len < max_len && c[best_len] == src[i + best_len]) {
          const size_t len = CommonPrefix(c, src + i, max_len);
          if (len > best_len) {
            best_len = len;
            best_dist = i - static_cast<size_t>(cand);
            if (len == kMaxMatch) {
              break;
            }
          }
        }
        cand = prev[static_cast<size_t>(cand) & ring_mask];
      }
      // Insert current position into the chain.
      prev[i & ring_mask] = head[h];
      head[h] = static_cast<int32_t>(i);
    }

    if (best_len >= kMinMatch) {
      out[flag_pos] |= static_cast<uint8_t>(1u << flag_bit);
      const size_t dist = best_dist - 1;  // 0..4095
      out[o++] = static_cast<uint8_t>(dist & 0xFF);
      out[o++] = static_cast<uint8_t>(((dist >> 8) & 0x0F) | ((best_len - kMinMatch) << 4));
      // Insert skipped positions into the hash chains for better matches.
      const size_t end = std::min(i + best_len, n - kMinMatch + 1);
      for (size_t p = i + 1; p < end; ++p) {
        const uint32_t hp = Hash3(src + p);
        prev[p & ring_mask] = head[hp];
        head[hp] = static_cast<int32_t>(p);
      }
      i += best_len;
    } else {
      out[o++] = src[i++];
    }
    ++flag_bit;
    if (best_len == kMaxMatch && best_dist <= kMaxBulkPeriod) {
      TokenCursor cursor{o, flag_pos, flag_bit};
      i = EmitPeriodicRun(src, n, i, best_dist, head.data(), prev.get(), ring, out.get(),
                          &cursor);
      o = cursor.o;
      flag_pos = cursor.flag_pos;
      flag_bit = cursor.flag_bit;
    }
  }
  return std::vector<uint8_t>(out.get(), out.get() + o);
}

bool LzssDecode(std::span<const uint8_t> in, std::vector<uint8_t>* out) {
  const size_t n = in.size();
  const uint8_t* src = in.data();
  // One pass into transient scratch sized for the most `in` can decode to
  // (each two-byte token yields at most kMaxMatch bytes), plus a copy's
  // slack; `out` then gets exactly the decoded bytes. A malformed stream
  // (a truncated match token, or a distance before the start of the output)
  // stops at that token, keeping what came before it.
  std::unique_ptr<uint8_t[]> scratch =
      std::make_unique_for_overwrite<uint8_t[]>(n / 2 * kMaxMatch + kCopySlack);
  uint8_t* const begin = scratch.get();
  uint8_t* o = begin;
  bool ok = true;
  for (size_t i = 0; ok && i < n;) {
    const uint8_t flags = src[i++];
    for (int bit = 0; bit < 8 && i < n; ++bit) {
      if ((flags & (1u << bit)) == 0) {
        *o++ = src[i++];
        continue;
      }
      if (i + 2 > n || TokenDistance(src + i) > static_cast<size_t>(o - begin)) {
        ok = false;
        break;
      }
      const size_t len = TokenLength(src + i);
      CopyMatch(begin, o, TokenDistance(src + i), len);
      o += len;
      i += 2;
    }
  }
  out->assign(begin, o);
  return ok;
}

}  // namespace thinc
