#include "src/codec/lzss.h"

#include <algorithm>
#include <bit>
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
// eight bytes at a time.
size_t CommonPrefix(const uint8_t* a, const uint8_t* b, size_t max_len) {
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
  }
  return std::vector<uint8_t>(out.get(), out.get() + o);
}

bool LzssDecode(std::span<const uint8_t> in, std::vector<uint8_t>* out) {
  const size_t n = in.size();
  const uint8_t* src = in.data();
  // First pass: walk the tokens for the decoded size and for the point where
  // a malformed stream stops, so the output is sized exactly, once.
  size_t total = 0;
  bool ok = true;
  for (size_t i = 0; ok && i < n;) {
    const uint8_t flags = src[i++];
    for (int bit = 0; bit < 8 && i < n; ++bit) {
      if ((flags & (1u << bit)) == 0) {
        ++total;
        ++i;
      } else if (i + 2 > n || TokenDistance(src + i) > total) {
        ok = false;
        break;
      } else {
        total += TokenLength(src + i);
        i += 2;
      }
    }
  }
  // Second pass: decode exactly the tokens the first pass accepted.
  out->clear();
  out->resize(total);
  if (total == 0) {
    return ok;
  }
  uint8_t* o = out->data();
  uint8_t* const end = o + total;
  size_t i = 0;
  while (o < end) {
    const uint8_t flags = src[i++];
    for (int bit = 0; bit < 8 && o < end; ++bit) {
      if ((flags & (1u << bit)) == 0) {
        *o++ = src[i++];
        continue;
      }
      const size_t dist = TokenDistance(src + i);
      const size_t len = TokenLength(src + i);
      i += 2;
      const uint8_t* from = o - dist;
      if (dist >= len) {
        std::memcpy(o, from, len);
      } else {
        // Overlapping match: later bytes repeat ones this match just wrote.
        for (size_t k = 0; k < len; ++k) {
          o[k] = from[k];
        }
      }
      o += len;
    }
  }
  return ok;
}

}  // namespace thinc
