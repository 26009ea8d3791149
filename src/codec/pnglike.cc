#include "src/codec/pnglike.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/codec/lzss.h"
#include "src/codec/rle.h"

namespace thinc {
namespace {

constexpr int kBpp = 4;  // bytes per pixel (ARGB)

enum Filter : uint8_t {
  kNone = 0,
  kSub = 1,
  kUp = 2,
  kAverage = 3,
  kPaeth = 4,
};

uint8_t PaethPredictor(uint8_t a, uint8_t b, uint8_t c) {
  int p = static_cast<int>(a) + b - c;
  int pa = std::abs(p - a);
  int pb = std::abs(p - b);
  int pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) {
    return a;
  }
  if (pb <= pc) {
    return b;
  }
  return c;
}

// Filter F's prediction from the left (a), up (b) and upper-left (c) bytes.
template <Filter F>
uint8_t Predict(uint8_t a, uint8_t b, uint8_t c) {
  if constexpr (F == kNone) {
    return 0;
  } else if constexpr (F == kSub) {
    return a;
  } else if constexpr (F == kUp) {
    return b;
  } else if constexpr (F == kAverage) {
    return static_cast<uint8_t>((a + b) / 2);
  } else {
    return PaethPredictor(a, b, c);
  }
}

// |residual| with the residual read as a signed byte, as the PNG heuristic
// scores filters.
uint32_t AbsResidual(uint8_t r) {
  return static_cast<uint32_t>(std::abs(static_cast<int>(static_cast<int8_t>(r))));
}

// Bytes scored between checks of the running sum against the limit.
constexpr size_t kScoreChunk = 128;

// Applies filter F to `row` (length n) into `out`, with `prior` the
// unfiltered previous row (all zeros for the first row), and returns the
// sum of |residual|. Once the running sum reaches `limit` it stops and
// returns it: sums only grow, so under the strict < selection the filter
// can no longer win.
template <Filter F>
uint64_t FilterRowScored(const uint8_t* row, const uint8_t* prior, size_t n, uint64_t limit,
                         uint8_t* out) {
  uint64_t sum = 0;
  const size_t lead = std::min<size_t>(n, kBpp);
  for (size_t i = 0; i < lead; ++i) {
    out[i] = static_cast<uint8_t>(row[i] - Predict<F>(0, prior[i], 0));
    sum += AbsResidual(out[i]);
  }
  for (size_t start = lead; start < n && sum < limit; start += kScoreChunk) {
    const size_t stop = std::min(n, start + kScoreChunk);
    uint32_t chunk = 0;
    for (size_t i = start; i < stop; ++i) {
      out[i] = static_cast<uint8_t>(row[i] - Predict<F>(row[i - kBpp], prior[i], prior[i - kBpp]));
      chunk += AbsResidual(out[i]);
    }
    sum += chunk;
  }
  return sum;
}

uint64_t FilterRow(Filter filter, const uint8_t* row, const uint8_t* prior, size_t n,
                   uint64_t limit, uint8_t* out) {
  switch (filter) {
    case kNone:
      return FilterRowScored<kNone>(row, prior, n, limit, out);
    case kSub:
      return FilterRowScored<kSub>(row, prior, n, limit, out);
    case kUp:
      return FilterRowScored<kUp>(row, prior, n, limit, out);
    case kAverage:
      return FilterRowScored<kAverage>(row, prior, n, limit, out);
    case kPaeth:
      return FilterRowScored<kPaeth>(row, prior, n, limit, out);
  }
  return limit;
}

void UnfilterRow(Filter filter, uint8_t* row, const uint8_t* prior, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint8_t a = i >= kBpp ? row[i - kBpp] : 0;
    uint8_t b = prior != nullptr ? prior[i] : 0;
    uint8_t c = (prior != nullptr && i >= kBpp) ? prior[i - kBpp] : 0;
    uint8_t pred = 0;
    switch (filter) {
      case kNone:
        pred = 0;
        break;
      case kSub:
        pred = a;
        break;
      case kUp:
        pred = b;
        break;
      case kAverage:
        pred = static_cast<uint8_t>((a + b) / 2);
        break;
      case kPaeth:
        pred = PaethPredictor(a, b, c);
        break;
    }
    row[i] = static_cast<uint8_t>(row[i] + pred);
  }
}

}  // namespace

std::vector<uint8_t> PngLikeEncode(std::span<const Pixel> pixels, int32_t width,
                                   int32_t height) {
  const size_t row_bytes = static_cast<size_t>(width) * kBpp;
  std::vector<uint8_t> filtered((row_bytes + 1) * height);
  std::vector<uint8_t> trial(row_bytes);
  std::vector<uint8_t> best(row_bytes);
  // PNG defines the first row's prior as zeros.
  const std::vector<uint8_t> zeros(row_bytes, 0);

  const uint8_t* raw = reinterpret_cast<const uint8_t*>(pixels.data());
  for (int32_t y = 0; y < height; ++y) {
    const uint8_t* row = raw + static_cast<size_t>(y) * row_bytes;
    const uint8_t* prior = y > 0 ? row - row_bytes : zeros.data();
    Filter best_filter = kNone;
    uint64_t best_score = UINT64_MAX;
    for (Filter f : {kNone, kSub, kUp, kAverage, kPaeth}) {
      const uint64_t score = FilterRow(f, row, prior, row_bytes, best_score, trial.data());
      if (score < best_score) {
        best_score = score;
        best_filter = f;
        std::swap(trial, best);
      }
    }
    uint8_t* dst = filtered.data() + static_cast<size_t>(y) * (row_bytes + 1);
    dst[0] = static_cast<uint8_t>(best_filter);
    std::copy(best.begin(), best.end(), dst + 1);
  }
  // RLE collapses the long zero runs the filters produce on flat content
  // (LZSS alone is limited by its 18-byte match cap); LZSS then handles the
  // remaining repetition. Together they approximate DEFLATE's ratios.
  return LzssEncode(RleEncode(filtered));
}

bool PngLikeDecode(std::span<const uint8_t> data, int32_t width, int32_t height,
                   std::vector<Pixel>* pixels) {
  std::vector<uint8_t> packed;
  if (!LzssDecode(data, &packed)) {
    return false;
  }
  std::vector<uint8_t> filtered;
  if (!RleDecode(packed, &filtered)) {
    return false;
  }
  const size_t row_bytes = static_cast<size_t>(width) * kBpp;
  if (filtered.size() != (row_bytes + 1) * static_cast<size_t>(height)) {
    return false;
  }
  pixels->assign(static_cast<size_t>(width) * height, 0);
  uint8_t* raw = reinterpret_cast<uint8_t*>(pixels->data());
  for (int32_t y = 0; y < height; ++y) {
    const uint8_t* src = filtered.data() + static_cast<size_t>(y) * (row_bytes + 1);
    uint8_t filter = src[0];
    if (filter > kPaeth) {
      return false;
    }
    uint8_t* row = raw + static_cast<size_t>(y) * row_bytes;
    std::memcpy(row, src + 1, row_bytes);
    const uint8_t* prior = y > 0 ? raw + static_cast<size_t>(y - 1) * row_bytes : nullptr;
    UnfilterRow(static_cast<Filter>(filter), row, prior, row_bytes);
  }
  return true;
}

}  // namespace thinc
