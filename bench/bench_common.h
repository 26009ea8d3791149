// Shared helpers for the bench binaries: the THINC_WEB_PAGES knob, the
// nearest-rank percentile the sweeps report, and the fixed-width table
// header every bench prints.
#ifndef THINC_BENCH_BENCH_COMMON_H_
#define THINC_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/measure/experiment.h"
#include "src/workload/web.h"

namespace thinc {
namespace bench {

// Pages per web run: THINC_WEB_PAGES when set to a positive number, capped
// at the suite's length; the full i-Bench-style suite otherwise.
inline int32_t WebPageCount() {
  const char* env = std::getenv("THINC_WEB_PAGES");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) {
      return std::min<int32_t>(n, WebWorkload::kPageCount);
    }
  }
  return WebWorkload::kPageCount;
}

// Nearest-rank percentile over integer microseconds (deterministic; no FP
// accumulation order dependence).
inline int64_t PercentileUs(std::vector<int64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx];
}

inline double Ms(int64_t us) { return static_cast<double>(us) / kMillisecond; }

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("\n%s\n", title);
  for (size_t i = 0; i < std::string(title).size(); ++i) {
    std::putchar('=');
  }
  std::printf("\n%s\n", columns);
}

}  // namespace bench
}  // namespace thinc

#endif  // THINC_BENCH_BENCH_COMMON_H_
