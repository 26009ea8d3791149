// Shared helpers for the figure/table reproduction binaries.
//
// Each bench prints the rows of one paper artifact (Figures 2-7, Table 2)
// in a fixed-width text table, using the same system sets per network
// configuration as Section 8.1:
//   * LAN/WAN Desktop: ICA, RDP, X, NX, Sun Ray, VNC, THINC (+ local PC
//     baseline); GoToMyPC only in WAN (it is an Internet-routed service).
//   * 802.11g PDA: only the systems that support a client geometry
//     different from the server's — ICA, RDP, GoToMyPC, VNC, THINC.
#ifndef THINC_BENCH_BENCH_COMMON_H_
#define THINC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/measure/experiment.h"
#include "src/util/buffer.h"

namespace thinc {
namespace bench {

inline std::vector<SystemKind> DesktopSystems(bool include_gotomypc) {
  std::vector<SystemKind> systems = {
      SystemKind::kIca,  SystemKind::kRdp,    SystemKind::kX,
      SystemKind::kNx,   SystemKind::kSunRay, SystemKind::kVnc,
      SystemKind::kThinc};
  if (include_gotomypc) {
    systems.insert(systems.begin() + 2, SystemKind::kGotomypc);
  }
  systems.push_back(SystemKind::kLocalPc);
  return systems;
}

inline std::vector<SystemKind> PdaSystems() {
  return {SystemKind::kIca, SystemKind::kRdp, SystemKind::kGotomypc,
          SystemKind::kVnc, SystemKind::kThinc};
}

inline int32_t WebPageCount() {
  const char* env = std::getenv("THINC_WEB_PAGES");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 54;  // the full i-Bench-style suite
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("\n%s\n", title);
  for (size_t i = 0; i < std::string(title).size(); ++i) {
    std::putchar('=');
  }
  std::printf("\n%s\n", columns);
}

// --- Buffer-traffic instrumentation -----------------------------------------
//
// Benches that want to attribute cost to data movement snapshot the global
// BufferStats counters around a workload and report the deltas (the
// simulation is single-threaded, so a snapshot pair brackets exactly the
// bracketed work).

inline BufferStats SnapshotBufferStats() { return BufferStats::Get(); }

// Counter deltas of `end` relative to `start` (peak/live are taken from
// `end` as-is: they are levels, not counters).
inline BufferStats BufferStatsDelta(const BufferStats& start,
                                    const BufferStats& end) {
  BufferStats d = end;
  d.allocations -= start.allocations;
  d.allocated_bytes -= start.allocated_bytes;
  d.copies -= start.copies;
  d.copied_bytes -= start.copied_bytes;
  d.shares -= start.shares;
  d.cow_detaches -= start.cow_detaches;
  d.arena_reuses -= start.arena_reuses;
  d.raw_encodes -= start.raw_encodes;
  d.encode_charges -= start.encode_charges;
  d.payload_encode_hits -= start.payload_encode_hits;
  d.frame_cache_hits -= start.frame_cache_hits;
  return d;
}

}  // namespace bench
}  // namespace thinc

#endif  // THINC_BENCH_BENCH_COMMON_H_
