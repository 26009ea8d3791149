// The repository benchmark's harness: the three workloads (the paper's web
// and A/V suites, and a 256-session fleet), the host-time tracer that
// attributes a run to the simulator's layers from outside the program, the
// output digest, and the codec replay over each workload's own pixels.
//
// Two clocks are in play. Host time (std::chrono::steady_clock) is what the
// benchmark measures; virtual time and wire bytes are the simulation's
// results, folded into a digest that must not depend on tracing, on how the
// event loop is stepped, or on anything but the seed.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/raster/surface.h"
#include "src/raster/yuv.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

// --- Statistics ----------------------------------------------------------------

// A nearest-rank percentile together with the sample count behind it and how
// many samples lie strictly above the reported one.
struct RankedValue {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

// Nearest-rank percentile `pct` in (0, 100] of `values`; all zero when empty.
RankedValue NearestRank(std::vector<double> values, double pct);
double Median(std::vector<double> values);

// --- Output digest ---------------------------------------------------------------

// FNV-1a over 64-bit words and strings: the fingerprint of a run's simulated
// outputs (virtual times, bytes, frames, delivered-byte hashes).
class Digest {
 public:
  void Add(uint64_t v);
  void Add(std::string_view s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

std::string Hex(uint64_t v);

// --- Host-time tracer --------------------------------------------------------------

// Layers the traced run attributes host time to, named after src/ modules.
enum class Layer { kWorkload, kDisplay, kSim, kSetupSystem, kSetupViewport };
inline constexpr int kLayerCount = 5;

// Drawing calls, grouped the way the window server renders them.
enum class DisplayOp { kFill, kText, kPutImage, kCopy, kComposite, kVideoFrame, kOther };
inline constexpr int kDisplayOpCount = 7;

// Nested spans: a layer's self time is its spans' duration minus the part
// covered by spans opened inside them.
class Tracer {
 public:
  void Begin(Layer layer);
  // Closes the innermost span and returns its full duration in ns.
  int64_t End();

  void AddDisplayOp(DisplayOp op, int64_t ns);

  int64_t self_ns(Layer layer) const { return self_ns_[static_cast<int>(layer)]; }
  int64_t spans(Layer layer) const { return spans_[static_cast<int>(layer)]; }
  int64_t op_ns(DisplayOp op) const { return op_ns_[static_cast<int>(op)]; }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<int64_t, kLayerCount> self_ns_{};
  std::array<int64_t, kLayerCount> spans_{};
  std::array<int64_t, kDisplayOpCount> op_ns_{};
};

// --- Workloads ---------------------------------------------------------------------

enum class Workload { kWebPaper, kAvPaper, kFleetWeb };

std::optional<Workload> ParseWorkload(std::string_view name);

// Workload sizes; the defaults are the benchmark's. Tests shrink them.
struct WorkloadSize {
  int32_t web_pages = 54;
  // A/V clip length in frames at 24 fps.
  int32_t av_frames = 36;
  int fleet_sessions = 256;
  int fleet_pages = 3;
  // Runs only the first this-many (system x network) cells of a paper suite.
  size_t max_cells = SIZE_MAX;
};

// Pixels a traced pass keeps for the codec replay.
struct Corpus {
  std::vector<thinc::Surface> screens;
  std::vector<thinc::Yv12Frame> frames;
};

struct PassOptions {
  uint64_t seed = 1;
  WorkloadSize size;
  // Non-null: time the layers through spans and the DrawingApi proxy.
  Tracer* tracer = nullptr;
  // Advance the A/V and fleet event loops in 100 ms slices of virtual time
  // (one unit of work each); false runs each loop to completion in one call.
  bool sliced = true;
  // Assemble (and time) every cell, then tear it down without running it.
  bool setup_only = false;
  Corpus* corpus = nullptr;
};

struct PassResult {
  double wall_s = 0;   // host time of the measured phase
  double setup_s = 0;  // host time spent assembling cells before the first click
  std::vector<double> unit_ms;  // host time per unit of work
  uint64_t digest = 0;
  int attempted = 0;  // operations: cells, or fleet sessions
  int failed = 0;
  std::vector<std::string> failures;
  // Virtual results (see METRICS.md for their per-workload definitions).
  double sim_wire_mb = 0;
  double sim_page_latency_ms = 0;
  double sim_av_quality = 0;
  double sim_drain_s = 0;
  uint64_t events_fired = 0;
  uint64_t events_cancelled = 0;
};

PassResult RunPass(Workload workload, const PassOptions& options);

// Seed plumbing, exposed for the tests. The web suite passes the seed to
// WebWorkload; the fleet passes it to FleetOptions and shuffles each
// session's first page with it (FleetPageOffsets); the A/V suite plays
// `frames` frames of the paper's clip starting at frame
// seed mod (834 - frames + 1), so seed 0 plays the paper harness's clip.
inline constexpr int32_t kPaperClipFrames = 834;  // 34.75 s at 24 fps
std::vector<int32_t> FleetPageOffsets(uint64_t seed, int sessions);
int32_t AvClipStart(uint64_t seed, int32_t frames);

// --- Codec replay -------------------------------------------------------------------

struct ReplayResult {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> failures;
};

// Times the public codec and raster kernels on a workload's own pixels and
// checks their round trips: LzssDecode(LzssEncode(x)) == x, RC4 applied twice
// is the identity, and DeltaDecode reproduces the frame.
ReplayResult ReplayKernels(Workload workload, const Corpus& corpus);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
