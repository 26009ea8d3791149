// thinc_perfbench: one run of the repository benchmark.
//
//   thinc_perfbench --workload web_paper|av_paper|fleet_web --seed N
//                   --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off: it repeats
// whole passes of the workload while another pass still fits in S seconds
// (at least one), then reports median pass times and pooled per-unit
// percentiles. --trace 1 runs one untraced and one traced pass, checks that
// both produce the same output digest, and reports the per-layer metrics.
// The last line of stdout is the result as one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "src/telemetry/metrics.h"
#include "src/util/buffer.h"

namespace perfbench {
namespace {

// Set-up is timed over at least this many assemblies per run.
constexpr int kSetupSamples = 15;
// The highest percentile that keeps ten samples beyond it in every workload
// (each run checks that it does).
constexpr double kTailPct = 95;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Args {
  Workload workload = Workload::kWebPaper;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      const std::optional<Workload> w = ParseWorkload(value);
      if (!w.has_value()) {
        return false;
      }
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Prints the metrics table, the failed-operation share, and the JSON result
// line that must come last.
void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("failed operations: %d of %d (%.1f%%)\n", failed, attempted,
              attempted > 0 ? 100.0 * failed / attempted : 0.0);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

void PrintFailures(const PassResult& r) {
  for (const std::string& f : r.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
}

// Assembles the workload kSetupSamples times without running it. Besides the
// set-up samples, this grows the heap to the workload's footprint, so every
// timed pass runs on warm memory.
std::vector<double> SetupSamples(const Args& args) {
  PassOptions options;
  options.seed = args.seed;
  options.setup_only = true;
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    setups.push_back(RunPass(args.workload, options).setup_s);
  }
  return setups;
}

int RunEndToEnd(const Args& args) {
  PassOptions options;
  options.seed = args.seed;
  std::vector<PassResult> passes;
  std::vector<double> walls;
  std::vector<double> setups = SetupSamples(args);
  std::vector<double> units;
  const auto start = Clock::now();
  do {
    passes.push_back(RunPass(args.workload, options));
    walls.push_back(passes.back().wall_s);
    std::printf("pass %zu: %.4f s\n", passes.size(), walls.back());
    setups.push_back(passes.back().setup_s);
    units.insert(units.end(), passes.back().unit_ms.begin(),
                 passes.back().unit_ms.end());
  } while (static_cast<double>(NsSince(start)) / 1e9 + Median(walls) <= args.seconds);

  const PassResult& first = passes.front();
  bool correct = first.failed == 0;
  PrintFailures(first);
  for (const PassResult& p : passes) {
    if (p.digest != first.digest) {
      std::printf("FAILED: digest %s differs from the first pass's %s\n",
                  Hex(p.digest).c_str(), Hex(first.digest).c_str());
      correct = false;
    }
  }
  const RankedValue p50 = NearestRank(units, 50);
  const RankedValue tail = NearestRank(units, kTailPct);
  if (tail.beyond < 10) {
    std::printf("FAILED: only %zu unit samples lie beyond p95\n", tail.beyond);
    correct = false;
  }
  std::printf("digest %s\n", Hex(first.digest).c_str());
  std::printf("passes %zu, set-up samples %zu, events fired %llu per pass\n",
              passes.size(), setups.size(),
              static_cast<unsigned long long>(first.events_fired));
  std::printf("unit_host_ms: n=%zu p50=%.4f p95=%.4f (%zu samples beyond p95)\n",
              p50.samples, p50.value, tail.value, tail.beyond);

  const std::vector<Metric> metrics = {
      {"wall_s", Median(walls), "s"},
      {"setup_s", Median(setups), "s"},
      {"unit_host_ms.p50", p50.value, "ms"},
      {"unit_host_ms.p95", tail.value, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_wire_mb", first.sim_wire_mb, "MB"},
      {"sim_page_latency_ms", first.sim_page_latency_ms, "ms"},
      {"sim_av_quality", first.sim_av_quality, "ratio"},
      {"sim_drain_s", first.sim_drain_s, "s"},
  };
  const int failed = correct ? 0 : std::max(first.failed, 1);
  PrintResult(correct, first.attempted, failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args) {
  SetupSamples(args);
  thinc::MetricsRegistry::Get().ResetAll();
  thinc::BufferStats::Get().Reset();
  Tracer tracer;
  Corpus corpus;
  PassOptions options;
  options.seed = args.seed;
  options.tracer = &tracer;
  options.corpus = &corpus;
  // One Run() per loop instead of 100 ms slices: equal digests then also
  // show that slicing the loop does not change the simulation.
  options.sliced = false;
  // The traced pass goes first, so trace.overhead_ratio errs high: it also
  // carries the few percent a process's first pass costs over later ones.
  const PassResult traced = RunPass(args.workload, options);
  const thinc::BufferStats buffers = thinc::BufferStats::Get();
  std::map<std::string, double> counters;
  for (const auto& s : thinc::MetricsRegistry::Get().Snapshot()) {
    counters[s.name] = s.value;
  }
  PassOptions plain;
  plain.seed = args.seed;
  const PassResult untraced = RunPass(args.workload, plain);

  bool correct = untraced.failed == 0 && traced.failed == 0;
  PrintFailures(untraced);
  PrintFailures(traced);
  if (traced.digest != untraced.digest) {
    std::printf("FAILED: traced digest %s != untraced digest %s\n",
                Hex(traced.digest).c_str(), Hex(untraced.digest).c_str());
    correct = false;
  }
  const ReplayResult replay = ReplayKernels(args.workload, corpus);
  for (const std::string& f : replay.failures) {
    std::printf("FAILED: %s\n", f.c_str());
    correct = false;
  }
  std::printf("digest %s (untraced %s)\n", Hex(traced.digest).c_str(),
              Hex(untraced.digest).c_str());

  auto ms = [&](Layer l) { return static_cast<double>(tracer.self_ns(l)) / 1e6; };
  auto op_ms = [&](DisplayOp op) { return static_cast<double>(tracer.op_ns(op)) / 1e6; };
  auto counter = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double display_calls = static_cast<double>(tracer.spans(Layer::kDisplay));
  const double fired = static_cast<double>(traced.events_fired);
  const double traced_ms = traced.wall_s * 1e3;
  const double covered_ms = ms(Layer::kWorkload) + ms(Layer::kDisplay) + ms(Layer::kSim);
  const double delta_hits = counter("codec.delta_hits");
  const double delta_fallbacks = counter("codec.delta_fallbacks");
  const double encode_hits =
      static_cast<double>(buffers.payload_encode_hits + buffers.frame_cache_hits);

  std::vector<Metric> metrics = {
      {"workload.self_ms", ms(Layer::kWorkload), "ms"},
      {"display.calls", display_calls, "count"},
      {"display.self_ms", ms(Layer::kDisplay), "ms"},
      {"display.ns_per_call", ratio(ms(Layer::kDisplay) * 1e6, display_calls), "ns"},
      {"display.fill_ms", op_ms(DisplayOp::kFill), "ms"},
      {"display.text_ms", op_ms(DisplayOp::kText), "ms"},
      {"display.put_image_ms", op_ms(DisplayOp::kPutImage), "ms"},
      {"display.copy_ms", op_ms(DisplayOp::kCopy), "ms"},
      {"display.composite_ms", op_ms(DisplayOp::kComposite), "ms"},
      {"display.video_frame_ms", op_ms(DisplayOp::kVideoFrame), "ms"},
      {"sim.dispatch_ms", ms(Layer::kSim), "ms"},
      {"sim.events_fired", fired, "count"},
      {"sim.events_cancelled", static_cast<double>(traced.events_cancelled), "count"},
      {"sim.ns_per_event", ratio(ms(Layer::kSim) * 1e6, fired), "ns"},
      {"setup.system_ms", ms(Layer::kSetupSystem), "ms"},
      {"setup.viewport_ms", ms(Layer::kSetupViewport), "ms"},
  };
  for (const auto& [name, value] : replay.metrics) {
    const char* unit = name.ends_with("_mb_s")       ? "MB/s"
                       : name.ends_with("_ratio")    ? "ratio"
                       : name.ends_with("_per_frame") ? "ms"
                                                      : "ms/Mpix";
    metrics.push_back({name, value, unit});
  }
  const std::vector<Metric> program = {
      {"codec.delta_hits", delta_hits, "count"},
      {"codec.delta_fallbacks", delta_fallbacks, "count"},
      {"codec.delta_hit_ratio", ratio(delta_hits, delta_hits + delta_fallbacks), "ratio"},
      {"sched.inserted", counter("sched.inserted"), "count"},
      {"queue.evicted_commands", counter("queue.evicted_commands"), "count"},
      {"core.evicted_ratio",
       ratio(counter("queue.evicted_commands"), counter("sched.inserted")), "ratio"},
      {"buffer.raw_encodes", static_cast<double>(buffers.raw_encodes), "count"},
      {"buffer.encode_charges", static_cast<double>(buffers.encode_charges), "count"},
      {"buffer.encode_hit_ratio",
       ratio(encode_hits, encode_hits + static_cast<double>(buffers.raw_encodes)),
       "ratio"},
      {"buffer.copied_mb", static_cast<double>(buffers.copied_bytes) / 1e6, "MB"},
      {"buffer.allocations", static_cast<double>(buffers.allocations), "count"},
      {"buffer.peak_payload_mb", static_cast<double>(buffers.peak_payload_bytes) / 1e6,
       "MB"},
      {"net.segments", counter("net.segments"), "count"},
      {"net.delivered_mb", counter("net.delivered_bytes") / 1e6, "MB"},
      {"net.nic.wait_us.p95", counter("net.nic.wait_us.p95"), "us"},
      {"net.nic.parks", counter("net.nic.parks"), "count"},
      {"fleet.controller_ticks", counter("fleet.controller_ticks"), "count"},
      {"fleet.degradations", counter("fleet.degradations"), "count"},
      {"fleet.degrade_level.max", counter("fleet.degrade_level.max"), "level"},
      {"trace.overhead_ratio", ratio(traced.wall_s, untraced.wall_s), "ratio"},
      {"trace.coverage_ratio", ratio(covered_ms, traced_ms), "ratio"},
  };
  metrics.insert(metrics.end(), program.begin(), program.end());
  const int failed =
      correct ? 0 : std::max({untraced.failed, traced.failed, 1});
  PrintResult(correct, untraced.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload web_paper|av_paper|fleet_web --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunEndToEnd(args);
}
