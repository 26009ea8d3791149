// Tests of the benchmark harness itself, on shrunken workloads.
#include "harness.h"

#include <gtest/gtest.h>

#include "src/measure/experiment.h"

namespace perfbench {
namespace {

PassOptions Small(Workload w, uint64_t seed) {
  PassOptions o;
  o.seed = seed;
  o.size.web_pages = 3;
  o.size.av_frames = 6;
  o.size.fleet_sessions = 4;
  o.size.fleet_pages = 2;
  // Through THINC on the LAN: the seventh cell of both paper suites.
  o.size.max_cells = w == Workload::kFleetWeb ? SIZE_MAX : 7;
  return o;
}

TEST(NearestRankTest, ReportsValueAndSampleCount) {
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) {
    v.push_back(i);
  }
  const RankedValue p50 = NearestRank(v, 50);
  EXPECT_EQ(p50.value, 100);
  EXPECT_EQ(p50.samples, 200u);
  EXPECT_EQ(p50.beyond, 100u);
  const RankedValue p95 = NearestRank(v, 95);
  EXPECT_EQ(p95.value, 190);
  EXPECT_EQ(p95.beyond, 10u);
  EXPECT_EQ(NearestRank({7}, 95).value, 7);
  EXPECT_EQ(NearestRank({}, 50).samples, 0u);
}

TEST(TracerTest, SelfTimeExcludesNestedSpans) {
  Tracer t;
  t.Begin(Layer::kSim);
  t.Begin(Layer::kDisplay);
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 100000; ++i) {
    sink = sink + i;
  }
  const int64_t inner = t.End();
  const int64_t outer = t.End();
  EXPECT_EQ(t.self_ns(Layer::kDisplay), inner);
  EXPECT_EQ(t.self_ns(Layer::kSim), outer - inner);
  EXPECT_EQ(t.spans(Layer::kSim), 1);
}

// The DrawingApi proxy and the spans must not change the simulation, and
// stepping the loop in 100 ms slices must equal one Run().
TEST(TransparencyTest, TracedSlicedAndWholeRunsShareADigest) {
  for (Workload w : {Workload::kWebPaper, Workload::kAvPaper, Workload::kFleetWeb}) {
    const PassResult plain = RunPass(w, Small(w, 3));
    PassOptions whole = Small(w, 3);
    whole.sliced = false;
    EXPECT_EQ(RunPass(w, whole).digest, plain.digest);
    Tracer tracer;
    Corpus corpus;
    PassOptions traced = Small(w, 3);
    traced.tracer = &tracer;
    traced.corpus = &corpus;
    const PassResult t = RunPass(w, traced);
    EXPECT_EQ(t.digest, plain.digest);
    EXPECT_GT(tracer.spans(Layer::kDisplay), 0);
    EXPECT_EQ(plain.failed, 0);
    EXPECT_GT(plain.attempted, 0);
    const ReplayResult replay = ReplayKernels(w, corpus);
    EXPECT_TRUE(replay.failures.empty());
    EXPECT_EQ(replay.metrics.size(), 9u);
  }
}

TEST(SeedTest, ReachesWebWorkloadAndFleetOffsets) {
  EXPECT_NE(FleetPageOffsets(1, 16), FleetPageOffsets(2, 16));
  EXPECT_EQ(FleetPageOffsets(5, 16), FleetPageOffsets(5, 16));
  EXPECT_EQ(AvClipStart(0, 48), 0);
  EXPECT_NE(AvClipStart(1, 48), AvClipStart(2, 48));
  EXPECT_LE(AvClipStart(UINT64_MAX, 48), kPaperClipFrames - 48);
  for (Workload w : {Workload::kWebPaper, Workload::kFleetWeb}) {
    const uint64_t a = RunPass(w, Small(w, 1)).digest;
    EXPECT_EQ(RunPass(w, Small(w, 1)).digest, a);
    EXPECT_NE(RunPass(w, Small(w, 2)).digest, a);
  }
}

// At the paper's seeds (web 1, A/V 0) the workloads reproduce the paper
// harness (RunWebBenchmark / RunAvBenchmark) cell for cell.
TEST(PaperHarnessTest, SameBytesLatencyAndQuality) {
  PassOptions web = Small(Workload::kWebPaper, 1);
  const PassResult w = RunPass(Workload::kWebPaper, web);
  PassOptions av = Small(Workload::kAvPaper, 0);
  const PassResult a = RunPass(Workload::kAvPaper, av);
  const thinc::SimTime clip =
      av.size.av_frames * static_cast<thinc::SimTime>(thinc::kSecond / 24.0);
  int64_t web_bytes = 0;
  int64_t av_bytes = 0;
  double quality = 0;
  const thinc::ExperimentConfig lan = thinc::LanDesktopConfig();
  for (thinc::SystemKind kind :
       {thinc::SystemKind::kIca, thinc::SystemKind::kRdp, thinc::SystemKind::kX,
        thinc::SystemKind::kNx, thinc::SystemKind::kSunRay, thinc::SystemKind::kVnc,
        thinc::SystemKind::kThinc}) {
    const thinc::WebRunResult wr = thinc::RunWebBenchmark(kind, lan, web.size.web_pages);
    for (const thinc::PageResult& p : wr.pages) {
      web_bytes += p.bytes;
    }
    if (kind == thinc::SystemKind::kThinc) {
      EXPECT_DOUBLE_EQ(w.sim_page_latency_ms, wr.AvgLatencyMs(false));
    }
    const thinc::AvRunResult ar = thinc::RunAvBenchmark(kind, lan, clip);
    av_bytes += ar.bytes;
    quality += ar.quality;
  }
  EXPECT_DOUBLE_EQ(w.sim_wire_mb, static_cast<double>(web_bytes) / 1e6);
  EXPECT_DOUBLE_EQ(a.sim_wire_mb, static_cast<double>(av_bytes) / 1e6);
  EXPECT_DOUBLE_EQ(a.sim_av_quality, quality / 7);
}

TEST(SetupOnlyTest, AssemblesWithoutRunning) {
  PassOptions o = Small(Workload::kFleetWeb, 1);
  o.setup_only = true;
  const PassResult r = RunPass(Workload::kFleetWeb, o);
  EXPECT_GT(r.setup_s, 0);
  EXPECT_EQ(r.attempted, 0);
  EXPECT_TRUE(r.unit_ms.empty());
}

}  // namespace
}  // namespace perfbench
