#include "src/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/thinc_system.h"
#include "src/net/link.h"
#include "src/telemetry/metrics.h"
#include "src/util/event_loop.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// Each telemetry test records inside its own TelemetryScope, so tests that
// share a process (build/tests/test_telemetry run directly) see none of each
// other's spans, events or hosts. MetricsRegistry stays process-wide.

// --- Metrics -----------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter c;
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);

  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(g.max(), 10);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
}

TEST(MetricsTest, HistogramBucketEdges) {
  // An observation lands in the first bucket whose bound it does not exceed
  // (v <= bound); anything past the last bound goes to the overflow bucket.
  Histogram h({10, 100, 1000});
  h.Observe(10);    // bucket 0 (<= 10)
  h.Observe(11);    // bucket 1
  h.Observe(100);   // bucket 1 (<= 100)
  h.Observe(1000);  // bucket 2
  h.Observe(1001);  // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1);
  EXPECT_EQ(h.bucket_counts()[1], 2);
  EXPECT_EQ(h.bucket_counts()[2], 1);
  EXPECT_EQ(h.bucket_counts()[3], 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 1001);
  EXPECT_EQ(h.sum(), 10 + 11 + 100 + 1000 + 1001);
}

TEST(MetricsTest, HistogramPercentiles) {
  Histogram h({25, 50, 75, 100});
  for (int64_t v = 1; v <= 100; ++v) {
    h.Observe(v);
  }
  // Uniform 1..100 over four equal buckets: linear interpolation recovers
  // the percentile values (nearly) exactly.
  EXPECT_NEAR(h.Percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.Percentile(95), 95.0, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99.0, 1.0);
  // Clamped to the observed range at the extremes.
  EXPECT_GE(h.Percentile(1), 1.0);
  EXPECT_LE(h.Percentile(100), 100.0);
}

TEST(MetricsTest, HistogramEmptyAndReset) {
  Histogram h({10});
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.count(), 0);
  h.Observe(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
}

TEST(MetricsTest, ExponentialBounds) {
  std::vector<int64_t> b = Histogram::ExponentialBounds(64, 2.0, 4);
  EXPECT_EQ(b, (std::vector<int64_t>{64, 128, 256, 512}));
}

TEST(MetricsTest, RegistryIsIdempotentByName) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  Counter* a = reg.GetCounter("test.counter");
  Counter* b = reg.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  a->Inc(5);
  EXPECT_EQ(b->value(), 5);
  Histogram* h1 = reg.GetHistogram("test.histo", {1, 2});
  Histogram* h2 = reg.GetHistogram("test.histo", {9, 99});  // bounds ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->upper_bounds(), (std::vector<int64_t>{1, 2}));
}

TEST(MetricsTest, ResetAllZeroesOwnedMetrics) {
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.GetCounter("test.reset_me")->Inc(7);
  reg.GetGauge("test.reset_gauge")->Set(3);
  reg.GetHistogram("test.reset_histo", {10})->Observe(4);
  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("test.reset_me")->value(), 0);
  EXPECT_EQ(reg.GetGauge("test.reset_gauge")->value(), 0);
  EXPECT_EQ(reg.GetHistogram("test.reset_histo", {10})->count(), 0);
}

TEST(TelemetryTest, DisabledFacilitiesRecordNothing) {
  Telemetry& t = Telemetry::Get();  // outside every scope: everything off
  EXPECT_FALSE(t.active());
  EXPECT_EQ(t.NewUpdateSpan(1, 1, 100), 0u);
  t.Instant(1, 1, "y", 2);
  t.Record("z", 3);
  t.PushWireTrace(&t, 7);
  EXPECT_TRUE(t.spans().empty());
  EXPECT_TRUE(t.events().empty());
  EXPECT_TRUE(t.FlightTimeline().empty());
  EXPECT_EQ(t.PopWireTrace(&t), 0u);
}

// --- Flight recorder ---------------------------------------------------------

TEST(TelemetryTest, FlightRecorderRingWraparound) {
  TelemetryScope scope({.flight_recorder = true, .flight_capacity = 4});
  Telemetry& t = Telemetry::Get();

  for (int i = 1; i <= 10; ++i) {
    t.Record("tick", /*ts=*/i * 100, /*a=*/i);
  }
  std::vector<FlightRecord> timeline = t.FlightTimeline();
  ASSERT_EQ(timeline.size(), 4u);
  // Oldest -> newest, keeping only the last 4 of the 10 records.
  EXPECT_EQ(timeline[0].a, 7);
  EXPECT_EQ(timeline[1].a, 8);
  EXPECT_EQ(timeline[2].a, 9);
  EXPECT_EQ(timeline[3].a, 10);
  EXPECT_EQ(timeline[3].ts, 1000);
}

TEST(TelemetryTest, FlightRecorderBelowCapacity) {
  TelemetryScope scope({.flight_recorder = true, .flight_capacity = 8});
  Telemetry& t = Telemetry::Get();
  t.Record("a", 1);
  t.Record("b", 2);
  std::vector<FlightRecord> timeline = t.FlightTimeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_STREQ(timeline[0].name, "a");
  EXPECT_STREQ(timeline[1].name, "b");
}

// --- Wire-trace channels -----------------------------------------------------

TEST(TelemetryTest, WireChannelIsFifoPerChannel) {
  TelemetryScope scope({.spans = true});
  Telemetry& t = Telemetry::Get();

  int chan_a = 0, chan_b = 0;  // distinct addresses as channel keys
  t.PushWireTrace(&chan_a, 1);
  t.PushWireTrace(&chan_a, 2);
  t.PushWireTrace(&chan_b, 9);
  EXPECT_EQ(t.WireChannelDepth(&chan_a), 2u);
  EXPECT_EQ(t.PopWireTrace(&chan_a), 1u);
  EXPECT_EQ(t.PopWireTrace(&chan_a), 2u);
  EXPECT_EQ(t.PopWireTrace(&chan_a), 0u);  // drained
  EXPECT_EQ(t.PopWireTrace(&chan_b), 9u);

  t.PushWireTrace(&chan_a, 3);
  t.DropWireChannel(&chan_a);
  EXPECT_EQ(t.WireChannelDepth(&chan_a), 0u);
  EXPECT_EQ(t.PopWireTrace(&chan_a), 0u);
}

// --- End-to-end lifecycle spans ----------------------------------------------

TEST(LifecycleSpanTest, DrawsProduceOrderedCompletedSpans) {
  // BEFORE system construction (hosts register in ctors)
  TelemetryScope scope({.spans = true});
  Telemetry& t = Telemetry::Get();

  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 320, 240);
  loop.Run();  // drain session startup

  sys.api()->FillRect(kScreenDrawable, Rect{10, 10, 50, 40}, MakePixel(200, 10, 10));
  std::vector<Pixel> px(static_cast<size_t>(64) * 32, MakePixel(1, 2, 3));
  sys.api()->PutImage(kScreenDrawable, Rect{100, 50, 64, 32}, px);
  loop.Run();

  ASSERT_FALSE(t.spans().empty());
  int completed = 0;
  for (const UpdateSpan& s : t.spans()) {
    if (!s.completed()) {
      continue;
    }
    ++completed;
    EXPECT_GT(s.server_pid, 0);
    EXPECT_GT(s.client_pid, 0);
    EXPECT_GE(s.wire_bytes, 1);
    EXPECT_GE(s.wire_frames, 1);
    // Monotone pipeline: insert -> pick -> commit -> deliver -> decode ->
    // damage, with the event-loop sequence breaking virtual-time ties.
    EXPECT_LE(s.queued.ts, s.picked.ts);
    EXPECT_LE(s.picked.ts, s.encode_done.ts);
    EXPECT_LE(s.commit_first.ts, s.commit_last.ts);
    EXPECT_LE(s.commit_last.ts, s.delivered.ts);
    EXPECT_LE(s.delivered.ts, s.decoded.ts);
    EXPECT_LE(s.decoded.ts, s.damaged.ts);
    EXPECT_LE(s.queued.seq, s.damaged.seq);
  }
  EXPECT_GE(completed, 2);  // the fill and the image at least
  // Every committed frame was decoded: the out-of-band channel drained.
  EXPECT_EQ(t.WireChannelDepth(sys.connection()), 0u);
}

// --- Chrome trace export -----------------------------------------------------

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return "";
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

// Builds a small fixed scenario entirely from synthetic stamps (no event
// loop), so the export is byte-stable across runs and machines.
std::string BuildFixedScenarioTrace() {
  TelemetryScope scope({.chrome_trace = true});
  Telemetry& t = Telemetry::Get();
  int pid = t.RegisterHostAuto("golden-host");
  EXPECT_EQ(pid, 1);
  t.NameThread(pid, 1, "stage");
  t.Instant(pid, 1, "page \"one\"", 100);  // quoting exercises the escaper
  t.Instant(pid, 1, "tick", 150);
  t.InstantArg(pid, 1, "count", 175, "n", 42);
  return t.ExportChromeTrace();
}

TEST(ChromeTraceTest, GoldenFixedScenario) {
  const std::string json = BuildFixedScenarioTrace();
  const std::string golden_path =
      std::string(THINC_SOURCE_DIR) + "/tests/golden/telemetry_trace.json";
  if (std::getenv("THINC_REGENERATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(golden_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::string golden = ReadFileOrEmpty(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path;
  EXPECT_EQ(json, golden);
}

// Minimal structural validation of the export: balanced braces/brackets
// outside strings, and per-(pid, tid) non-decreasing ts for non-metadata
// events (the order ExportChromeTrace promises on every track).
void ValidateChromeTrace(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  std::map<std::pair<long, long>, long long> last_ts;
  size_t pos = 0;
  while ((pos = json.find("{\"ph\":\"", pos)) != std::string::npos) {
    const char ph = json[pos + 7];
    const size_t line_end = json.find('\n', pos);
    const std::string line = json.substr(pos, line_end - pos);
    pos = pos + 1;
    if (ph == 'M') {
      continue;  // metadata carries no ts
    }
    long pid = -1, tid = -1;
    long long ts = -1;
    const size_t p = line.find("\"pid\":");
    const size_t t = line.find("\"tid\":");
    const size_t s = line.find("\"ts\":");
    ASSERT_NE(p, std::string::npos) << line;
    ASSERT_NE(t, std::string::npos) << line;
    ASSERT_NE(s, std::string::npos) << line;
    pid = std::strtol(line.c_str() + p + 6, nullptr, 10);
    tid = std::strtol(line.c_str() + t + 6, nullptr, 10);
    ts = std::strtoll(line.c_str() + s + 5, nullptr, 10);
    auto it = last_ts.find({pid, tid});
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts) << "ts regressed on pid " << pid << " tid "
                                << tid << ": " << line;
    }
    last_ts[{pid, tid}] = ts;
  }
  EXPECT_FALSE(last_ts.empty());
}

TEST(ChromeTraceTest, FixedScenarioIsStructurallyValid) {
  ValidateChromeTrace(BuildFixedScenarioTrace());
}

// Traces a small THINC session drawing a fill and an image in a scope of its
// own.
std::string TraceSmallSession() {
  TelemetryScope scope({.spans = true, .chrome_trace = true});
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 320, 240);
  loop.Run();
  sys.api()->FillRect(kScreenDrawable, Rect{0, 0, 160, 120}, MakePixel(9, 9, 9));
  std::vector<Pixel> px(static_cast<size_t>(48) * 48, MakePixel(5, 6, 7));
  sys.api()->PutImage(kScreenDrawable, Rect{20, 20, 48, 48}, px);
  loop.Run();
  return Telemetry::Get().ExportChromeTrace();
}

TEST(ChromeTraceTest, RealRunExportIsStructurallyValid) {
  const std::string json = TraceSmallSession();
  ValidateChromeTrace(json);
  // The per-update slices made it into the trace.
  EXPECT_NE(json.find("\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"encode\""), std::string::npos);
  EXPECT_NE(json.find("\"net\""), std::string::npos);
  EXPECT_NE(json.find("\"decode+apply\""), std::string::npos);
}

// A trace holds only its own run: the same session traced twice in one
// process exports the same bytes, hosts numbered from pid 1 both times.
TEST(ChromeTraceTest, ConsecutiveRunsExportIdenticalTraces) {
  const std::string first = TraceSmallSession();
  EXPECT_NE(first.find("\"thinc-server#1\""), std::string::npos);
  EXPECT_EQ(TraceSmallSession(), first);
}

// Leaving a scope restores the all-off instance and the previous
// THINC_CHECK failure hook.
TEST(TelemetryScopeTest, EndRestoresTheOffInstanceAndHook) {
  Telemetry* off = &Telemetry::Get();
  auto* const hook = g_check_failure_hook;
  {
    TelemetryScope scope({.flight_recorder = true});
    EXPECT_NE(&Telemetry::Get(), off);
    EXPECT_NE(g_check_failure_hook, hook);
    Telemetry::Get().Record("x", 1);
    EXPECT_EQ(Telemetry::Get().FlightTimeline().size(), 1u);
  }
  EXPECT_EQ(&Telemetry::Get(), off);
  EXPECT_EQ(g_check_failure_hook, hook);
  EXPECT_TRUE(off->FlightTimeline().empty());
}

TEST(TelemetryScopeTest, ScopesDoNotNest) {
  TelemetryScope outer({});
  EXPECT_DEATH(TelemetryScope inner({}), "telemetry scopes do not nest");
}

}  // namespace
}  // namespace thinc
