// Experiment harness: assembles a system under test, drives the paper's
// web and A/V benchmarks against it, and measures results the way Section
// 8.2 does — page latency from the first input packet to the last display
// byte (optionally plus client processing time), data transferred per page,
// and slow-motion A/V quality.
#ifndef THINC_SRC_MEASURE_EXPERIMENT_H_
#define THINC_SRC_MEASURE_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/baselines/system.h"
#include "src/core/thinc_server.h"
#include "src/net/link.h"
#include "src/net/transport.h"
#include "src/util/event_loop.h"

namespace thinc {

const char* SystemName(SystemKind kind);

struct ExperimentConfig {
  std::string name;
  LinkParams link;
  // WAN profile switches the baselines into their aggressive-compression /
  // WAN settings, as the paper configured them per network (Section 8.1).
  bool wan_profile = false;
  // PDA-style small client viewport; systems that cannot change geometry
  // are excluded from these runs by the benches.
  std::optional<Point> viewport;
  int32_t screen_width = 1024;
  int32_t screen_height = 768;
  // Wire (default) or same-host loopback; only the THINC system honors it
  // (baselines model remote-display products, which presume a wire).
  TransportKind transport = TransportKind::kWire;
  // THINC server options (offscreen tracking, scheduler, push vs pull, RAW
  // compression, ladder); only the THINC system reads them, the way only it
  // reads `transport`. The ablations vary them; the paper cells keep the
  // defaults.
  ThincServerOptions thinc_options;
};

ExperimentConfig LanDesktopConfig();
ExperimentConfig WanDesktopConfig();
ExperimentConfig Pda80211gConfig();
ExperimentConfig RemoteSiteConfig(const RemoteSite& site);
// Co-located session: loopback transport, no wire at all. Encryption stays
// on paper defaults unless the caller turns it off (there is nothing to
// snoop on a same-host handoff, and RC4 forces a payload copy).
ExperimentConfig LocalLoopbackConfig();

// Builds a fully wired system-under-test on `loop`.
std::unique_ptr<RemoteDisplaySystem> MakeSystem(SystemKind kind, EventLoop* loop,
                                                const ExperimentConfig& config);

// --- Web benchmark -----------------------------------------------------------

struct PageResult {
  double latency_ms = 0;              // network measure (packet trace)
  double latency_with_client_ms = 0;  // including client processing
  int64_t bytes = 0;                  // server->client data for the page
};

struct WebRunResult {
  std::string system;
  std::string config;
  std::vector<PageResult> pages;
  SimTime server_cpu_busy = 0;  // app_cpu() busy time (THINC: the server's)

  double AvgLatencyMs(bool with_client) const;
  double AvgPageKb() const;
};

WebRunResult RunWebBenchmark(SystemKind kind, const ExperimentConfig& config,
                             int32_t page_count = 54);

// --- A/V benchmark --------------------------------------------------------------

struct AvRunResult {
  std::string system;
  std::string config;
  double quality = 0;            // slow-motion A/V quality in [0, 1]
  int64_t bytes = 0;             // total server->client data
  int32_t frames_displayed = 0;
  int32_t frames_total = 0;
  double duration_s = 0;         // actual playback duration
  double bandwidth_mbps = 0;
  double audio_fraction = 0;     // delivered / expected PCM (0 if no audio)
  bool audio_supported = false;
  SimTime server_cpu_busy = 0;   // app_cpu() busy time (THINC: the server's)
};

// The paper's clip is 34.75 s; benches use a shorter clip unless
// THINC_AV_FULL=1 (quality is duration-normalized).
AvRunResult RunAvBenchmark(SystemKind kind, const ExperimentConfig& config,
                           SimTime duration);

// Benchmark clip duration honoring the THINC_AV_FULL environment switch.
SimTime BenchClipDuration();

// --- Telemetry-instrumented web run (Fig. 2 latency breakdown) ------------------

// Mean per-update stage latencies for one page, computed from completed
// lifecycle spans (see DESIGN.md §10): queue (scheduler insert -> flush
// pick), encode (CPU charge), send (first -> last byte on the socket),
// network (last byte committed -> delivered), decode (delivered -> applied).
struct StageBreakdown {
  double queue_ms = 0;
  double encode_ms = 0;
  double send_ms = 0;
  double network_ms = 0;
  double decode_ms = 0;
  double total_ms = 0;  // scheduler insert -> client framebuffer damage
  int64_t updates = 0;  // completed spans this page
  int64_t encode_cache_hits = 0;
  int64_t wire_bytes = 0;
};

struct WebBreakdownResult {
  WebRunResult web;
  std::vector<StageBreakdown> pages;  // parallel to web.pages
  bool trace_written = false;
};

// Runs the web benchmark on THINC with lifecycle spans enabled and returns
// per-page stage breakdowns alongside the usual results. When
// `trace_json_path` is non-empty, also enables Chrome-trace retention and
// writes a Perfetto-loadable trace of the whole run there. The run holds
// its own TelemetryScope, so the caller must not.
WebBreakdownResult RunThincWebBreakdown(const ExperimentConfig& config,
                                        int32_t page_count,
                                        const std::string& trace_json_path = "");

// --- Network characterization ------------------------------------------------------

// Bulk-transfer throughput measurement over `link` (the Iperf of Section 8.3).
double MeasureIperfMbps(const LinkParams& link, SimTime duration = 3 * kSecond);

}  // namespace thinc

#endif  // THINC_SRC_MEASURE_EXPERIMENT_H_
