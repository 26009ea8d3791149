// Ablation A6: session-sharing scalability.
//
// The paper motivates consolidation ("computing resources can be
// consolidated and shared across many users") and screen sharing. This
// bench measures how one shared session scales with viewer count: total
// host CPU per page, aggregate bandwidth, and worst-viewer latency.
#include "bench/bench_common.h"

#include "src/core/session_share.h"
#include "src/workload/web.h"

using namespace thinc;

int main() {
  bench::PrintHeader(
      "Ablation: Screen-Sharing Scalability (LAN viewers)",
      "viewers  page_ms_worst  host_cpu_ms/page  total_KB/page  "
      "enc_charges/page  enc_reuses/page");
  const int32_t pages = 8;
  for (int viewers : {1, 2, 4, 8, 16}) {
    EventLoop loop;
    SharedSessionHost host(&loop, 1024, 768);
    std::vector<SharedSessionHost::Viewer*> vs;
    for (int i = 0; i < viewers; ++i) {
      vs.push_back(host.AddViewer(LanDesktopLink()));
    }
    loop.Run();
    WebWorkload workload(1024, 768);
    SimTime cpu0 = host.host_cpu()->total_busy();
    BufferStats encode0 = bench::SnapshotBufferStats();
    double worst_ms = 0;
    int64_t total_bytes = 0;
    std::vector<int64_t> base;
    for (auto* v : vs) {
      base.push_back(v->transport()->BytesDeliveredTo(Connection::kClient));
    }
    for (int32_t p = 0; p < pages; ++p) {
      loop.RunUntil(loop.now() + 200 * kMillisecond);
      SimTime t0 = loop.now();
      workload.RenderPage(host.window_server(), p, host.host_cpu());
      loop.Run();
      SimTime done = 0;
      for (auto* v : vs) {
        done = std::max(done, v->transport()->LastDeliveryTo(Connection::kClient));
      }
      worst_ms += static_cast<double>(done - t0) / kMillisecond / pages;
    }
    for (size_t i = 0; i < vs.size(); ++i) {
      total_bytes += vs[i]->transport()->BytesDeliveredTo(Connection::kClient) - base[i];
    }
    BufferStats encodes = bench::BufferStatsDelta(encode0, bench::SnapshotBufferStats());
    std::printf("%7d %14.0f %17.1f %14.0f %16.1f %16.1f\n", viewers, worst_ms,
                static_cast<double>(host.host_cpu()->total_busy() - cpu0) /
                    kMillisecond / pages,
                static_cast<double>(total_bytes) / 1024.0 / pages,
                static_cast<double>(encodes.encode_charges) / pages,
                static_cast<double>(encodes.payload_encode_hits +
                                    encodes.frame_cache_hits) / pages);
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected: bandwidth scales linearly with viewers (each gets its own\n"
      "stream), but encode cost does NOT: the shared frame cache (plus its\n"
      "in-flight registry — a viewer arriving while another viewer's encode\n"
      "of the same frame is still running waits for it instead of starting\n"
      "a duplicate) amortizes the charged RAW encode CPU to ~1 encode per\n"
      "frame regardless of viewer count: enc_charges/page stays flat while\n"
      "enc_reuses/page grows with N, and so host CPU per page and worst\n"
      "viewer latency stay nearly flat too. What still rises with N is\n"
      "per-viewer translation and encryption work — the consolidation\n"
      "trade-off that ultimately bounds fan-out.\n");
  return 0;
}
