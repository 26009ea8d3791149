// The capacity sweeps' open-loop web fleet (bench_fleet_capacity,
// bench_transport, bench_devices, bench_cluster): one driver that admits a
// session population and clicks it through the web suite on a fixed
// schedule, the pooled update-latency summary and the capacity-knee picker.
#ifndef THINC_BENCH_WEB_FLEET_H_
#define THINC_BENCH_WEB_FLEET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/cluster.h"
#include "src/fleet/fleet.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/web.h"

namespace thinc {
namespace bench {

// Every open-loop session clicks once per think time.
constexpr SimTime kThink = 1500 * kMillisecond;

// A sweep point is below the capacity knee while its pooled p95 update
// latency stays within this; open-loop overload queues without bound and
// blows past it by seconds.
constexpr double kKneeMs = 1000.0;

// Update latency (scheduler insert -> client framebuffer damage) of the
// lifecycle spans the live TelemetryScope recorded; empty when spans are off.
struct UpdateLatencies {
  int64_t evicted = 0;  // overwritten in the backlog before sending
  // One entry per completed span, in span order: its latency and the trace
  // pid of the server that queued it.
  std::vector<int64_t> us;
  std::vector<int> server_pids;

  int64_t completed() const { return static_cast<int64_t>(us.size()); }
  double PercentileMs(double p) const { return Ms(PercentileUs(us, p)); }
};

inline UpdateLatencies CollectUpdateLatencies() {
  UpdateLatencies l;
  for (const UpdateSpan& s : Telemetry::Get().spans()) {
    if (s.evicted) {
      ++l.evicted;
    }
    if (s.completed()) {
      l.us.push_back(s.damaged.ts - s.queued.ts);
      l.server_pids.push_back(s.server_pid);
    }
  }
  return l;
}

// The capacity knee of a sweep: the largest size(run) among the runs whose
// pooled p95 stays within kKneeMs, or 0 when none does. size(run) is 0 for
// a run outside the series being picked.
template <typename Run, typename Size>
int Knee(const std::vector<Run>& runs, Size size) {
  int knee = 0;
  for (const Run& r : runs) {
    if (r.pooled_p95_ms <= kKneeMs) {
      knee = std::max(knee, size(r));
    }
  }
  return knee;
}

// The CPU a session's page renders charge: that of the host it runs on.
inline CpuAccount* SessionCpu(FleetHost* fleet, size_t) {
  return fleet->host_cpu();
}
inline CpuAccount* SessionCpu(ClusterController* cluster, int64_t gid) {
  return cluster->host(cluster->host_of(gid))->host_cpu();
}

// One sweep point's open-loop web fleet.
struct OpenLoopWeb {
  int sessions = 0;
  int pages = 0;  // per session
  // Session i walks the suite from page 7 * (i / page_group), so sessions
  // in one group render the same pages. A cluster of H identical hosts
  // passes H: least-loaded placement deals session i to host i % H, and
  // every host then renders the same per-slot page mix.
  int page_group = 1;
  // Draw each page on the session's server at its click instant instead of
  // clicking. A click that lands while a migrating session's transport is
  // down is dropped like any input; a scheduled draw is not, so a run with
  // migration ends on the same screens as one without.
  bool scheduled_renders = false;
};

// Runs an open-loop web fleet on `host`, a FleetHost or a
// ClusterController, to quiescence. admit(i) admits session i, which must
// get id i. Session i then loads `pages` pages at i*kThink/n + p*kThink,
// on schedule whether or not its previous page has finished delivering, so
// overload shows as queueing rather than as a slower click rate. The
// controllers run until 5 s past the last click. `web` must outlive `host`,
// whose input callbacks refer to it.
template <typename Host, typename Admit>
void RunOpenLoopWeb(EventLoop* loop, Host* host, const WebWorkload& web,
                    const OpenLoopWeb& spec, Admit admit) {
  const int n = spec.sessions;
  for (int i = 0; i < n; ++i) {
    admit(i);
  }
  const int group = spec.page_group;
  auto page = [&web, group](int i, int p) {
    return static_cast<int32_t>((i / group * 7 + p) % web.page_count());
  };
  if (!spec.scheduled_renders) {
    for (int i = 0; i < n; ++i) {
      // The walk advances per click that arrives.
      host->SetInputCallback(
          i, [host, &web, page, i, next = 0](Point) mutable {
            web.RenderPage(host->window_server(i), page(i, next++),
                           SessionCpu(host, i));
          });
    }
  }
  const SimTime stagger = kThink / n;
  SimTime last_click = 0;
  for (int i = 0; i < n; ++i) {
    for (int p = 0; p < spec.pages; ++p) {
      const SimTime t = i * stagger + p * kThink;
      last_click = std::max(last_click, t);
      if (spec.scheduled_renders) {
        loop->ScheduleAt(t, [host, &web, page, i, p] {
          web.RenderPage(host->window_server(i), page(i, p),
                         SessionCpu(host, i));
        });
      } else {
        loop->ScheduleAt(t, [host, &web, i, p] {
          host->ClientClick(i, web.LinkPosition(p % web.page_count()));
        });
      }
    }
  }
  host->StartController(last_click + 5 * kSecond);
  loop->Run();
}

}  // namespace bench
}  // namespace thinc

#endif  // THINC_BENCH_WEB_FLEET_H_
