// Golden gate for sessions that show the same pixels.
//
// Three session owners run workloads in which many sessions draw identical
// content: a 16-session fleet on one 1 Mbit/s NIC (overload ladder and
// adaptive codec on, so fidelity subsampling and delta attempts run), a
// 2-host cluster that live-migrates sessions, and a 3-viewer shared session
// (one viewer scaled to a smaller panel, one joining late).
// Each scenario folds every session's delivered-byte hash, delivered bytes
// and last-delivery time into one digest, and pins it together with the
// RAW encode charges and the number of fired events. The values were
// recorded from the simulator before host-side payload sharing existed:
// sharing may change host time and memory, never these. The fleet scenario
// also pins the registry values perfbench reads, since perfbench prints 0
// for a metric name that nothing registers.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/session_share.h"
#include "src/fleet/fleet.h"
#include "src/net/link.h"
#include "src/telemetry/metrics.h"
#include "src/util/buffer.h"
#include "src/workload/web.h"

namespace thinc {
namespace {

// FNV-1a over 64-bit values, byte by byte.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  void AddTransport(const Transport& t) {
    Add(t.DeliveredHashTo(Transport::kClient));
    Add(static_cast<uint64_t>(t.BytesDeliveredTo(Transport::kClient)));
    Add(static_cast<uint64_t>(t.LastDeliveryTo(Transport::kClient)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

struct Pinned {
  uint64_t digest = 0;
  int64_t bytes = 0;           // delivered to all clients
  int64_t encode_charges = 0;  // buffer.encode_charges
  uint64_t fired = 0;          // EventLoop::fired_count()
};

void ExpectPinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.digest, want.digest) << std::hex << "digest 0x" << got.digest;
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.encode_charges, want.encode_charges);
  EXPECT_EQ(got.fired, want.fired);
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Get().GetCounter(name)->value();
}

// Samples `level()` every 100 ms until `until`, keeping the maximum.
void TrackMax(EventLoop* loop, SimTime until, std::function<int()> level,
              int* max_level) {
  *max_level = std::max(*max_level, level());
  if (loop->now() + 100 * kMillisecond <= until) {
    loop->Schedule(100 * kMillisecond, [=] { TrackMax(loop, until, level, max_level); });
  }
}

TEST(RepeatedContentGolden, FleetOfSixteenOnOneNic) {
  constexpr int kSessions = 16;
  constexpr int kPages = 4;
  EventLoop loop;
  FleetOptions fo;
  fo.screen_width = 320;
  fo.screen_height = 240;
  fo.link = LinkParams{1'000'000, 20 * kMillisecond, 64 << 10, "golden-nic"};
  fo.cpu_speed = 16.0;
  fo.send_buffer_bytes = 32 << 10;
  fo.seed = 5;
  fo.ticks_to_degrade = 1;
  fo.server_options.adapt.enabled = true;
  FleetHost fleet(&loop, fo);
  WebWorkload web(fo.screen_width, fo.screen_height, /*seed=*/11);
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_EQ(fleet.AddSession({}), FleetHost::Admission::kAdmitted);
  }
  // Four sessions show each page at any time.
  for (int i = 0; i < kSessions; ++i) {
    for (int p = 0; p < kPages; ++p) {
      loop.ScheduleAt(i * 25 * kMillisecond + p * 600 * kMillisecond,
                      [&fleet, &web, i, p] {
                        web.RenderPage(fleet.window_server(i), (i + p) % kPages,
                                       fleet.host_cpu());
                      });
    }
  }
  const SimTime until = 4 * kSecond;
  fleet.StartController(until);
  int max_level = 0;
  TrackMax(&loop, until,
           [&fleet] {
             int level = 0;
             for (size_t i = 0; i < fleet.session_count(); ++i) {
               level = std::max(level, fleet.degradation_level(i));
             }
             return level;
           },
           &max_level);
  MetricsRegistry::Get().ResetAll();
  BufferStats::Get().Reset();
  loop.Run();

  // The scenario must reach the rungs that rewrite payloads after insert.
  EXPECT_GE(max_level, 3) << "fidelity subsampling never engaged";
  EXPECT_GT(CounterValue("codec.delta_hits") + CounterValue("codec.delta_fallbacks"), 0)
      << "no delta attempt ran";
  // The registry names perfbench reports, read as perfbench reads them
  // (through Snapshot()); perfbench prints 0 for a name nothing registered.
  const std::map<std::string, double> want_metrics = {
      {"net.segments", 390},
      {"net.delivered_bytes", 548987},
      {"net.nic.parks", 389},
      {"sched.inserted", 928},
      {"queue.evicted_commands", 181},
      {"fleet.controller_ticks", 40},
      {"fleet.degradations", 64},
      {"codec.delta_hits", 0},
      {"codec.delta_fallbacks", 13},
      {"fleet.degrade_level.max", 4},
      {"net.nic.wait_us.count", 389},
      {"net.nic.wait_us.p95", 198560},
  };
  std::map<std::string, double> got_metrics;
  for (const MetricsRegistry::Sample& s : MetricsRegistry::Get().Snapshot()) {
    if (want_metrics.contains(s.name)) {
      got_metrics[s.name] = s.value;
    }
  }
  EXPECT_EQ(got_metrics, want_metrics);
  Pinned got;
  Digest digest;
  for (size_t i = 0; i < fleet.session_count(); ++i) {
    digest.AddTransport(*fleet.transport(i));
    got.bytes += fleet.transport(i)->BytesDeliveredTo(Transport::kClient);
  }
  got.digest = digest.value();
  got.encode_charges = BufferStats::Get().encode_charges;
  got.fired = loop.fired_count();
  ExpectPinned(got, Pinned{0x7cc142f86a37913cull, 548987, 58, 7479});
}

TEST(RepeatedContentGolden, TwoHostClusterWithLiveMigration) {
  constexpr int kSessions = 6;
  EventLoop loop;
  ClusterOptions co;
  co.hosts = 2;
  co.host.screen_width = 160;
  co.host.screen_height = 120;
  co.host.link = LinkParams{200'000, 20 * kMillisecond, 64 << 10, "golden-nic"};
  co.host.cpu_speed = 16.0;
  co.host.seed = 11;
  co.host.degradation_enabled = false;
  co.host.overload_lag = 300 * kMillisecond;
  co.control_interval = 50 * kMillisecond;
  co.ticks_to_migrate = 2;
  co.session_cooldown = 500 * kMillisecond;
  ClusterController cluster(&loop, co);
  WebWorkload web(160, 120, /*seed=*/11);
  // Every session starts on host 0; pairs of sessions show the same page.
  for (int i = 0; i < kSessions; ++i) {
    ASSERT_EQ(cluster.AdmitOnHost(0, {}), i);
  }
  for (int64_t gid = 0; gid < kSessions; ++gid) {
    for (int page = 0; page < 5; ++page) {
      loop.ScheduleAt(gid * 100 * kMillisecond + page * 800 * kMillisecond,
                      [&cluster, &web, gid, page] {
                        web.RenderPage(
                            cluster.window_server(gid),
                            static_cast<int32_t>((gid % 3 + page) % 5),
                            cluster.host(cluster.host_of(gid))->host_cpu());
                      });
    }
  }
  cluster.StartController(6 * kSecond);
  BufferStats::Get().Reset();
  loop.Run();

  ASSERT_GE(cluster.migrations_completed(), 1) << "no live migration ran";
  Pinned got;
  Digest digest;
  for (int64_t gid = 0; gid < kSessions; ++gid) {
    EXPECT_EQ(cluster.MismatchedPixels(gid), 0u) << "gid " << gid;
    digest.AddTransport(*cluster.transport(gid));
    digest.Add(cluster.host_of(gid));
    digest.Add(cluster.ClientFramebufferHash(gid));
    got.bytes += cluster.BytesDeliveredToClient(gid);
  }
  digest.Add(static_cast<uint64_t>(cluster.migrations_completed()));
  got.digest = digest.value();
  got.encode_charges = BufferStats::Get().encode_charges;
  got.fired = loop.fired_count();
  ExpectPinned(got, Pinned{0x3af5286bbc82ef1full, 93437, 19, 882});
}

TEST(RepeatedContentGolden, SharedSessionWithThreeViewers) {
  EventLoop loop;
  SharedSessionHost host(&loop, 320, 240);
  host.AddViewer(LanDesktopLink());
  // A co-located viewer on a quarter-size panel: every update is resampled.
  host.AddLocalViewer()->client()->RequestViewport(160, 120);
  WebWorkload web(320, 240, /*seed=*/4);
  for (int page = 0; page < 6; ++page) {
    loop.ScheduleAt(page * 700 * kMillisecond, [&host, &web, page] {
      web.RenderPage(host.window_server(), page, host.host_cpu());
    });
  }
  // A late joiner catches up through a full refresh mid-session.
  loop.ScheduleAt(1900 * kMillisecond,
                  [&host] { host.AddViewer(WanDesktopLink()); });
  BufferStats::Get().Reset();
  loop.Run();

  Pinned got;
  Digest digest;
  for (size_t i = 0; i < host.viewer_count(); ++i) {
    const Transport& conn = *host.viewer(i)->transport();
    if (i != 1) {
      int64_t diff = 0;
      EXPECT_TRUE(host.window_server()->screen().Equals(
          host.viewer(i)->client()->framebuffer(), &diff))
          << "viewer " << i << ": " << diff;
    }
    digest.AddTransport(conn);
    got.bytes += conn.BytesDeliveredTo(Transport::kClient);
  }
  got.digest = digest.value();
  got.encode_charges = BufferStats::Get().encode_charges;
  got.fired = loop.fired_count();
  ExpectPinned(got, Pinned{0x34389adcd75b4595ull, 223730, 63, 2574});
}

}  // namespace
}  // namespace thinc
