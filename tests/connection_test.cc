#include "src/net/connection.h"

#include <gtest/gtest.h>

#include <numeric>

#include "src/net/link.h"

namespace thinc {
namespace {

std::vector<uint8_t> Payload(size_t n, uint8_t start = 0) {
  std::vector<uint8_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

LinkParams FastLink() {
  return LinkParams{100'000'000, 200, 1 << 20, "test"};
}

TEST(ConnectionTest, DeliversBytesIntact) {
  EventLoop loop;
  Connection conn(&loop, FastLink());
  std::vector<uint8_t> received;
  conn.SetReceiver(Connection::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  std::vector<uint8_t> msg = Payload(5000);
  EXPECT_EQ(conn.Send(Connection::kServer, msg), msg.size());
  loop.Run();
  EXPECT_EQ(received, msg);
}

TEST(ConnectionTest, FullDuplex) {
  EventLoop loop;
  Connection conn(&loop, FastLink());
  std::vector<uint8_t> at_client, at_server;
  conn.SetReceiver(Connection::kClient, [&](std::span<const uint8_t> d) {
    at_client.insert(at_client.end(), d.begin(), d.end());
  });
  conn.SetReceiver(Connection::kServer, [&](std::span<const uint8_t> d) {
    at_server.insert(at_server.end(), d.begin(), d.end());
  });
  conn.Send(Connection::kServer, Payload(100, 1));
  conn.Send(Connection::kClient, Payload(50, 7));
  loop.Run();
  EXPECT_EQ(at_client, Payload(100, 1));
  EXPECT_EQ(at_server, Payload(50, 7));
}

TEST(ConnectionTest, InOrderDelivery) {
  EventLoop loop;
  Connection conn(&loop, FastLink());
  std::vector<uint8_t> received;
  conn.SetReceiver(Connection::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> chunk(100, static_cast<uint8_t>(i));
    conn.Send(Connection::kServer, chunk);
  }
  loop.Run();
  ASSERT_EQ(received.size(), 2000u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i) * 100], i);
  }
}

TEST(ConnectionTest, SmallMessageLatencyIsHalfRtt) {
  EventLoop loop;
  LinkParams link{100'000'000, 66'000, 1 << 20, "wan"};
  Connection conn(&loop, link);
  SimTime arrival = -1;
  conn.SetReceiver(Connection::kClient,
                   [&](std::span<const uint8_t>) { arrival = loop.now(); });
  conn.Send(Connection::kServer, Payload(100));
  loop.Run();
  // Serialization of 100B at 100 Mbps is ~8 us; propagation 33 ms.
  EXPECT_GE(arrival, 33'000);
  EXPECT_LE(arrival, 33'100);
}

TEST(ConnectionTest, BandwidthLimitsThroughput) {
  EventLoop loop;
  LinkParams link{8'000'000, 200, 1 << 20, "slow"};  // 1 MB/s
  Connection conn(&loop, link, /*send_buffer_bytes=*/1 << 20);
  conn.SetReceiver(Connection::kClient, [](std::span<const uint8_t>) {});
  conn.Send(Connection::kServer, Payload(500'000));
  loop.Run();
  // 500 KB at 1 MB/s = ~0.5 s.
  EXPECT_NEAR(static_cast<double>(conn.LastDeliveryTo(Connection::kClient)),
              500'000.0, 30'000.0);
}

TEST(ConnectionTest, TcpWindowLimitsThroughput) {
  // 256 KB window and 200 ms RTT cap throughput at ~1.28 MB/s even on a
  // 100 Mbps pipe — the Korea PlanetLab effect (Section 8.3).
  EventLoop loop;
  LinkParams link{100'000'000, 200'000, 256 << 10, "kr"};
  Connection conn(&loop, link, /*send_buffer_bytes=*/4 << 20);
  conn.SetReceiver(Connection::kClient, [](std::span<const uint8_t>) {});
  conn.Send(Connection::kServer, Payload(2 << 20));
  loop.Run();
  double secs = static_cast<double>(conn.LastDeliveryTo(Connection::kClient)) /
                kSecond;
  double mbytes_per_s = (2.0 * (1 << 20)) / 1e6 / secs;
  EXPECT_LT(mbytes_per_s, 1.5);
  EXPECT_GT(mbytes_per_s, 0.9);
}

TEST(ConnectionTest, MaxThroughputFormulaMatchesWindowCap) {
  LinkParams link{100'000'000, 149'000, 256 << 10, "kr"};
  double cap = link.MaxThroughputBytesPerSec();
  EXPECT_NEAR(cap, (256 << 10) / 0.149, 1000.0);
}

TEST(ConnectionTest, SendBufferBoundsAcceptedBytes) {
  EventLoop loop;
  Connection conn(&loop, FastLink(), /*send_buffer_bytes=*/1000);
  std::vector<uint8_t> big = Payload(5000);
  size_t accepted = conn.Send(Connection::kServer, big);
  EXPECT_EQ(accepted, 1000u);
  EXPECT_EQ(conn.FreeSpace(Connection::kServer), 0u);
}

TEST(ConnectionTest, WritableCallbackFiresWhenDraining) {
  EventLoop loop;
  Connection conn(&loop, FastLink(), /*send_buffer_bytes=*/1000);
  conn.SetReceiver(Connection::kClient, [](std::span<const uint8_t>) {});
  int writable_calls = 0;
  conn.SetWritable(Connection::kServer, [&] { ++writable_calls; });
  conn.Send(Connection::kServer, Payload(1000));
  loop.Run();
  EXPECT_GT(writable_calls, 0);
  EXPECT_EQ(conn.FreeSpace(Connection::kServer), 1000u);
}

TEST(ConnectionTest, NonBlockingSendReturnsZeroWhenFull) {
  EventLoop loop;
  Connection conn(&loop, FastLink(), /*send_buffer_bytes=*/100);
  conn.Send(Connection::kServer, Payload(100));
  EXPECT_EQ(conn.Send(Connection::kServer, Payload(10)), 0u);
}

TEST(ConnectionTest, TraceRecordsDeliveries) {
  EventLoop loop;
  Connection conn(&loop, FastLink());
  conn.SetReceiver(Connection::kClient, [](std::span<const uint8_t>) {});
  conn.Send(Connection::kServer, Payload(3000));
  loop.Run();
  const std::vector<TraceRecord>& trace = conn.TraceTo(Connection::kClient);
  ASSERT_FALSE(trace.empty());
  int64_t total = 0;
  SimTime prev = 0;
  for (const TraceRecord& rec : trace) {
    EXPECT_GE(rec.time, prev);
    prev = rec.time;
    total += rec.bytes;
  }
  EXPECT_EQ(total, 3000);
  EXPECT_EQ(conn.BytesDeliveredTo(Connection::kClient), 3000);
}

TEST(ConnectionTest, IdleReflectsInFlightData) {
  EventLoop loop;
  Connection conn(&loop, FastLink());
  conn.SetReceiver(Connection::kClient, [](std::span<const uint8_t>) {});
  EXPECT_TRUE(conn.Idle());
  conn.Send(Connection::kServer, Payload(100));
  EXPECT_FALSE(conn.Idle());
  loop.Run();
  EXPECT_TRUE(conn.Idle());
}

TEST(ConnectionTest, SubMssWindowHoldsWindowOverRttThroughput) {
  // A 512-byte window must serialize sub-MSS segments instead of borrowing
  // a full MSS beyond the window: throughput ~= window/RTT even below kMss.
  EventLoop loop;
  LinkParams link{100'000'000, 10'000, 512, "tiny-window"};
  Connection conn(&loop, link, /*send_buffer_bytes=*/1 << 20);
  int64_t received = 0;
  conn.SetReceiver(Connection::kClient,
                   [&](std::span<const uint8_t> d) { received += d.size(); });
  conn.Send(Connection::kServer, Payload(10'240));
  loop.Run();
  EXPECT_EQ(received, 10'240);
  // 10240 B at 512 B per 10 ms RTT = ~200 ms (one RTT of slack allowed).
  double secs =
      static_cast<double>(conn.LastDeliveryTo(Connection::kClient)) / kSecond;
  EXPECT_NEAR(secs, 0.2, 0.02);
}

TEST(ConnectionTest, ZeroRttDeliversEverything) {
  EventLoop loop;
  LinkParams link{100'000'000, 0, 2048, "zero-rtt"};
  Connection conn(&loop, link, /*send_buffer_bytes=*/1 << 20);
  std::vector<uint8_t> received;
  conn.SetReceiver(Connection::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  std::vector<uint8_t> msg = Payload(50'000);
  conn.Send(Connection::kServer, msg);
  loop.Run();  // must terminate (no infinite same-time pump loop)
  EXPECT_EQ(received, msg);
}

TEST(ConnectionTest, FaultPlanDegradeChangesThroughput) {
  EventLoop loop;
  Connection conn(&loop, FastLink(), /*send_buffer_bytes=*/4 << 20);
  conn.SetReceiver(Connection::kClient, [](std::span<const uint8_t>) {});
  // Halfway through a 2 MB transfer, drop from 100 Mbps to 8 Mbps.
  FaultPlan plan;
  plan.Degrade(80 * kMillisecond, 8'000'000);
  conn.ScheduleFaults(plan);
  conn.Send(Connection::kServer, Payload(2 << 20));
  loop.Run();
  // ~1 MB fast (~84 ms) + ~1 MB at 1 MB/s (~1.05 s): far slower than the
  // ~168 ms an undegraded link would take.
  SimTime done = conn.LastDeliveryTo(Connection::kClient);
  EXPECT_GT(done, 800 * kMillisecond);
  EXPECT_LT(done, 1'500 * kMillisecond);
}

TEST(ConnectionTest, OutageFreezesDeliveryThenReplaysInOrder) {
  EventLoop loop;
  Connection conn(&loop, FastLink(), /*send_buffer_bytes=*/4 << 20);
  std::vector<uint8_t> received;
  std::vector<SimTime> arrivals;
  conn.SetReceiver(Connection::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
    arrivals.push_back(loop.now());
  });
  const SimTime start = 10 * kMillisecond;
  const SimTime end = 60 * kMillisecond;
  FaultPlan plan;
  plan.Outage(start, end - start);
  conn.ScheduleFaults(plan);
  std::vector<uint8_t> msg = Payload(2 << 20);  // ~168 ms at 100 Mbps
  conn.Send(Connection::kServer, msg);
  loop.Run();
  EXPECT_EQ(received, msg);  // intact and in order despite the stall
  for (SimTime t : arrivals) {
    EXPECT_TRUE(t < start || t >= end) << "delivery inside the outage at " << t;
  }
  // The stall pushes completion past the no-fault finish time.
  EXPECT_GT(conn.LastDeliveryTo(Connection::kClient),
            168 * kMillisecond + (end - start) / 2);
}

TEST(ConnectionTest, ResetDropsInFlightAndNotifiesBothEndpoints) {
  EventLoop loop;
  Connection conn(&loop, FastLink(), /*send_buffer_bytes=*/4 << 20);
  int64_t received = 0;
  conn.SetReceiver(Connection::kClient,
                   [&](std::span<const uint8_t> d) { received += d.size(); });
  int server_closed = 0, client_closed = 0;
  conn.SetClosed(Connection::kServer, [&] { ++server_closed; });
  conn.SetClosed(Connection::kClient, [&] { ++client_closed; });
  FaultPlan plan;
  plan.Reset(5 * kMillisecond);
  conn.ScheduleFaults(plan);
  conn.Send(Connection::kServer, Payload(2 << 20));  // ~168 ms: dies mid-way
  loop.Run();
  EXPECT_TRUE(conn.closed());
  EXPECT_EQ(server_closed, 1);
  EXPECT_EQ(client_closed, 1);
  EXPECT_GT(received, 0);              // some bytes made it before the cut
  EXPECT_LT(received, 2 << 20);        // the rest died with the connection
  EXPECT_EQ(conn.Send(Connection::kServer, Payload(10)), 0u);  // dead for good
  EXPECT_EQ(conn.FreeSpace(Connection::kServer), 0u);
  EXPECT_TRUE(conn.Idle());
}

TEST(RelayTest, ForwardsBothDirections) {
  EventLoop loop;
  LinkParams leg{100'000'000, 35'000, 1 << 20, "leg"};
  Connection a(&loop, leg);  // server <-> relay
  Connection b(&loop, leg);  // relay <-> client
  Relay relay(&a, Connection::kClient, &b, Connection::kServer);
  std::vector<uint8_t> at_client, at_server;
  b.SetReceiver(Connection::kClient, [&](std::span<const uint8_t> d) {
    at_client.insert(at_client.end(), d.begin(), d.end());
  });
  a.SetReceiver(Connection::kServer, [&](std::span<const uint8_t> d) {
    at_server.insert(at_server.end(), d.begin(), d.end());
  });
  a.Send(Connection::kServer, Payload(2000, 3));
  b.Send(Connection::kClient, Payload(300, 9));
  loop.Run();
  EXPECT_EQ(at_client, Payload(2000, 3));
  EXPECT_EQ(at_server, Payload(300, 9));
}

TEST(RelayTest, AddsLatencyOfBothLegs) {
  EventLoop loop;
  LinkParams leg{100'000'000, 35'000, 1 << 20, "leg"};
  Connection a(&loop, leg);
  Connection b(&loop, leg);
  Relay relay(&a, Connection::kClient, &b, Connection::kServer);
  SimTime arrival = -1;
  b.SetReceiver(Connection::kClient,
                [&](std::span<const uint8_t>) { arrival = loop.now(); });
  a.Send(Connection::kServer, Payload(100));
  loop.Run();
  // Two legs of 17.5 ms each.
  EXPECT_GE(arrival, 35'000);
  EXPECT_LE(arrival, 36'000);
}

TEST(RelayTest, LargeTransferSurvivesBackpressure) {
  EventLoop loop;
  LinkParams fast{100'000'000, 1'000, 1 << 20, "fast"};
  LinkParams slow{8'000'000, 1'000, 1 << 20, "slow"};
  Connection a(&loop, fast);
  Connection b(&loop, slow);  // slower second leg forces relay buffering
  Relay relay(&a, Connection::kClient, &b, Connection::kServer);
  int64_t received = 0;
  b.SetReceiver(Connection::kClient,
                [&](std::span<const uint8_t> d) { received += d.size(); });
  // Push 1 MB through in bursts.
  std::vector<uint8_t> chunk(64 << 10, 0x11);
  int sent_chunks = 0;
  std::function<void()> feed = [&] {
    if (sent_chunks < 16 && a.FreeSpace(Connection::kServer) >= chunk.size()) {
      a.Send(Connection::kServer, chunk);
      ++sent_chunks;
    }
    if (sent_chunks < 16) {
      loop.Schedule(5'000, feed);
    }
  };
  feed();
  loop.Run();
  EXPECT_EQ(received, 16 * (64 << 10));
}

TEST(LinkTest, PresetsMatchPaperParameters) {
  EXPECT_EQ(LanDesktopLink().bandwidth_bps, 100'000'000);
  EXPECT_EQ(WanDesktopLink().rtt, 66'000);
  EXPECT_EQ(Pda80211gLink().bandwidth_bps, 24'000'000);
  EXPECT_EQ(LanDesktopLink().tcp_window_bytes, 1 << 20);
}

TEST(LinkTest, RemoteSitesMatchTable2) {
  const std::vector<RemoteSite>& sites = RemoteSites();
  ASSERT_EQ(sites.size(), 11u);
  EXPECT_EQ(sites.front().name, "NY");
  EXPECT_EQ(sites.back().name, "KR");
  for (const RemoteSite& site : sites) {
    // PlanetLab nodes were window-capped at 256 KB (Section 8.1).
    EXPECT_EQ(site.link.tcp_window_bytes, site.planetlab ? (256 << 10) : (1 << 20))
        << site.name;
  }
}

TEST(LinkTest, RttGrowsWithDistance) {
  const std::vector<RemoteSite>& sites = RemoteSites();
  SimTime ny_rtt = 0, kr_rtt = 0;
  for (const RemoteSite& s : sites) {
    if (s.name == "NY") {
      ny_rtt = s.link.rtt;
    }
    if (s.name == "KR") {
      kr_rtt = s.link.rtt;
    }
  }
  EXPECT_LT(ny_rtt, 5 * kMillisecond);
  EXPECT_GT(kr_rtt, 100 * kMillisecond);
}

TEST(LinkTest, KoreaCannotSustainVideoBitrate) {
  // The Figure 7 effect: KR's window/RTT cap sits below the ~24 Mbps the
  // video needs, while FI (1 MB window) clears it.
  const RemoteSite* kr = nullptr;
  const RemoteSite* fi = nullptr;
  for (const RemoteSite& s : RemoteSites()) {
    if (s.name == "KR") {
      kr = &s;
    }
    if (s.name == "FI") {
      fi = &s;
    }
  }
  ASSERT_NE(kr, nullptr);
  ASSERT_NE(fi, nullptr);
  EXPECT_LT(kr->link.MaxThroughputBytesPerSec() * 8 / 1e6, 24.0);
  EXPECT_GT(fi->link.MaxThroughputBytesPerSec() * 8 / 1e6, 24.0);
}

}  // namespace
}  // namespace thinc
