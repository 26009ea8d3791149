// Transport conformance suite: every behavioral contract of the Transport
// interface (src/net/transport.h), run against ALL implementations — the
// simulated TCP wire, the shared-memory loopback, and the lossy WAN path. A
// new transport joins the codebase by passing this suite, not by
// re-deriving the semantics.
//
// Also proves the cross-transport determinism claim: the delivered-byte
// hash is segmentation-independent, so the same sent stream hashes equal on
// the wire (MSS segments), the loopback (whole-buffer handoffs), and the
// lossy path (retransmitted, jittered segments re-ordered back by the
// delivery floor) — and each stream is byte-identical at any host core
// count K.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "src/baselines/thinc_system.h"
#include "src/net/connection.h"
#include "src/net/loopback.h"
#include "src/net/lossy.h"
#include "src/util/prng.h"

namespace thinc {
namespace {

constexpr size_t kSendBuf = 64 << 10;

std::vector<uint8_t> Payload(size_t n, uint8_t start = 0) {
  std::vector<uint8_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

LinkParams FastLink() {
  return LinkParams{100'000'000, 200, 1 << 20, "test"};
}

// Heavy-handed loss settings for the conformance runs: every contract must
// hold even when the path spends real time in the Bad state.
LossyOptions ConformanceLoss() {
  LossyOptions loss;
  loss.p_good_to_bad = 0.05;
  loss.loss_bad = 0.4;
  loss.seed = 7;
  return loss;
}

class TransportConformanceTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  // Builds the transport under test over `loop` with a kSendBuf-byte send
  // budget, so backpressure tests see the same capacity on every kind.
  std::unique_ptr<Transport> Make(EventLoop* loop, int cpu_cores = 1) {
    if (GetParam() == TransportKind::kWire) {
      return std::make_unique<Connection>(loop, FastLink(), kSendBuf);
    }
    if (GetParam() == TransportKind::kLossy) {
      return std::make_unique<LossyTransport>(loop, FastLink(),
                                              ConformanceLoss(), kSendBuf);
    }
    cpus_.push_back(std::make_unique<CpuAccount>(loop, 2.0, cpu_cores));
    LoopbackOptions options;
    options.pending_budget_bytes = kSendBuf;
    return std::make_unique<LoopbackTransport>(loop, cpus_.back().get(), options);
  }

 private:
  // Loopback host CPUs; must outlive the transports built on them.
  std::vector<std::unique_ptr<CpuAccount>> cpus_;
};

TEST_P(TransportConformanceTest, DeliversBytesIntactAndInOrder) {
  EventLoop loop;
  auto t = Make(&loop);
  std::vector<uint8_t> received;
  t->SetReceiver(Transport::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  std::vector<uint8_t> expected;
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> chunk(137 + i, static_cast<uint8_t>(i));
    EXPECT_EQ(t->Send(Transport::kServer, chunk), chunk.size());
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  loop.Run();
  EXPECT_EQ(received, expected);
  EXPECT_EQ(t->BytesDeliveredTo(Transport::kClient),
            static_cast<int64_t>(expected.size()));
  EXPECT_TRUE(t->Idle());
}

TEST_P(TransportConformanceTest, ByteBufferSendDeliversIntact) {
  EventLoop loop;
  auto t = Make(&loop);
  std::vector<uint8_t> received;
  t->SetReceiver(Transport::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  std::vector<uint8_t> msg = Payload(5000);
  ByteBuffer buf = ByteBuffer::Copy(msg);
  EXPECT_EQ(t->Send(Transport::kServer, buf), msg.size());
  loop.Run();
  EXPECT_EQ(received, msg);
}

TEST_P(TransportConformanceTest, FullDuplexKeepsDirectionsSeparate) {
  EventLoop loop;
  auto t = Make(&loop);
  std::vector<uint8_t> at_client, at_server;
  t->SetReceiver(Transport::kClient, [&](std::span<const uint8_t> d) {
    at_client.insert(at_client.end(), d.begin(), d.end());
  });
  t->SetReceiver(Transport::kServer, [&](std::span<const uint8_t> d) {
    at_server.insert(at_server.end(), d.begin(), d.end());
  });
  t->Send(Transport::kServer, Payload(400, 1));
  t->Send(Transport::kClient, Payload(60, 9));
  loop.Run();
  EXPECT_EQ(at_client, Payload(400, 1));
  EXPECT_EQ(at_server, Payload(60, 9));
  EXPECT_EQ(t->BytesDeliveredTo(Transport::kClient), 400);
  EXPECT_EQ(t->BytesDeliveredTo(Transport::kServer), 60);
}

TEST_P(TransportConformanceTest, BackpressureHonorsFreeSpaceAndWritableFires) {
  EventLoop loop;
  auto t = Make(&loop);
  EXPECT_EQ(t->SendBufferCapacity(), kSendBuf);
  std::vector<uint8_t> received;
  t->SetReceiver(Transport::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  // Offer 4x the send budget up front; only FreeSpace() may be taken.
  Prng rng(3);
  std::vector<uint8_t> stream(4 * kSendBuf);
  for (uint8_t& b : stream) {
    b = static_cast<uint8_t>(rng.Next());
  }
  size_t offset = 0;
  bool pressured = false;
  int writable_fires = 0;
  std::function<void()> push = [&] {
    while (offset < stream.size()) {
      std::span<const uint8_t> rest = std::span(stream).subspan(offset);
      size_t free = t->FreeSpace(Transport::kServer);
      size_t took = t->Send(Transport::kServer, rest);
      EXPECT_LE(took, free);
      offset += took;
      if (took < rest.size()) {
        pressured = true;
        return;  // resume from the writable callback
      }
    }
  };
  t->SetWritable(Transport::kServer, [&] {
    ++writable_fires;
    push();
  });
  push();
  EXPECT_TRUE(pressured);
  EXPECT_LE(offset, kSendBuf);
  loop.Run();
  EXPECT_GT(writable_fires, 0);
  EXPECT_EQ(received, stream);
}

TEST_P(TransportConformanceTest, OutageFreezesDeliveriesAndReplaysInOrder) {
  EventLoop loop;
  auto t = Make(&loop);
  std::vector<uint8_t> received;
  t->SetReceiver(Transport::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  std::vector<uint8_t> first = Payload(5000, 1);
  std::vector<uint8_t> second = Payload(3000, 101);
  EXPECT_EQ(t->Send(Transport::kServer, first), first.size());
  // Outage opens at t=0 — after the send was accepted, before anything can
  // be delivered — and a second send lands mid-outage.
  FaultPlan plan;
  plan.Outage(0, 200 * kMillisecond);
  t->ScheduleFaults(plan);
  Transport* raw = t.get();
  loop.Schedule(50 * kMillisecond, [raw, second] {
    EXPECT_EQ(raw->Send(Transport::kServer, second), second.size());
  });
  loop.RunUntil(150 * kMillisecond);
  EXPECT_TRUE(t->in_outage());
  EXPECT_EQ(t->BytesDeliveredTo(Transport::kClient), 0);
  EXPECT_TRUE(received.empty());
  loop.Run();
  EXPECT_FALSE(t->in_outage());
  std::vector<uint8_t> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(received, expected);
  EXPECT_TRUE(t->Idle());
}

TEST_P(TransportConformanceTest, ResetDropsEverythingAndClosesOnce) {
  EventLoop loop;
  auto t = Make(&loop);
  std::vector<uint8_t> received;
  t->SetReceiver(Transport::kClient, [&](std::span<const uint8_t> d) {
    received.insert(received.end(), d.begin(), d.end());
  });
  int closed_server = 0, closed_client = 0;
  t->SetClosed(Transport::kServer, [&] { ++closed_server; });
  t->SetClosed(Transport::kClient, [&] { ++closed_client; });
  EXPECT_EQ(t->Send(Transport::kServer, Payload(5000)), 5000u);
  t->Reset();
  EXPECT_TRUE(t->closed());
  // Closed, so nothing more is accepted — before OR after the loop runs.
  EXPECT_EQ(t->Send(Transport::kServer, Payload(100)), 0u);
  loop.Run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(t->BytesDeliveredTo(Transport::kClient), 0);
  EXPECT_EQ(closed_server, 1);
  EXPECT_EQ(closed_client, 1);
  EXPECT_EQ(t->Send(Transport::kServer, Payload(100)), 0u);
  EXPECT_TRUE(t->Idle()) << "a closed transport is permanently idle";
}

TEST_P(TransportConformanceTest, LedgerAccumulatesBytesHashAndTrace) {
  EventLoop loop;
  auto t = Make(&loop);
  t->SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
  EXPECT_EQ(t->Send(Transport::kServer, Payload(2000)), 2000u);
  loop.Run();
  const uint64_t hash_after_first = t->DeliveredHashTo(Transport::kClient);
  const size_t records_after_first = t->TraceTo(Transport::kClient).size();
  EXPECT_EQ(t->BytesDeliveredTo(Transport::kClient), 2000);
  EXPECT_GT(t->LastDeliveryTo(Transport::kClient), 0);
  EXPECT_GT(records_after_first, 0u);

  EXPECT_EQ(t->Send(Transport::kServer, Payload(500)), 500u);
  loop.Run();
  EXPECT_EQ(t->BytesDeliveredTo(Transport::kClient), 2500);
  EXPECT_NE(t->DeliveredHashTo(Transport::kClient), hash_after_first);
  EXPECT_GT(t->TraceTo(Transport::kClient).size(), records_after_first);
}

TEST_P(TransportConformanceTest, IdleReflectsPendingData) {
  EventLoop loop;
  auto t = Make(&loop);
  t->SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
  EXPECT_TRUE(t->Idle());
  EXPECT_EQ(t->Send(Transport::kServer, Payload(1000)), 1000u);
  EXPECT_FALSE(t->Idle());
  loop.Run();
  EXPECT_TRUE(t->Idle());
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformanceTest,
                         ::testing::Values(TransportKind::kWire,
                                           TransportKind::kLoopback,
                                           TransportKind::kLossy),
                         [](const ::testing::TestParamInfo<TransportKind>& info) {
                           switch (info.param) {
                             case TransportKind::kWire:
                               return "Wire";
                             case TransportKind::kLoopback:
                               return "Loopback";
                             case TransportKind::kLossy:
                               return "Lossy";
                           }
                           return "?";
                         });

// --- Cross-transport determinism ---------------------------------------------

struct StreamResult {
  uint64_t hash = 0;
  int64_t bytes = 0;
};

// Pushes a deterministic PRNG chunk stream through `t`, respecting
// backpressure, and returns the delivered fingerprint at the client.
StreamResult PushStream(EventLoop* loop, Transport* t, int chunk_count) {
  Prng rng(42);
  std::vector<std::vector<uint8_t>> chunks(static_cast<size_t>(chunk_count));
  for (auto& chunk : chunks) {
    chunk.resize(1 + rng.NextBelow(4000));
    for (uint8_t& b : chunk) {
      b = static_cast<uint8_t>(rng.Next());
    }
  }
  size_t next = 0, offset = 0;
  std::function<void()> push = [&] {
    while (next < chunks.size()) {
      std::span<const uint8_t> rest = std::span(chunks[next]).subspan(offset);
      size_t took = t->Send(Transport::kServer, rest);
      offset += took;
      if (offset == chunks[next].size()) {
        ++next;
        offset = 0;
      }
      if (took < rest.size()) {
        return;
      }
    }
  };
  t->SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
  t->SetWritable(Transport::kServer, push);
  push();
  loop->Run();
  return {t->DeliveredHashTo(Transport::kClient),
          t->BytesDeliveredTo(Transport::kClient)};
}

TEST(CrossTransportDeterminismTest, SameStreamHashesEqualOnWireAndLoopback) {
  // The wire chops the stream into MSS segments with serialization delays;
  // the loopback hands whole buffers off after a CPU charge. The delivered
  // BYTE STREAM — and therefore the FNV fingerprint — must match exactly.
  StreamResult wire, loopback;
  {
    EventLoop loop;
    Connection conn(&loop, FastLink(), kSendBuf);
    wire = PushStream(&loop, &conn, 64);
  }
  {
    EventLoop loop;
    CpuAccount cpu(&loop, 2.0);
    LoopbackOptions options;
    options.pending_budget_bytes = kSendBuf;
    LoopbackTransport lb(&loop, &cpu, options);
    loopback = PushStream(&loop, &lb, 64);
  }
  EXPECT_GT(wire.bytes, 0);
  EXPECT_EQ(wire.bytes, loopback.bytes);
  EXPECT_EQ(wire.hash, loopback.hash);
}

TEST(CrossTransportDeterminismTest, LoopbackStreamIdenticalAcrossCoreCounts) {
  // K-core hosts complete handoff charges out of order; the per-direction
  // delivery floor must put them back in send order at any K.
  StreamResult by_cores[3];
  const int core_counts[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    EventLoop loop;
    CpuAccount cpu(&loop, 2.0, core_counts[i]);
    LoopbackTransport lb(&loop, &cpu);
    by_cores[i] = PushStream(&loop, &lb, 64);
  }
  EXPECT_GT(by_cores[0].bytes, 0);
  EXPECT_EQ(by_cores[0].bytes, by_cores[1].bytes);
  EXPECT_EQ(by_cores[0].hash, by_cores[1].hash);
  EXPECT_EQ(by_cores[0].bytes, by_cores[2].bytes);
  EXPECT_EQ(by_cores[0].hash, by_cores[2].hash);
}

TEST(CrossTransportDeterminismTest, LossyStreamHashesEqualToCleanWire) {
  // Loss and jitter move virtual time, never bytes: the delivered stream —
  // and the FNV fingerprint — must match the clean wire's exactly, and a
  // second run with the same seed must reproduce it.
  StreamResult clean, lossy, lossy_again;
  {
    EventLoop loop;
    Connection conn(&loop, FastLink(), kSendBuf);
    clean = PushStream(&loop, &conn, 64);
  }
  for (StreamResult* r : {&lossy, &lossy_again}) {
    EventLoop loop;
    LossyTransport lt(&loop, FastLink(), ConformanceLoss(), kSendBuf);
    *r = PushStream(&loop, &lt, 64);
    EXPECT_GT(lt.segments_lost(), 0) << "loss settings must actually bite";
  }
  EXPECT_GT(clean.bytes, 0);
  EXPECT_EQ(clean.bytes, lossy.bytes);
  EXPECT_EQ(clean.hash, lossy.hash);
  EXPECT_EQ(lossy.hash, lossy_again.hash);
}

TEST(CrossTransportDeterminismTest, LossySeedChangesTimingNotBytes) {
  // Different loss seeds draw different loss/jitter sequences; the
  // delivered bytes must still be the identical stream.
  StreamResult a, b;
  SimTime last_a = 0, last_b = 0;
  {
    EventLoop loop;
    LossyOptions loss = ConformanceLoss();
    loss.seed = 101;
    LossyTransport lt(&loop, FastLink(), loss, kSendBuf);
    a = PushStream(&loop, &lt, 32);
    last_a = lt.LastDeliveryTo(Transport::kClient);
  }
  {
    EventLoop loop;
    LossyOptions loss = ConformanceLoss();
    loss.seed = 202;
    LossyTransport lt(&loop, FastLink(), loss, kSendBuf);
    b = PushStream(&loop, &lt, 32);
    last_b = lt.LastDeliveryTo(Transport::kClient);
  }
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_NE(last_a, last_b)
      << "distinct seeds should produce distinct delivery timing";
}

// Full-stack variant: an identical scripted session through ThincSystem
// must put the same bytes on the channel whether that channel is the wire
// or the loopback — the transport carries the protocol stream, it never
// shapes it. Paced draw windows keep each burst drained before the next
// render instant, so scheduler coalescing sees identical queues on both.
uint64_t RunScriptedSession(TransportKind kind, int cores,
                            int64_t* bytes_out = nullptr,
                            const LossyOptions& loss = {},
                            int64_t* lost_out = nullptr) {
  EventLoop loop;
  // A lossy path comes from a device profile: the desktop over `loss`.
  DeviceProfile lossy_desktop;
  lossy_desktop.lossy = true;
  lossy_desktop.loss = loss;
  std::optional<ThincSystem> built;
  if (kind == TransportKind::kLossy) {
    built.emplace(&loop, lossy_desktop, LanDesktopLink(), 128, 96,
                  ThincServerOptions{}, cores);
  } else {
    built.emplace(&loop, LanDesktopLink(), 128, 96, ThincServerOptions{},
                  cores, kind);
  }
  ThincSystem& sys = *built;
  WindowServer* ws = sys.window_server();
  Prng rng(11);
  for (int step = 0; step < 5; ++step) {
    ws->FillRect(kScreenDrawable, Rect{0, 0, 128, 96},
                 MakePixel(static_cast<uint8_t>(40 * step), 80, 120));
    std::vector<Pixel> noise(64 * 32);
    for (Pixel& p : noise) {
      p = static_cast<Pixel>(rng.Next()) | 0xFF000000;
    }
    ws->PutImage(kScreenDrawable, Rect{8 * step, 16, 64, 32}, noise);
    ws->ScrollUp(kScreenDrawable, Rect{0, 48, 128, 48}, 8, kWhite);
    loop.RunUntil((step + 1) * 100 * kMillisecond);
  }
  loop.Run();
  if (bytes_out != nullptr) {
    *bytes_out = sys.BytesToClient();
  }
  if (lost_out != nullptr) {
    *lost_out =
        static_cast<LossyTransport*>(sys.connection())->segments_lost();
  }
  return sys.connection()->DeliveredHashTo(Transport::kClient);
}

// Loss tuned so retransmit delays stay inside the 100 ms pacing window:
// every burst still drains before the next render instant, which is what
// keeps the server's coalescing decisions — and therefore the sent bytes —
// identical at any core count even on a lossy path.
LossyOptions PacedSessionLoss() {
  LossyOptions loss;
  loss.p_good_to_bad = 0.1;
  loss.loss_bad = 0.5;
  loss.jitter_max = 2 * kMillisecond;
  loss.rto = 10 * kMillisecond;
  loss.seed = 5;
  return loss;
}

TEST(CrossTransportDeterminismTest, ThincSessionBytesIdenticalAcrossTransports) {
  int64_t wire_bytes = 0, loopback_bytes = 0;
  const uint64_t wire = RunScriptedSession(TransportKind::kWire, 1, &wire_bytes);
  const uint64_t loopback =
      RunScriptedSession(TransportKind::kLoopback, 1, &loopback_bytes);
  EXPECT_GT(wire_bytes, 0);
  EXPECT_EQ(wire_bytes, loopback_bytes);
  EXPECT_EQ(wire, loopback);
}

TEST(CrossTransportDeterminismTest, ThincLoopbackSessionIdenticalAcrossCores) {
  const uint64_t k1 = RunScriptedSession(TransportKind::kLoopback, 1);
  const uint64_t k2 = RunScriptedSession(TransportKind::kLoopback, 2);
  EXPECT_EQ(k1, k2);
}

TEST(CrossTransportDeterminismTest, ThincLossySessionIdenticalAcrossCores) {
  // The delivered-hash identity must survive loss at K in {1, 2, 4}: cores
  // move encode timing, loss moves delivery timing, and neither may move
  // bytes.
  int64_t b1 = 0, b2 = 0, b4 = 0;
  int64_t lost1 = 0;
  const uint64_t k1 = RunScriptedSession(TransportKind::kLossy, 1, &b1,
                                         PacedSessionLoss(), &lost1);
  const uint64_t k2 =
      RunScriptedSession(TransportKind::kLossy, 2, &b2, PacedSessionLoss());
  const uint64_t k4 =
      RunScriptedSession(TransportKind::kLossy, 4, &b4, PacedSessionLoss());
  EXPECT_GT(b1, 0);
  EXPECT_GT(lost1, 0) << "loss settings must actually bite";
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(b1, b4);
  EXPECT_EQ(k1, k4);
}

TEST(CrossTransportDeterminismTest, ThincLossySessionMatchesCleanWireBytes) {
  // Same scripted session, clean wire vs lossy path, same everything else:
  // the protocol stream the client decodes must be byte-identical.
  int64_t clean_bytes = 0, lossy_bytes = 0;
  const uint64_t clean =
      RunScriptedSession(TransportKind::kWire, 1, &clean_bytes);
  const uint64_t lossy = RunScriptedSession(TransportKind::kLossy, 1,
                                            &lossy_bytes, PacedSessionLoss());
  EXPECT_GT(clean_bytes, 0);
  EXPECT_EQ(clean_bytes, lossy_bytes);
  EXPECT_EQ(clean, lossy);
}

// --- Loopback zero-copy ------------------------------------------------------

TEST(LoopbackTransportTest, ByteBufferHandoffAliasesSenderBytes) {
  EventLoop loop;
  CpuAccount cpu(&loop, 2.0);
  LoopbackTransport lb(&loop, &cpu);
  ByteBuffer payload = ByteBuffer::Copy(Payload(4096));
  const uint8_t* sender_bytes = payload.view().data();
  const uint8_t* receiver_bytes = nullptr;
  size_t receiver_size = 0;
  lb.SetBufferReceiver(Transport::kClient, [&](const ByteBuffer& d) {
    receiver_bytes = d.view().data();
    receiver_size = d.size();
  });
  EXPECT_EQ(lb.Send(Transport::kServer, payload), payload.size());
  loop.Run();
  EXPECT_EQ(receiver_size, payload.size());
  EXPECT_EQ(receiver_bytes, sender_bytes)
      << "the receiver must see the sender's bytes, not a copy";
  EXPECT_EQ(lb.HandoffsFrom(Transport::kServer), 1);
  EXPECT_EQ(lb.CopiedBytesFrom(Transport::kServer), 0);
  EXPECT_EQ(lb.SharedBytesFrom(Transport::kServer),
            static_cast<int64_t>(payload.size()));
}

TEST(LoopbackTransportTest, SpanSendsCopyAndAreCounted) {
  EventLoop loop;
  CpuAccount cpu(&loop, 2.0);
  LoopbackTransport lb(&loop, &cpu);
  lb.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
  std::vector<uint8_t> msg = Payload(1000);
  EXPECT_EQ(lb.Send(Transport::kServer, msg), msg.size());
  loop.Run();
  EXPECT_EQ(lb.CopiedBytesFrom(Transport::kServer), 1000);
  EXPECT_EQ(lb.SharedBytesFrom(Transport::kServer), 0);
}

TEST(LoopbackTransportTest, HandoffsChargeTheHostCpu) {
  EventLoop loop;
  CpuAccount cpu(&loop, 2.0);
  LoopbackOptions options;
  options.handoff_cpu_us = 10.0;
  LoopbackTransport lb(&loop, &cpu, options);
  lb.SetReceiver(Transport::kClient, [](std::span<const uint8_t>) {});
  for (int i = 0; i < 8; ++i) {
    lb.Send(Transport::kServer, Payload(100));
  }
  loop.Run();
  // 8 handoffs x 10 ref-us at 2.0x speed = 40 us of host CPU.
  EXPECT_EQ(cpu.total_busy(), 40);
  EXPECT_EQ(lb.HandoffsFrom(Transport::kServer), 8);
}

// --- Relay zero-copy ---------------------------------------------------------

TEST(RelayZeroCopyTest, ForwardedBytesAreNeverRecopied) {
  EventLoop loop;
  Connection upstream(&loop, FastLink());
  Connection downstream(&loop, FastLink());
  // Bytes arriving at upstream's client end are forwarded into downstream's
  // server end — the GoToMyPC hosted-intermediary topology.
  Relay relay(&upstream, Transport::kClient, &downstream, Transport::kServer);
  ByteBuffer payload = ByteBuffer::Copy(Payload(40 * 1024));
  const BufferStats before = BufferStats::Get();
  EXPECT_EQ(upstream.Send(Transport::kServer, payload), payload.size());
  loop.Run();
  EXPECT_EQ(downstream.BytesDeliveredTo(Transport::kClient),
            static_cast<int64_t>(payload.size()));
  const BufferStats after = BufferStats::Get();
  EXPECT_EQ(after.copied_bytes, before.copied_bytes)
      << "a relayed byte must never be memcpy'd: wire pops are slices, the "
         "backlog holds refs, and forwarding re-sends by reference";
  EXPECT_EQ(after.copies, before.copies);
}

// --- Reconnect kind switching -------------------------------------------------

// A session that starts on `start`, loses its transport mid-outage drawing,
// and reconnects onto `resume` — possibly a different transport kind (the
// cluster migrates sessions between remote wires and co-located loopbacks).
// Returns the delivered-byte hash of the POST-rebind transport; phases are
// quiesced so the resync and follow-on streams are content-determined.
uint64_t RunKindSwitchSession(TransportKind start, TransportKind resume,
                              int64_t* mismatched = nullptr) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 128, 96, ThincServerOptions{},
                  /*cpu_cores=*/1, start);
  WindowServer* ws = sys.window_server();
  ws->FillRect(kScreenDrawable, Rect{0, 0, 128, 96}, MakePixel(30, 60, 90));
  ws->DrawText(kScreenDrawable, Point{10, 10}, "phase one", kWhite);
  loop.Run();  // phase 1 fully delivered on the original kind
  sys.connection()->Reset();
  loop.Run();
  // Drawn while parked: the resync on the NEW kind must carry it.
  ws->FillRect(kScreenDrawable, Rect{20, 30, 60, 40}, MakePixel(200, 120, 10));
  Transport* fresh = sys.Reconnect(LanDesktopLink(), resume);
  EXPECT_EQ(fresh->kind(), resume);
  EXPECT_EQ(sys.transport_kind(), resume);
  loop.Run();  // renegotiation + resync delivered
  ws->ScrollUp(kScreenDrawable, Rect{0, 48, 128, 48}, 8, kWhite);
  loop.Run();
  EXPECT_TRUE(sys.server()->connected());
  EXPECT_TRUE(sys.client()->connected());
  sys.client()->framebuffer().Equals(ws->screen(), mismatched);
  return fresh->DeliveredHashTo(Transport::kClient);
}

TEST(ReconnectKindSwitchTest, WireSessionResumesOnLoopback) {
  int64_t mismatched = 1;
  RunKindSwitchSession(TransportKind::kWire, TransportKind::kLoopback,
                       &mismatched);
  EXPECT_EQ(mismatched, 0);
}

TEST(ReconnectKindSwitchTest, LoopbackSessionResumesOnWire) {
  int64_t mismatched = 1;
  RunKindSwitchSession(TransportKind::kLoopback, TransportKind::kWire,
                       &mismatched);
  EXPECT_EQ(mismatched, 0);
}

TEST(ReconnectKindSwitchTest, PostRebindStreamHashMatchesAcrossKinds) {
  // The same parked session resumed on a wire vs on a loopback must push a
  // byte-identical post-rebind stream — the rebound kind carries the resync
  // and the follow-on phase, it never shapes them.
  int64_t same_kind = 1, switched = 1;
  const uint64_t wire_resume = RunKindSwitchSession(
      TransportKind::kWire, TransportKind::kWire, &same_kind);
  const uint64_t loopback_resume = RunKindSwitchSession(
      TransportKind::kWire, TransportKind::kLoopback, &switched);
  EXPECT_EQ(same_kind, 0);
  EXPECT_EQ(switched, 0);
  EXPECT_EQ(wire_resume, loopback_resume);
}

}  // namespace
}  // namespace thinc
