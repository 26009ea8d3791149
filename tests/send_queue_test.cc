#include "src/baselines/send_queue.h"

#include <gtest/gtest.h>

#include <utility>

namespace thinc {
namespace {

std::vector<uint8_t> Frame(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

struct Harness {
  Harness() : conn(&loop, LinkParams{100'000'000, 200, 1 << 20, "t"}, 4096),
              queue(&loop, &conn, Connection::kServer) {
    conn.SetReceiver(Connection::kClient, [this](std::span<const uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
      last_arrival = loop.now();
    });
  }
  EventLoop loop;
  Connection conn;
  SendQueue queue;
  std::vector<uint8_t> received;
  SimTime last_arrival = 0;
};

TEST(SendQueueTest, DeliversFramesInOrder) {
  Harness h;
  h.queue.Enqueue(Frame(100, 1));
  h.queue.Enqueue(Frame(100, 2));
  h.loop.Run();
  ASSERT_EQ(h.received.size(), 200u);
  EXPECT_EQ(h.received[50], 1);
  EXPECT_EQ(h.received[150], 2);
}

TEST(SendQueueTest, ReleaseTimeGatesTransmission) {
  Harness h;
  h.queue.Enqueue(Frame(50, 7), /*release=*/50 * kMillisecond);
  h.loop.Run();
  // Arrival strictly after the release (plus wire time).
  EXPECT_GE(h.last_arrival, 50 * kMillisecond);
}

TEST(SendQueueTest, LaterFrameWaitsForEarlierRelease) {
  // FIFO even when the second frame is releasable sooner.
  Harness h;
  h.queue.Enqueue(Frame(50, 1), 40 * kMillisecond);
  h.queue.Enqueue(Frame(50, 2), 0);
  h.loop.Run();
  ASSERT_EQ(h.received.size(), 100u);
  EXPECT_EQ(h.received[0], 1);
  EXPECT_EQ(h.received[99], 2);
  EXPECT_GE(h.last_arrival, 40 * kMillisecond);
}

TEST(SendQueueTest, SameKeyUnstartedFrameRejected) {
  Harness h;
  EXPECT_TRUE(h.queue.Enqueue(Frame(100, 1), 10 * kMillisecond, /*key=*/5));
  // Still waiting on its release: a same-key frame is a drop.
  EXPECT_FALSE(h.queue.Enqueue(Frame(100, 2), 0, /*key=*/5));
  h.loop.Run();
  ASSERT_EQ(h.received.size(), 100u);
  EXPECT_EQ(h.received[0], 1);  // the original survived
}

TEST(SendQueueTest, SameKeyAcceptedAfterPredecessorStarts) {
  Harness h;
  h.queue.Enqueue(Frame(100, 1), 0, /*key=*/5);
  h.loop.Run();  // fully transmitted
  EXPECT_TRUE(h.queue.Enqueue(Frame(100, 2), 0, /*key=*/5));
  h.loop.Run();
  EXPECT_EQ(h.received.size(), 200u);
}

TEST(SendQueueTest, DifferentKeysIndependent) {
  Harness h;
  EXPECT_TRUE(h.queue.Enqueue(Frame(50, 1), 10 * kMillisecond, 1));
  EXPECT_TRUE(h.queue.Enqueue(Frame(50, 2), 10 * kMillisecond, 2));
  h.loop.Run();
  EXPECT_EQ(h.received.size(), 100u);
}

// Asks WouldReject, then Enqueue, about one frame with `key`; the two must
// agree. Returns {WouldReject's answer, whether Enqueue rejected}.
std::pair<bool, bool> Verdicts(SendQueue* queue, int64_t key) {
  bool would_reject = queue->WouldReject(key);
  bool rejected = !queue->Enqueue(Frame(100, 9), 0, key);
  return {would_reject, rejected};
}

TEST(SendQueueTest, WouldRejectMatchesEnqueueForUnstartedSameKey) {
  Harness h;
  h.queue.Enqueue(Frame(100, 1), 10 * kMillisecond, /*key=*/5);
  EXPECT_EQ(Verdicts(&h.queue, 5), std::pair(true, true));
}

TEST(SendQueueTest, WouldRejectMatchesEnqueueForStartedSameKey) {
  Harness h;
  h.queue.Enqueue(Frame(64 << 10, 1), 0, /*key=*/5);
  h.loop.Step();  // the first pump fills the 4 KB socket buffer
  ASSERT_GT(h.queue.queued_bytes(), 0u);
  ASSERT_LT(h.queue.queued_bytes(), 64u << 10);
  EXPECT_EQ(Verdicts(&h.queue, 5), std::pair(false, false));
}

TEST(SendQueueTest, WouldRejectMatchesEnqueueForDifferentKey) {
  Harness h;
  h.queue.Enqueue(Frame(100, 1), 10 * kMillisecond, /*key=*/5);
  EXPECT_EQ(Verdicts(&h.queue, 6), std::pair(false, false));
}

TEST(SendQueueTest, WouldRejectMatchesEnqueueForUnkeyedFrames) {
  Harness h;
  h.queue.Enqueue(Frame(100, 1), 10 * kMillisecond);
  EXPECT_EQ(Verdicts(&h.queue, -1), std::pair(false, false));
  EXPECT_EQ(Verdicts(&h.queue, -1), std::pair(false, false));
}

TEST(SendQueueTest, SurvivesSocketBackpressure) {
  // Frame larger than the 4 KB socket buffer: the pump must resume via the
  // writable callback until the whole frame is through.
  Harness h;
  h.queue.Enqueue(Frame(64 << 10, 9));
  h.loop.Run();
  EXPECT_EQ(h.received.size(), 64u << 10);
  EXPECT_TRUE(h.queue.Idle());
}

TEST(SendQueueTest, QueuedBytesAccounting) {
  Harness h;
  EXPECT_EQ(h.queue.queued_bytes(), 0u);
  h.queue.Enqueue(Frame(1000, 1), 10 * kMillisecond);
  EXPECT_EQ(h.queue.queued_bytes(), 1000u);
  h.loop.Run();
  EXPECT_EQ(h.queue.queued_bytes(), 0u);
  EXPECT_TRUE(h.queue.Idle());
}

}  // namespace
}  // namespace thinc
