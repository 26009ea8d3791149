// Client robustness: a THINC client is a long-lived appliance that must
// survive anything the network hands it — truncated frames, corrupted
// payloads, unknown message types, wrong-size video planes — by dropping the
// bad frame, never by crashing or corrupting unrelated state.
#include <gtest/gtest.h>

#include "src/baselines/thinc_system.h"
#include "src/core/thinc_client.h"
#include "src/util/prng.h"

namespace thinc {
namespace {

// A harness that injects raw bytes into a client as if they arrived from
// the network (encryption off so bytes are interpreted directly).
struct ClientHarness {
  ClientHarness()
      : cpu(&loop, 1.0), conn(&loop, LanDesktopLink()),
        client(&loop, &conn, &cpu, 128, 96, MakeOptions()) {}

  static ThincClientOptions MakeOptions() {
    ThincClientOptions o;
    o.encrypt = false;
    return o;
  }

  void Inject(std::span<const uint8_t> bytes) {
    conn.Send(Connection::kServer, bytes);
    loop.Run();
  }

  EventLoop loop;
  CpuAccount cpu;
  Connection conn;
  ThincClient client;
};

TEST(ClientRobustnessTest, UnknownMessageTypeIgnored) {
  ClientHarness h;
  h.Inject(BuildFrame(static_cast<MsgType>(200), std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(h.client.commands_applied(), 0);
}

TEST(ClientRobustnessTest, EmptyPayloadDisplayCommandsDropped) {
  ClientHarness h;
  for (uint8_t type = 1; type <= 5; ++type) {
    h.Inject(BuildFrame(static_cast<MsgType>(type), {}));
  }
  EXPECT_EQ(h.client.commands_applied(), 0);
}

TEST(ClientRobustnessTest, TruncatedVideoFrameDropped) {
  ClientHarness h;
  // Announce a stream, then send a frame whose plane data is cut short.
  WireWriter setup;
  setup.I32(1);
  setup.I32(16);
  setup.I32(16);
  setup.RectVal(Rect{0, 0, 64, 64});
  h.Inject(BuildFrame(MsgType::kVideoSetup, setup.data()));
  WireWriter frame;
  frame.I32(1);
  frame.I32(16);
  frame.I32(16);
  frame.I64(0);
  frame.Bytes(std::vector<uint8_t>(10, 0x55));  // far short of 16*16*1.5
  h.Inject(BuildFrame(MsgType::kVideoFrame, frame.data()));
  EXPECT_TRUE(h.client.video_frames().empty());
}

TEST(ClientRobustnessTest, VideoFrameForUnknownStreamDropped) {
  ClientHarness h;
  Yv12Frame f = Yv12Frame::Allocate(8, 8);
  WireWriter frame;
  frame.I32(77);
  frame.I32(8);
  frame.I32(8);
  frame.I64(0);
  frame.Bytes(f.Pack());
  h.Inject(BuildFrame(MsgType::kVideoFrame, frame.data()));
  EXPECT_TRUE(h.client.video_frames().empty());
}

TEST(ClientRobustnessTest, NegativeVideoGeometryDropped) {
  ClientHarness h;
  WireWriter frame;
  frame.I32(1);
  frame.I32(-16);
  frame.I32(16);
  frame.I64(0);
  h.Inject(BuildFrame(MsgType::kVideoFrame, frame.data()));
  EXPECT_TRUE(h.client.video_frames().empty());
}

TEST(ClientRobustnessTest, AudioLengthMismatchDropped) {
  ClientHarness h;
  WireWriter audio;
  audio.I64(0);
  audio.U32(1000);                              // claims 1000 bytes
  audio.Bytes(std::vector<uint8_t>(10, 0x42));  // provides 10
  h.Inject(BuildFrame(MsgType::kAudio, audio.data()));
  EXPECT_TRUE(h.client.audio_chunks().empty());
}

TEST(ClientRobustnessTest, GarbagePayloadsNeverCrash) {
  ClientHarness h;
  Prng rng(123);
  for (int i = 0; i < 300; ++i) {
    uint8_t type = static_cast<uint8_t>(rng.NextInRange(1, 14));
    std::vector<uint8_t> payload(rng.NextInRange(0, 200));
    for (uint8_t& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    h.Inject(BuildFrame(static_cast<MsgType>(type), payload));
  }
  SUCCEED();
}

TEST(ClientRobustnessTest, GoodFramesStillWorkAfterGarbage) {
  ClientHarness h;
  // Garbage payload in a valid frame envelope...
  h.Inject(BuildFrame(MsgType::kRaw, std::vector<uint8_t>(40, 0xFF)));
  // ...followed by a well-formed fill: the stream stays usable.
  SfillCommand fill(Region(Rect{0, 0, 128, 96}), MakePixel(9, 9, 9));
  h.Inject(fill.EncodeFrame());
  EXPECT_EQ(h.client.commands_applied(), 1);
  EXPECT_EQ(h.client.framebuffer().At(64, 48), MakePixel(9, 9, 9));
}

TEST(ClientRobustnessTest, CorruptedCiphertextCannotCrashEncryptedClient) {
  // With RC4 on, a flipped byte turns the remainder of the stream into
  // noise; the client must survive the desynchronized garbage.
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 96, 96);
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 96, 96}, kWhite);
  loop.Run();
  // Inject corrupt ciphertext straight into the stream from the server side.
  Prng rng(7);
  std::vector<uint8_t> garbage(512);
  for (uint8_t& b : garbage) {
    b = static_cast<uint8_t>(rng.Next());
  }
  sys.connection()->Send(Connection::kServer, garbage);
  loop.Run();
  SUCCEED();  // no crash; the session would be re-established in practice
}

// --- Connection reset + reconnect resync -------------------------------------

Pixel PixelFor(int i) {
  return MakePixel(static_cast<uint8_t>(i * 37 + 11), static_cast<uint8_t>(i * 73 + 5),
                   static_cast<uint8_t>(i * 151 + 90));
}

// Every pixel of `a` when the sizes differ.
int64_t MismatchedPixels(const Surface& a, const Surface& b) {
  int64_t diff = 0;
  a.Equals(b, &diff);
  return diff;
}

TEST(ReconnectTest, MidFrameResetParksServerWithoutCrashing) {
  EventLoop loop;
  ThincSystem sys(&loop, WanDesktopLink(), 128, 96);
  for (int i = 0; i < 12; ++i) {
    sys.window_server()->FillRect(kScreenDrawable,
                                  Rect{(i % 4) * 32, (i / 4) * 32, 32, 32},
                                  PixelFor(i));
  }
  // Let the updates reach the wire (WAN: first delivery ~33 ms out), then
  // cut the connection with frames half-delivered.
  loop.RunUntil(loop.now() + 36 * kMillisecond);
  sys.connection()->Reset();
  loop.Run();
  EXPECT_TRUE(sys.connection()->closed());
  EXPECT_FALSE(sys.server()->connected());
  EXPECT_FALSE(sys.client()->connected());
  // Neither endpoint crashes on further activity against the dead transport.
  sys.ClientClick(Point{5, 5});  // dropped, not checked-failed
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 16, 16}, kWhite);
  sys.SubmitAudio(std::vector<uint8_t>(64, 0x42), loop.now());
  loop.Run();
  EXPECT_FALSE(sys.connection()->in_outage());
  EXPECT_TRUE(sys.connection()->Idle());
}

TEST(ReconnectTest, ResyncRestoresPixelIdenticalFramebuffer) {
  EventLoop loop;
  ThincSystem sys(&loop, WanDesktopLink(), 128, 96);
  // Phase 1: patterned screen, partially delivered when the wire dies.
  for (int i = 0; i < 12; ++i) {
    sys.window_server()->FillRect(kScreenDrawable,
                                  Rect{(i % 4) * 32, (i / 4) * 32, 32, 32},
                                  PixelFor(i));
  }
  loop.RunUntil(loop.now() + 36 * kMillisecond);
  sys.connection()->Reset();
  loop.Run();
  // Phase 2: the application keeps drawing while nobody is connected.
  for (int i = 0; i < 6; ++i) {
    sys.window_server()->FillRect(kScreenDrawable, Rect{i * 20, 30, 18, 40},
                                  PixelFor(100 + i));
  }
  sys.window_server()->DrawText(kScreenDrawable, Point{8, 8}, "back soon", kWhite);
  loop.RunUntil(loop.now() + 500 * kMillisecond);
  // Phase 3: reconnect; the resync refresh must make the client
  // pixel-identical to the server's live screen.
  sys.Reconnect(WanDesktopLink());
  loop.Run();
  EXPECT_EQ(sys.server()->reconnects(), 1);
  EXPECT_TRUE(sys.server()->connected());
  EXPECT_TRUE(sys.client()->connected());
  EXPECT_EQ(
      MismatchedPixels(sys.client()->framebuffer(), sys.window_server()->screen()),
      0);
  // And the new session keeps working normally.
  sys.window_server()->FillRect(kScreenDrawable, Rect{40, 40, 20, 20}, kBlack);
  loop.Run();
  EXPECT_EQ(
      MismatchedPixels(sys.client()->framebuffer(), sys.window_server()->screen()),
      0);
}

TEST(ReconnectTest, SchedulerStaysCappedDuringArbitrarilyLongOutage) {
  EventLoop loop;
  ThincSystem sys(&loop, LanDesktopLink(), 64, 64);
  loop.Run();
  sys.connection()->Reset();
  loop.Run();
  ASSERT_FALSE(sys.server()->connected());
  const size_t cap = 2ul * 64 * 64 * sizeof(Pixel);
  // An arbitrarily long outage: coat after coat of tiny RAW tiles. Each
  // tile's frame overhead makes the backlog's encoded size far outgrow the
  // framebuffer, so overwrite eviction alone cannot bound it — the 2x cap
  // must kick in by coalescing the backlog into one snapshot.
  std::vector<Pixel> tile(4, kWhite);
  for (int coat = 0; coat < 4; ++coat) {
    for (int32_t y = 0; y < 64; y += 2) {
      for (int32_t x = 0; x < 64; x += 2) {
        tile.assign(4, PixelFor(coat * 17 + x + y * 64));
        sys.window_server()->PutImage(kScreenDrawable, Rect{x, y, 2, 2}, tile);
        ASSERT_LE(sys.server()->buffered_bytes(), cap);
      }
    }
    loop.RunUntil(loop.now() + kSecond);  // outage drags on
  }
  EXPECT_GE(sys.server()->overflow_coalesces(), 1);
  // The coalesced snapshot still resynchronizes the client exactly.
  sys.Reconnect(LanDesktopLink());
  loop.Run();
  EXPECT_EQ(
      MismatchedPixels(sys.client()->framebuffer(), sys.window_server()->screen()),
      0);
}

TEST(ReconnectTest, ReconnectRenegotiatesViewport) {
  EventLoop loop;
  ThincSystem sys(&loop, Pda80211gLink(), 128, 96);
  sys.SetViewport(64, 48);
  loop.Run();
  sys.window_server()->FillRect(kScreenDrawable, Rect{0, 0, 128, 96}, PixelFor(3));
  loop.Run();
  const Surface before = sys.client()->framebuffer();
  ASSERT_EQ(before.width(), 64);
  sys.connection()->Reset();
  loop.Run();
  sys.Reconnect(Pda80211gLink());
  loop.Run();
  // The renegotiated session keeps the reduced geometry and converges to
  // the same scaled view of the (unchanged) screen.
  EXPECT_EQ(sys.client()->framebuffer().width(), 64);
  EXPECT_EQ(sys.client()->framebuffer().height(), 48);
  EXPECT_EQ(MismatchedPixels(sys.client()->framebuffer(), before), 0);
}

}  // namespace
}  // namespace thinc
