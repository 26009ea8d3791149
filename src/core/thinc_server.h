// The THINC server: a virtual display driver that translates intercepted
// device-layer drawing operations into protocol commands and delivers them
// to a remote client (Sections 3-7 of the paper).
//
// Pieces, mapped to the paper:
//   * Translation layer (Section 4): DisplayDriver hooks map one-to-one onto
//     protocol commands; processing is decoupled from transmission through
//     the update scheduler; command semantics are preserved end to end.
//   * Offscreen drawing awareness (Section 4.1): a command queue per pixmap;
//     pixmap-to-pixmap copies copy command groups between queues; copies to
//     the screen replay the queued commands instead of sending raw pixels.
//   * Video support (Section 4.2): YV12 stream objects delivered through a
//     media path; frames outdated before transmission are dropped
//     server-side. Audio rides the same path with timestamps.
//   * Command delivery (Section 5): SRSF scheduling with a real-time queue,
//     server-push with non-blocking flush handlers that split large commands
//     and stop before the socket would block, and client-buffer eviction of
//     outdated commands.
//   * Heterogeneous displays (Section 6): when a client viewport smaller
//     than the framebuffer is set, updates are resized server-side — RAW and
//     PFILL resampled (Fant), BITMAP converted to RAW then resampled, SFILL
//     coordinates-only; COPY is converted to RAW because scaled coordinates
//     do not stay pixel-exact.
//   * Transport (Section 7): all traffic RC4-encrypted; RAW payloads use the
//     PNG-like codec when it wins.
#ifndef THINC_SRC_CORE_THINC_SERVER_H_
#define THINC_SRC_CORE_THINC_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/adapt/codec_selector.h"
#include "src/codec/rc4.h"
#include "src/core/command.h"
#include "src/core/command_queue.h"
#include "src/core/delta_reference.h"
#include "src/core/scheduler.h"
#include "src/display/driver.h"
#include "src/display/window_server.h"
#include "src/net/transport.h"
#include "src/protocol/wire.h"
#include "src/util/cpu.h"
#include "src/util/event_loop.h"

namespace thinc {

// Highest overload-degradation ladder level (see SetDegradationLevel).
inline constexpr int kMaxDegradationLevel = 4;

// Which mechanism each overload-ladder rung reaches for, per level 0..4.
// The default is the rung order the fleet controller has always used; a
// device profile may install a different schedule (phones trade resolution
// before anything else — their panel hides the subsampling the ladder
// applies to already viewport-scaled content).
struct DegradationSchedule {
  // Flush aggregation window multiplier (more batching, more overwrite
  // eviction, fewer wakeups).
  int flush_stretch[kMaxDegradationLevel + 1] = {1, 4, 4, 8, 16};
  // Server-side video frame decimation (keep 1 in N).
  int video_decimation[kMaxDegradationLevel + 1] = {1, 2, 2, 4, 8};
  // RAW payload subsample factor (server-side fidelity/resolution
  // downshift in unchanged geometry).
  int32_t fidelity_subsample[kMaxDegradationLevel + 1] = {1, 1, 1, 2, 4};
  // In-socket backlog budget: past level 0 the flush stops feeding the
  // socket once this much is queued there, keeping staleness sheddable in
  // the scheduler.
  size_t socket_backlog_budget[kMaxDegradationLevel + 1] = {
      SIZE_MAX, 64u << 10, 64u << 10, 16u << 10, 4u << 10};

  // The desktop rung order (identical to the member defaults).
  static DegradationSchedule Default() { return {}; }
  // Resolution-first: fidelity subsampling engages at level 1 (x2) and
  // tops out at x4 from level 3, while batching stays a rung gentler —
  // phone sessions shed resolution before latency-visible mechanisms.
  static DegradationSchedule ResolutionFirst() {
    DegradationSchedule s;
    const int32_t subsample[kMaxDegradationLevel + 1] = {1, 2, 2, 4, 4};
    const int stretch[kMaxDegradationLevel + 1] = {1, 1, 4, 4, 16};
    for (int i = 0; i <= kMaxDegradationLevel; ++i) {
      s.fidelity_subsample[i] = subsample[i];
      s.flush_stretch[i] = stretch[i];
    }
    return s;
  }
};

struct ThincServerOptions {
  // Ablation knobs.
  bool offscreen_tracking = true;  // Section 4.1 optimization
  bool server_push = true;         // false: client-pull delivery (ablation)
  bool encrypt = true;             // RC4 transport encryption
  bool compress_raw = true;        // PNG-like compression of RAW payloads
  SchedulerOptions scheduler;
  // Shared encoded-frame cache (session sharing): when set — only a
  // SharedSessionHost does this — a RAW frame another viewer's server
  // already encoded is reused at flush time and its encode CPU charge is
  // skipped, amortizing encode cost to ~1 per frame across N viewers.
  ByteBufferCache* shared_frame_cache = nullptr;
  // Adaptive codec layer (src/adapt): per-connection bandwidth/RTT
  // estimation plus intra/delta/delta+subsample selection, with the
  // temporal reference kept in per-connection server state (DESIGN.md §15).
  // Off by default: the wire is byte-identical to the pre-adaptive stack.
  AdaptOptions adapt;
  // Degradation-ladder level the server starts at (bench knob for holding a
  // session at one rung; the fleet controller moves it afterwards as usual).
  int initial_degradation_level = 0;
  // Per-level rung schedule; device profiles swap in alternatives (phones
  // use DegradationSchedule::ResolutionFirst()).
  DegradationSchedule ladder;
  // Chrome-trace host name registered for this server's pid. A fleet host
  // names each session distinctly ("fleet-session-3") so traces separate.
  std::string telemetry_host = "thinc-server";
  // Padding, not state: an unnamed bit-field, so nothing can set it. Every
  // ExperimentConfig and ThincServer holds this struct, and 8 bytes smaller
  // it moved glibc's heap so that perfbench web_paper's set-up passes
  // trimmed and re-faulted the paper cells' 3 MB surfaces (27,862 more
  // minor faults per run). See ROADMAP item 2's measurement hazards.
  uint64_t : 64;
};

class ThincServer : public DisplayDriver {
 public:
  // Reconnect backlog budget, in framebuffers: while disconnected or
  // stalled, the scheduler backlog may grow to this many framebuffers of
  // encoded bytes before being coalesced into one full-screen snapshot.
  // The same budget caps the differential state a live migration may ship
  // (MigrationStateBytes): a dirty delta larger than the budget degrades to
  // a full framebuffer snapshot.
  static constexpr size_t kBacklogCapFramebuffers = 2;

  // `cpu` and `payloads` belong to the session owner and are shared by every
  // server it runs: the host CPU account, and the pool through which
  // sessions showing the same pixels share payloads and their encodes.
  ThincServer(EventLoop* loop, Transport* conn, CpuAccount* cpu,
              PayloadPool* payloads, ThincServerOptions options = {});

  // The server reads reference framebuffer content from the window server
  // (residual RAW fallback and resize support). Must be called once.
  void AttachWindowServer(WindowServer* ws) { window_server_ = ws; }

  // --- DisplayDriver (the interception points) -----------------------------
  void OnFillSolid(DrawableId dst, const Region& region, Pixel color) override;
  void OnFillTiled(DrawableId dst, const Region& region, const Surface& tile,
                   Point origin) override;
  void OnFillStippled(DrawableId dst, const Region& region, const Bitmap& stipple,
                      Point origin, Pixel fg, Pixel bg, bool transparent_bg) override;
  void OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
              Point dst_origin) override;
  void OnPutImage(DrawableId dst, const Rect& rect,
                  std::span<const Pixel> pixels) override;
  void OnPutImageShared(DrawableId dst, const Rect& rect,
                        const PixelBuffer& pixels) override;
  void OnComposite(DrawableId dst, const Rect& rect,
                   std::span<const Pixel> blended) override;
  void OnCompositeShared(DrawableId dst, const Rect& rect,
                         const PixelBuffer& blended) override;
  void OnCreatePixmap(DrawableId id, int32_t width, int32_t height) override;
  void OnDestroyPixmap(DrawableId id) override;
  bool SupportsVideo() const override { return true; }
  int32_t OnVideoStreamCreate(int32_t src_width, int32_t src_height,
                              const Rect& dst) override;
  void OnVideoFrame(int32_t stream_id, const Yv12Frame& frame) override;
  void OnVideoStreamMove(int32_t stream_id, const Rect& dst) override;
  void OnVideoStreamDestroy(int32_t stream_id) override;
  void OnInputEvent(Point location) override;

  // --- Audio (virtual audio driver output) ----------------------------------
  void SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp);

  // --- Control ----------------------------------------------------------------
  // Invoked for every input event frame received from the client.
  using InputFn = std::function<void(Point, int32_t button)>;
  void SetInputHandler(InputFn fn) { input_handler_ = std::move(fn); }

  // Queues a RAW update of the entire current reference screen (used when a
  // client joins an existing session or enlarges its viewport).
  void SendFullRefresh();

  // --- Reconnect (fault tolerance) -------------------------------------------
  // The server survives a dead connection without blocking: the reset is
  // detected through the connection's closed callback, the virtual display
  // state (framebuffer, offscreen queues, stream geometry, viewport) is
  // parked, and anything tied to the dead transport is dropped. While
  // disconnected — or whenever a stalled link lets the client buffer grow
  // past twice the framebuffer size — the backlog is coalesced into a
  // single framebuffer snapshot (graceful degradation; the framebuffer is
  // always current, so nothing is lost).
  //
  // Attach() rebinds the server to a fresh connection. Resynchronization is
  // client-driven, mirroring session startup: live video streams are
  // re-announced immediately, and the full-screen resync update is sent when
  // the new client renegotiates its viewport (ThincClient::Attach does this
  // automatically, together with a cursor position sync).
  void Attach(Transport* conn);
  bool connected() const { return connected_; }

  // --- Live migration (cluster) ----------------------------------------------
  // The migration protocol is the reconnect protocol plus a differential
  // resync: the server tracks the region drawn since the last instant the
  // client provably held a pixel-exact copy of the screen (the "unacked"
  // region, cleared whenever every queue is empty and the transport has
  // delivered everything). When a ClusterController moves the session it
  // ships MigrationStateBytes() over the interconnect — a fixed descriptor
  // plus the unacked region's pixels when that delta fits the reconnect
  // backlog budget, else a full framebuffer snapshot — and arms the
  // destination server with ArmDifferentialResync() so the client's
  // renegotiation triggers a RAW refresh of only the dirty region instead
  // of the whole screen.
  //
  // Fixed per-session descriptor shipped by every migration: viewport,
  // stream table, cipher state, scheduler metadata.
  static constexpr size_t kMigrationDescriptorBytes = 4096;
  // Serialized handoff size for migrating this session right now (clears
  // the unacked region first when provably delivered, so an idle session
  // ships only the descriptor).
  size_t MigrationStateBytes();
  // Arm the next client-driven resync to cover only the current unacked
  // region (no-op — i.e. stay with the full refresh — when the delta does
  // not fit the budget). Call between Attach() and the client's viewport
  // renegotiation.
  void ArmDifferentialResync();
  bool differential_resync_armed() const { return resync_armed_; }
  // Region drawn since the client last provably matched the screen.
  const Region& unacked_region() const { return unacked_region_; }
  // Migration delta budget in bytes: kBacklogCapFramebuffers framebuffers.
  size_t MigrationDeltaBudgetBytes() const;
  // Rebind the server to another host's CpuAccount and payload pool
  // (migration; call before Attach() so no in-flight charge straddles
  // hosts).
  void RebindHost(CpuAccount* cpu, PayloadPool* payloads) {
    cpu_ = cpu;
    payloads_ = payloads;
  }

  // --- Overload degradation (fleet) ------------------------------------------
  // Degradation ladder level 0 (full fidelity) .. kMaxDegradationLevel
  // (survival), set by a host-level controller under CPU/NIC pressure. Each
  // level reuses a paper (or adapt-layer) mechanism rather than inventing a
  // new one:
  //   * flush aggregation window stretches (x1/x4/x4/x8/x16) — more
  //     batching, more client-buffer overwrite eviction, fewer wakeups;
  //   * the scheduler-backlog cap tightens from 2x to 1x framebuffer at
  //     level >= 1, collapsing deep backlogs into one snapshot sooner (the
  //     cap never drops below 1x: the snapshot itself must fit under it);
  //   * level 2 is the codec rung: with the adapt layer enabled, the
  //     CodecSelector forces at-least-delta coding from here regardless of
  //     the bandwidth estimate — bytes shrink before fidelity does;
  //   * video frames are decimated server-side (keep 1-in-1/2/2/4/8), the
  //     same server-side drop policy as outdated frames;
  //   * fidelity subsampling engages at level >= 3 (x2, then x4);
  //   * the SRSF starvation limit arms at level >= 1 so large updates are
  //     not starved indefinitely behind the now-heavier small-update churn.
  void SetDegradationLevel(int level);
  int degradation_level() const { return degradation_level_; }
  // The RAW subsample factor the current rung applies (1 = lossless) — how
  // benches and the device-matrix tests observe that a profile's schedule
  // degrades resolution before (or after) the other mechanisms.
  int32_t current_fidelity_subsample() const {
    return options_.ladder.fidelity_subsample[degradation_level_];
  }

  // Chrome-trace pid of this server's simulated host (0 when telemetry was
  // inactive at construction). Bench harnesses group per-session lifecycle
  // spans by this pid.
  int telemetry_pid() const { return telemetry_pid_; }

  // Statistics.
  int64_t video_frames_sent() const { return video_frames_sent_; }
  int64_t video_frames_dropped() const { return video_frames_dropped_; }
  // Subset of video_frames_dropped() shed by ladder decimation.
  int64_t video_frames_decimated() const { return video_frames_decimated_; }
  size_t buffered_commands() const { return scheduler_.count(); }
  // Bytes currently buffered in the update scheduler (bounded by the
  // kBacklogCapFramebuffers budget through overflow coalescing).
  size_t buffered_bytes() const { return scheduler_.TotalBytes(); }
  int64_t reconnects() const { return reconnects_; }
  // Times the scheduler backlog was collapsed into a framebuffer snapshot.
  int64_t overflow_coalesces() const { return overflow_coalesces_; }

  const ThincServerOptions& options() const { return options_; }

 private:
  // A video frame awaiting the wire; its stream's next frame replaces it.
  struct QueuedVideoFrame {
    ByteBuffer frame;  // complete wire frame (ref-counted view)
    int32_t stream_id = -1;
  };
  struct VideoStreamState {
    int32_t src_width = 0;
    int32_t src_height = 0;
    Rect dst;
    int64_t frames_seen = 0;  // decimation phase (keep the first of a group)
  };
  // A client viewport smaller than the screen, as the scale factor num/den.
  struct Viewport {
    int32_t num = 1;
    int32_t den = 1;
  };
  // The flush's work in hand: a popped display command until it is framed,
  // then the frame being committed. It all dies with the transport.
  struct InFlight {
    std::unique_ptr<Command> cmd;  // popped, not yet framed
    bool prepared = false;         // its encode or shared wait has started
    SimTime ready = 0;             // when that encode completes
    SimTime encode_start = 0;      // when its encode CPU charge began
    std::string cache_key;         // shared-frame-cache key of `cmd`
    bool shared_wait = false;      // waiting on another viewer's encode
    ByteBuffer frame;              // bytes being committed
    size_t cursor = 0;
    uint64_t trace_id = 0;  // telemetry span of `frame` (0 for media/control)
    // Display command behind `frame`: the delta reference applies it once
    // the last byte is committed.
    std::unique_ptr<Command> committing;
  };

  bool IsOffscreen(DrawableId id) const { return id != kScreenDrawable; }
  // Routes a freshly translated command: offscreen queue or client buffer.
  void Emit(DrawableId dst, std::unique_ptr<Command> cmd);
  // Inserts into the scheduler, applying viewport resize first.
  void InsertOutgoing(std::unique_ptr<Command> cmd);
  // Interns a RAW command's payload in the owner's pool. Must run before the
  // command is first sized (the scheduler's size query encodes it) and
  // again whenever its pixels change after insertion.
  void InternPayload(Command* cmd);
  std::vector<std::unique_ptr<Command>> ResizeForViewport(std::unique_ptr<Command> cmd);
  // `src` resampled to `dst` as a RAW piece, charging the work. Callers fill
  // `src` before the call so their pixel temporaries are freed before the
  // resample allocates: holding one across it more than doubled the host
  // time of a full-screen PDA resize (glibc 2.36, 4-core Xeon).
  std::unique_ptr<RawCommand> Resampled(const Surface& src, const Rect& dst);
  // RAW pixels of `r` read from `from`, clipped to it (null if nothing is).
  std::unique_ptr<RawCommand> RawFrom(const Surface& from, const Rect& r) const;
  // `r` in client coordinates: scaled to the viewport, if one is set.
  Rect ToViewport(const Rect& r) const;

  // Wires receive/writable/closed callbacks to the current connection. The
  // closed callback captures the connection it was bound to and compares it
  // against conn_ at fire time (pointer comparison only), so a late close
  // notification from a retired connection cannot clobber a fresh session.
  void BindConnection();
  void OnConnectionClosed();
  // Drops the in-flight frame, media, pull request and delta reference.
  void DropTransportState();
  void AnnounceStream(int32_t id, const VideoStreamState& st);
  // Re-sends kVideoSetup for every live stream after Attach() so the fresh
  // client can rebuild its stream table.
  void ReannounceStreams();
  // Graceful degradation: when the scheduler backlog exceeds its budget
  // (kBacklogCapFramebuffers framebuffers), collapse it into a single
  // full-screen snapshot.
  void EnforceSchedulerCap();
  size_t FramebufferBytes() const;
  // Clears the unacked region when the client provably holds a pixel-exact
  // copy of the screen: every server-side queue empty, no resync owed, and
  // the transport idle (clients apply frames synchronously on delivery).
  void MaybeClearUnacked();
  // Queues RAW updates of `region` read from the reference screen (the
  // armed differential resync; full-screen region == SendFullRefresh).
  void SendPartialRefresh(const Region& region);

  void ScheduleFlush(SimTime delay);
  // Aggregation window at the current degradation level (ladder stretch).
  SimTime EffectiveFlushInterval() const;
  void Flush();
  // Starts committing `frame`, which carries `cmd` (null for media/control).
  void StartFrame(ByteBuffer frame, std::unique_ptr<Command> cmd);
  // Starts the in-flight command's frame from the shared frame cache, if
  // another viewer's server already encoded it. Returns false on a miss.
  bool PickUpSharedFrame(SimTime now);
  // Books the CPU time for encoding the in-flight command. RAW encodes above
  // kEncodeSliceCostUs split into per-band slices on distinct cores (capped
  // so each slice stays worth its scheduling overhead); everything else is
  // one serial charge.
  void StartEncode(SimTime now);
  // Commits as much of `bytes` (starting at *cursor) as the socket accepts;
  // returns the number of bytes committed. Unencrypted bytes are handed to
  // the connection as a zero-copy slice; encryption copies once (the
  // keystream transform needs its own bytes).
  size_t CommitBytes(const ByteBuffer& bytes, size_t* cursor);
  void OnReceive(std::span<const uint8_t> data);
  void HandleFrame(uint8_t type, std::span<const uint8_t> payload);
  void EnqueueVideoFrame(int32_t stream_id, ByteBuffer wire_frame);

  EventLoop* loop_;
  Transport* conn_;
  CpuAccount* cpu_;
  PayloadPool* payloads_;
  ThincServerOptions options_;
  WindowServer* window_server_ = nullptr;

  UpdateScheduler scheduler_;
  std::map<DrawableId, CommandQueue> offscreen_;
  std::map<int32_t, VideoStreamState> streams_;
  int32_t next_stream_id_ = 1;

  std::deque<ByteBuffer> audio_queue_;  // audio and control frames
  std::deque<QueuedVideoFrame> video_queue_;

  // Flush state.
  bool flush_scheduled_ = false;
  InFlight inflight_;
  bool update_requested_ = false;  // client-pull mode
  // Recycled slabs for transient frames (media/control); a slab is reused
  // once its frame has fully drained out of the send path.
  FrameArena arena_;

  std::optional<Viewport> viewport_;
  std::optional<Rc4Cipher> tx_cipher_;
  std::optional<Rc4Cipher> rx_cipher_;
  FrameParser parser_;
  InputFn input_handler_;

  // Chrome-trace pid of this simulated server host (0 when telemetry was
  // inactive at construction).
  int telemetry_pid_ = 0;

  // Reconnect state.
  bool connected_ = true;
  bool full_refresh_needed_ = false;  // backlog coalesced into a snapshot
  int64_t reconnects_ = 0;
  int64_t overflow_coalesces_ = 0;

  // Migration / differential-resync state. `unacked_region_` accumulates in
  // server screen coordinates (pre-viewport scaling) and is a sound
  // over-approximation of what the client might not have: it only clears
  // when everything generated was provably delivered and applied.
  // `resync_pending_` spans Attach() to the client's renegotiation — the
  // window in which queues are empty but the client is known-stale — and
  // blocks clearing during it.
  Region unacked_region_;
  Region resync_region_;       // snapshot shipped by the armed resync
  bool resync_armed_ = false;  // next renegotiation refreshes resync_region_
  bool resync_pending_ = false;

  int64_t video_frames_sent_ = 0;
  int64_t video_frames_dropped_ = 0;
  int64_t video_frames_decimated_ = 0;
  int degradation_level_ = 0;

  // The adaptive codec's reference (DESIGN.md §15), iff adapt.enabled.
  std::optional<DeltaReference> reference_;
};

}  // namespace thinc

#endif  // THINC_SRC_CORE_THINC_SERVER_H_
