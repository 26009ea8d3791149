#include "src/core/thinc_server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/raster/fant.h"
#include "src/telemetry/telemetry.h"
#include "src/util/buffer.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// Shared transport key (the prototype derives per-session keys via PAM; a
// fixed key suffices for the simulation — both ends must simply agree).
constexpr uint8_t kTransportKey[16] = {0x54, 0x48, 0x49, 0x4E, 0x43, 0x2D, 0x4B, 0x45,
                                       0x59, 0x2D, 0x30, 0x30, 0x30, 0x31, 0x00, 0x01};

// Per-command translation bookkeeping overhead (Section 4.1 argues this is
// negligible next to the rendering work, which WindowServer charges).
constexpr double kTranslateCost = 1.0;

// Aggregation window between command generation and transmission, before
// the degradation ladder stretches it.
constexpr SimTime kFlushInterval = kMillisecond;

// Minimum reference-speed cost (µs) worth one parallel encode slice: slices
// below this would spend more on scheduling than they save, so an encode
// splits into at most cost/kEncodeSliceCostUs slices (and never more than
// the host has cores).
constexpr double kEncodeSliceCostUs = 500.0;

// The per-level degradation mechanisms (flush stretch, video decimation,
// fidelity subsample, socket backlog budget) live in the options'
// DegradationSchedule so device profiles can reorder the rungs; level 2 is
// the codec rung in the default schedule — batching and socket budgets hold
// at their level-1 settings while the adapt layer's CodecSelector forces
// temporal coding, so wire bytes shrink a rung before fidelity does.
//
// SRSF starvation limit armed at level >= 1: a large update older than this
// flushes ahead of the small-update churn that heavier batching produces.
constexpr SimTime kDegradedStarvationLimit = 300 * kMillisecond;

}  // namespace

ThincServer::ThincServer(EventLoop* loop, Transport* conn, CpuAccount* cpu,
                         PayloadPool* payloads, ThincServerOptions options)
    : loop_(loop), conn_(conn), cpu_(cpu), payloads_(payloads), options_(options),
      scheduler_(options.scheduler) {
  if (options_.adapt.enabled) {
    reference_.emplace();
  }
  if (options_.initial_degradation_level > 0) {
    SetDegradationLevel(options_.initial_degradation_level);
  }
  if (options_.encrypt) {
    tx_cipher_.emplace(kTransportKey);
    rx_cipher_.emplace(kTransportKey);
  }
  Telemetry& telemetry = Telemetry::Get();
  if (telemetry.active()) {
    // One Chrome-trace pid per simulated server host, one tid per
    // subsystem. (Configure telemetry before constructing systems.)
    telemetry_pid_ = telemetry.RegisterHostAuto(options_.telemetry_host);
    telemetry.NameThread(telemetry_pid_, 2, "queue");
    telemetry.NameThread(telemetry_pid_, 3, "encode");
    telemetry.NameThread(telemetry_pid_, 4, "send");
    scheduler_.set_telemetry_pid(telemetry_pid_);
  }
  BindConnection();
}

void ThincServer::BindConnection() {
  if (reference_.has_value()) {
    reference_->Observe(conn_);
  }
  conn_->SetReceiver(Transport::kServer,
                     [this](std::span<const uint8_t> data) { OnReceive(data); });
  conn_->SetWritable(Transport::kServer, [this] { ScheduleFlush(0); });
  conn_->SetClosed(Transport::kServer, [this, c = conn_] {
    if (c == conn_) {  // stale notifications from retired connections are moot
      OnConnectionClosed();
    }
  });
}

void ThincServer::OnConnectionClosed() {
  connected_ = false;
  // Trace ids of frames committed to (but not decoded from) the dead
  // transport die with it.
  Telemetry::Get().DropWireChannel(conn_);
  DropTransportState();
}

void ThincServer::DropTransportState() {
  // A partial frame can never be completed on a new connection (the resync
  // refresh covers its content), buffered media is stale by the time a
  // client returns, and the dropped bytes void the delta reference. The
  // virtual display state itself — framebuffer, offscreen queues, stream
  // geometry, viewport — is parked untouched.
  inflight_ = InFlight();
  update_requested_ = false;
  audio_queue_.clear();
  video_queue_.clear();
  if (reference_.has_value()) {
    reference_->Drop();
  }
}

void ThincServer::Attach(Transport* conn) {
  // A rebind may reset the old transport and attach at once: its close
  // notification then arrives stale and is ignored, so drop its state here.
  DropTransportState();
  conn_ = conn;
  connected_ = true;
  ++reconnects_;
  // Fresh transport: new framing and (when encrypting) new cipher streams —
  // the old keystream position died with the old connection.
  parser_ = FrameParser();
  if (options_.encrypt) {
    tx_cipher_.emplace(kTransportKey);
    rx_cipher_.emplace(kTransportKey);
  }
  // The fresh transport must start with an empty trace channel even if this
  // Connection object served a previous life.
  Telemetry::Get().DropWireChannel(conn_);
  // The old client's buffer is meaningless to the new client; the resync
  // refresh supersedes it.
  scheduler_.Clear();
  full_refresh_needed_ = false;
  // Until the new client renegotiates (and the resync refresh is queued),
  // the empty queues say nothing about what the client holds — block
  // unacked-region clearing across the window. Each Attach() defaults to a
  // full-refresh resync; a migration re-arms the differential one after.
  resync_pending_ = true;
  resync_armed_ = false;
  BindConnection();
  ReannounceStreams();
  // No refresh yet: the client's renegotiated viewport message triggers the
  // single full-screen resync (sending one now too would double the resync
  // bytes on high-RTT links).
}

Rect ThincServer::ToViewport(const Rect& r) const {
  return viewport_.has_value()
             ? Region(r).Scaled(viewport_->num, viewport_->den).Bounds()
             : r;
}

void ThincServer::AnnounceStream(int32_t id, const VideoStreamState& st) {
  WireWriter w(MsgType::kVideoSetup, &arena_);
  w.I32(id);
  w.I32(st.src_width);
  w.I32(st.src_height);
  w.RectVal(ToViewport(st.dst));
  audio_queue_.push_back(w.Finish());
}

void ThincServer::ReannounceStreams() {
  for (const auto& [id, st] : streams_) {
    AnnounceStream(id, st);
  }
  if (!streams_.empty()) {
    ScheduleFlush(0);
  }
}

size_t ThincServer::FramebufferBytes() const {
  const Surface& screen = window_server_->screen();
  return static_cast<size_t>(screen.width()) * screen.height() * sizeof(Pixel);
}

void ThincServer::SetDegradationLevel(int level) {
  level = std::clamp(level, 0, kMaxDegradationLevel);
  if (level == degradation_level_) {
    return;
  }
  const int32_t old_subsample = options_.ladder.fidelity_subsample[degradation_level_];
  degradation_level_ = level;
  scheduler_.set_starvation_limit(level >= 1 ? kDegradedStarvationLimit : 0);
  if (reference_.has_value() &&
      options_.ladder.fidelity_subsample[level] != old_subsample) {
    // Prior commits are at the old factor, future ones at the new.
    reference_->FidelityChanged();
  }
  Telemetry& telemetry = Telemetry::Get();
  telemetry.Record("core.degrade_level", loop_->now(), level);
  if (telemetry_pid_ != 0) {
    telemetry.InstantArg(telemetry_pid_, 1, "degrade level", loop_->now(),
                         "level", level);
  }
}

SimTime ThincServer::EffectiveFlushInterval() const {
  return kFlushInterval * options_.ladder.flush_stretch[degradation_level_];
}

void ThincServer::EnforceSchedulerCap() {
  // Graceful degradation under outage or stall: the update buffer never
  // grows past twice the framebuffer (once, when the overload ladder is
  // engaged: the collapse snapshot itself must fit under the cap). Past
  // that, the backlog is worth less than a snapshot of the current screen —
  // collapse it and mark one full-screen refresh to be materialized at the
  // next connected flush.
  const size_t budget_frames = degradation_level_ == 0 ? kBacklogCapFramebuffers : 1;
  const size_t cap = budget_frames * FramebufferBytes();
  if (scheduler_.TotalBytes() <= cap) {
    return;
  }
  scheduler_.Clear();
  full_refresh_needed_ = true;
  ++overflow_coalesces_;
}

// --- Translation hooks -------------------------------------------------------

void ThincServer::OnFillSolid(DrawableId dst, const Region& region, Pixel color) {
  cpu_->Charge(kTranslateCost);
  Emit(dst, std::make_unique<SfillCommand>(region, color));
}

void ThincServer::OnFillTiled(DrawableId dst, const Region& region, const Surface& tile,
                              Point origin) {
  cpu_->Charge(kTranslateCost);
  Emit(dst, std::make_unique<PfillCommand>(region, tile, origin));
}

void ThincServer::OnFillStippled(DrawableId dst, const Region& region,
                                 const Bitmap& stipple, Point origin, Pixel fg,
                                 Pixel bg, bool transparent_bg) {
  cpu_->Charge(kTranslateCost);
  Emit(dst, std::make_unique<BitmapCommand>(region, stipple, origin, fg, bg,
                                            transparent_bg));
}

void ThincServer::OnPutImage(DrawableId dst, const Rect& rect,
                             std::span<const Pixel> pixels) {
  OnPutImageShared(dst, rect, PixelBuffer::Copy(pixels));
}

void ThincServer::OnPutImageShared(DrawableId dst, const Rect& rect,
                                   const PixelBuffer& pixels) {
  // Broadcast fan-out lands here with one shared payload for all viewers:
  // every server's RawCommand references the same backing pixels (and thus
  // the same payload-attached encode cache).
  cpu_->Charge(kTranslateCost);
  auto cmd = std::make_unique<RawCommand>(rect, pixels.Share());
  cmd->set_compression_enabled(options_.compress_raw);
  Emit(dst, std::move(cmd));
}

void ThincServer::OnComposite(DrawableId dst, const Rect& rect,
                              std::span<const Pixel> blended) {
  // The window server already composited in software (no client-side
  // composition hardware in the emulated client); the blended result is
  // opaque RAW content.
  OnPutImage(dst, rect, blended);
}

void ThincServer::OnCompositeShared(DrawableId dst, const Rect& rect,
                                    const PixelBuffer& blended) {
  OnPutImageShared(dst, rect, blended);
}

void ThincServer::OnCopy(DrawableId src, DrawableId dst, const Rect& src_rect,
                         Point dst_origin) {
  cpu_->Charge(kTranslateCost);
  const Rect dst_rect{dst_origin.x, dst_origin.y, src_rect.width, src_rect.height};

  if (!IsOffscreen(src) && !IsOffscreen(dst)) {
    // Screen-to-screen: the client can do this from its own framebuffer —
    // the scroll/window-move accelerator.
    Point delta{src_rect.x - dst_origin.x, src_rect.y - dst_origin.y};
    InsertOutgoing(std::make_unique<CopyCommand>(Region(dst_rect), delta));
    return;
  }

  if (IsOffscreen(src)) {
    // Extract the command group drawing src_rect. With offscreen tracking
    // disabled (ablation) the queue is absent/empty, so everything comes out
    // as residual RAW read from the pixmap — exactly the "ignore offscreen,
    // send raw pixels" behaviour of conventional thin clients.
    static const CommandQueue kEmptyQueue;
    const CommandQueue* queue = &kEmptyQueue;
    auto it = offscreen_.find(src);
    if (options_.offscreen_tracking && it != offscreen_.end()) {
      queue = &it->second;
    }
    std::vector<std::unique_ptr<Command>> group =
        queue->ExtractForCopy(src_rect, dst_origin, window_server_->SurfaceOf(src));
    for (auto& cmd : group) {
      if (cmd->type() == MsgType::kRaw) {
        static_cast<RawCommand*>(cmd.get())
            ->set_compression_enabled(options_.compress_raw);
      }
      Emit(dst, std::move(cmd));
    }
    return;
  }

  // Screen-to-pixmap: the copied content's provenance is the screen; record
  // it as RAW pixels read from the (already updated) destination pixmap.
  if (options_.offscreen_tracking) {
    if (auto raw = RawFrom(window_server_->SurfaceOf(dst), dst_rect)) {
      offscreen_[dst].Insert(std::move(raw));
    }
  }
}

void ThincServer::OnCreatePixmap(DrawableId id, int32_t width, int32_t height) {
  if (options_.offscreen_tracking) {
    offscreen_[id];  // create an empty queue
  }
}

void ThincServer::OnDestroyPixmap(DrawableId id) { offscreen_.erase(id); }

void ThincServer::Emit(DrawableId dst, std::unique_ptr<Command> cmd) {
  if (cmd->region().empty()) {
    return;
  }
  if (IsOffscreen(dst)) {
    if (options_.offscreen_tracking) {
      offscreen_[dst].Insert(std::move(cmd));
    }
    // Without tracking, offscreen drawing is invisible to the protocol until
    // copied onscreen.
    return;
  }
  InsertOutgoing(std::move(cmd));
}

// --- Viewport resize ---------------------------------------------------------

std::vector<std::unique_ptr<Command>> ThincServer::ResizeForViewport(
    std::unique_ptr<Command> cmd) {
  std::vector<std::unique_ptr<Command>> out;
  const int32_t num = viewport_->num;
  const int32_t den = viewport_->den;

  switch (cmd->type()) {
    case MsgType::kSfill: {
      auto& sfill = static_cast<SfillCommand&>(*cmd);
      Region scaled = sfill.region().Scaled(num, den);
      if (!scaled.empty()) {
        out.push_back(std::make_unique<SfillCommand>(scaled, sfill.color()));
      }
      return out;
    }
    case MsgType::kPfill: {
      auto& pfill = static_cast<PfillCommand&>(*cmd);
      Region scaled = pfill.region().Scaled(num, den);
      int32_t tw = std::max<int32_t>(1, pfill.tile().width() * num / den);
      int32_t th = std::max<int32_t>(1, pfill.tile().height() * num / den);
      cpu_->Charge(static_cast<double>(pfill.tile().bounds().area()) *
                   cpucost::kResamplePerPixel);
      Surface tile = FantResample(pfill.tile(), tw, th);
      Point origin{pfill.origin().x * num / den, pfill.origin().y * num / den};
      if (!scaled.empty()) {
        out.push_back(std::make_unique<PfillCommand>(scaled, std::move(tile), origin));
      }
      return out;
    }
    case MsgType::kRaw: {
      auto& raw = static_cast<RawCommand&>(*cmd);
      for (const Rect& r : raw.region().rects()) {
        const Rect dst = ToViewport(r);
        if (!dst.empty()) {
          Surface src(r.width, r.height);
          src.PutPixels(Rect{0, 0, r.width, r.height}, raw.ExtractRect(r));
          out.push_back(Resampled(src, dst));
        }
      }
      return out;
    }
    case MsgType::kBitmap:
    case MsgType::kCopy: {
      // BITMAP cannot be resized without destroying the mask (Section 6), and
      // scaled COPY coordinates are not pixel-exact; both are converted to
      // RAW read from the reference screen, then resampled. The whole region
      // becomes ONE piece over its scaled bounds: converting per glyph-sized
      // rect would ship each below the codec's area floor at 4 B/px — an 8x
      // inflation over the 1-bit BITMAP it replaces — and resampling across
      // rect boundaries also filters the text against its true background.
      Region clipped =
          cmd->region().Intersect(window_server_->screen().bounds());
      if (clipped.empty()) {
        return out;
      }
      const Rect bounds = clipped.Bounds();
      const Rect dst = ToViewport(bounds);
      if (dst.empty()) {
        return out;
      }
      Surface src(bounds.width, bounds.height);
      src.PutPixels(Rect{0, 0, bounds.width, bounds.height},
                    window_server_->screen().GetPixels(bounds));
      std::unique_ptr<RawCommand> piece = Resampled(src, dst);
      // Keep the shipped region tight: only the scaled image of the source
      // region is painted, not the gaps the bounding read swept in.
      if (piece->RestrictTo(clipped.Scaled(num, den))) {
        out.push_back(std::move(piece));
      }
      return out;
    }
    default:
      out.push_back(std::move(cmd));
      return out;
  }
}

std::unique_ptr<RawCommand> ThincServer::Resampled(const Surface& src, const Rect& dst) {
  cpu_->Charge(static_cast<double>(src.bounds().area()) * cpucost::kResamplePerPixel);
  Surface scaled = FantResample(src, dst.width, dst.height);
  auto piece = std::make_unique<RawCommand>(
      dst, std::vector<Pixel>(scaled.pixels().begin(), scaled.pixels().end()));
  piece->set_compression_enabled(options_.compress_raw);
  // A resampled piece descends from an update that was large at full
  // scale; the codec's small-rect heuristic would misjudge it.
  piece->set_compress_floor(0);
  return piece;
}

std::unique_ptr<RawCommand> ThincServer::RawFrom(const Surface& from,
                                                 const Rect& r) const {
  const Rect clipped = r.Intersect(from.bounds());
  if (clipped.empty()) {
    return nullptr;
  }
  auto raw = std::make_unique<RawCommand>(clipped, from.GetPixels(clipped));
  raw->set_compression_enabled(options_.compress_raw);
  return raw;
}

void ThincServer::InsertOutgoing(std::unique_ptr<Command> cmd) {
  // Migration bookkeeping: fold this command's output into the unacked
  // region (server screen coordinates, before viewport scaling) — even when
  // the backlog was coalesced and the command itself is dropped, its pixels
  // live on the reference screen and a resync must cover them. Clearing
  // first keeps the region tight when everything prior was delivered.
  MaybeClearUnacked();
  unacked_region_ = unacked_region_.Union(cmd->region());
  if (full_refresh_needed_) {
    // The backlog was coalesced: a pending full-screen snapshot will be read
    // from the live framebuffer, which already (or will) contain this
    // command's output. Buffering it would only regrow the queue.
    ScheduleFlush(EffectiveFlushInterval());
    return;
  }
  if (viewport_.has_value()) {
    for (auto& piece : ResizeForViewport(std::move(cmd))) {
      InternPayload(piece.get());
      scheduler_.Insert(std::move(piece), loop_->now());
    }
    EnforceSchedulerCap();
    ScheduleFlush(EffectiveFlushInterval());
    return;
  }
  // Preserve semantics of buffered COPYs whose source this command is about
  // to overwrite AND which are scheduled to flush after it: the affected
  // destination parts are re-sent as RAW read from the reference screen
  // (which already contains the copied content). Materialized RAWs change
  // those destinations' client-side contents in turn, so the check cascades
  // until no buffered copy is affected.
  std::deque<std::unique_ptr<Command>> pending;
  pending.push_back(std::move(cmd));
  while (!pending.empty()) {
    std::unique_ptr<Command> next = std::move(pending.front());
    pending.pop_front();
    InternPayload(next.get());
    const int planned = scheduler_.PlannedBand(*next, loop_->now());
    for (const Region& region :
         scheduler_.SplitCopiesReading(next->region(), planned)) {
      for (const Rect& r : region.rects()) {
        if (auto raw = RawFrom(window_server_->screen(), r)) {
          pending.push_back(std::move(raw));
        }
      }
    }
    scheduler_.Insert(std::move(next), loop_->now(), planned);
  }
  EnforceSchedulerCap();
  ScheduleFlush(EffectiveFlushInterval());
}

void ThincServer::InternPayload(Command* cmd) {
  if (cmd->type() == MsgType::kRaw) {
    static_cast<RawCommand*>(cmd)->InternPayload(payloads_);
  }
}

// --- Video -------------------------------------------------------------------

int32_t ThincServer::OnVideoStreamCreate(int32_t src_width, int32_t src_height,
                                         const Rect& dst) {
  int32_t id = next_stream_id_++;
  streams_[id] = VideoStreamState{src_width, src_height, dst};
  if (!connected_) {
    return id;  // geometry parked; re-announced on Attach()
  }
  AnnounceStream(id, streams_[id]);
  ScheduleFlush(0);
  return id;
}

void ThincServer::OnVideoFrame(int32_t stream_id, const Yv12Frame& frame) {
  auto it = streams_.find(stream_id);
  THINC_CHECK(it != streams_.end());
  if (!connected_) {
    // Server-side drop, same policy as frames outdated before transmission.
    ++video_frames_dropped_;
    return;
  }
  // Ladder decimation: keep the first frame of every group of `decim` (the
  // phase counter runs at every level so engaging the ladder mid-stream
  // stays aligned to the same group boundaries).
  const int decim = options_.ladder.video_decimation[degradation_level_];
  const int64_t frame_index = it->second.frames_seen++;
  if (decim > 1 && frame_index % decim != 0) {
    ++video_frames_dropped_;
    ++video_frames_decimated_;
    return;
  }
  const Yv12Frame* to_send = &frame;
  Yv12Frame downscaled;
  if (viewport_.has_value()) {
    // Server-side video resize: bandwidth shrinks with the viewport while
    // the client hardware still scales to its own screen (Section 8.3).
    int32_t dw = std::max<int32_t>(2, frame.width * viewport_->num / viewport_->den);
    int32_t dh = std::max<int32_t>(2, frame.height * viewport_->num / viewport_->den);
    cpu_->Charge(static_cast<double>(frame.width) * frame.height *
                 cpucost::kResamplePerPixel * 0.5);
    downscaled = Yv12Downscale(frame, dw, dh);
    to_send = &downscaled;
  }
  WireWriter w(MsgType::kVideoFrame, &arena_);
  w.I32(stream_id);
  w.I32(to_send->width);
  w.I32(to_send->height);
  // Server timestamp: audio and video carry the same clock so the client
  // can preserve their synchronization (Section 4.2).
  w.I64(loop_->now());
  std::vector<uint8_t> packed = to_send->Pack();
  cpu_->Charge(0.002 * static_cast<double>(packed.size()));
  w.Bytes(packed);
  EnqueueVideoFrame(stream_id, w.Finish());
}

void ThincServer::EnqueueVideoFrame(int32_t stream_id, ByteBuffer wire_frame) {
  // Client-buffer semantics for video: a frame still waiting (unstarted)
  // when its successor arrives is outdated — drop it, keep the fresh one.
  for (auto& item : video_queue_) {
    if (item.stream_id == stream_id) {
      item.frame = std::move(wire_frame);
      ++video_frames_dropped_;
      ScheduleFlush(0);
      return;
    }
  }
  video_queue_.push_back(QueuedVideoFrame{std::move(wire_frame), stream_id});
  ScheduleFlush(0);
}

void ThincServer::OnVideoStreamMove(int32_t stream_id, const Rect& dst) {
  auto it = streams_.find(stream_id);
  THINC_CHECK(it != streams_.end());
  if (reference_.has_value()) {
    // The vacated rect holds overlay video on the client but untracked
    // content in the reference; the display updates that repaint it must
    // go intra until they land.
    reference_->MarkStale(Region(it->second.dst));
  }
  it->second.dst = dst;
  if (!connected_) {
    return;  // Attach() re-announces the stream at its latest geometry
  }
  WireWriter w(MsgType::kVideoMove, &arena_);
  w.I32(stream_id);
  w.RectVal(ToViewport(dst));
  audio_queue_.push_back(w.Finish());
  ScheduleFlush(0);
}

void ThincServer::OnVideoStreamDestroy(int32_t stream_id) {
  auto it = streams_.find(stream_id);
  if (it != streams_.end()) {
    if (reference_.has_value()) {
      reference_->MarkStale(Region(it->second.dst));  // as in OnVideoStreamMove
    }
    streams_.erase(it);
  }
  std::erase_if(video_queue_, [stream_id](const QueuedVideoFrame& item) {
    return item.stream_id == stream_id;
  });
  if (!connected_) {
    return;  // a reattached client never learns of the dead stream
  }
  WireWriter w(MsgType::kVideoTeardown, &arena_);
  w.I32(stream_id);
  audio_queue_.push_back(w.Finish());
  ScheduleFlush(0);
}

void ThincServer::OnInputEvent(Point location) {
  Point scaled = location;
  if (viewport_.has_value()) {
    scaled = Point{location.x * viewport_->num / viewport_->den,
                   location.y * viewport_->num / viewport_->den};
  }
  scheduler_.NoteInput(scaled, loop_->now());
}

// --- Audio -------------------------------------------------------------------

void ThincServer::SubmitAudio(std::span<const uint8_t> pcm, SimTime timestamp) {
  if (!connected_) {
    return;  // no listener; stale audio is worthless after reconnect
  }
  WireWriter w(MsgType::kAudio, &arena_);
  w.I64(timestamp);
  w.U32(static_cast<uint32_t>(pcm.size()));
  w.Bytes(pcm);
  audio_queue_.push_back(w.Finish());
  ScheduleFlush(0);
}

// --- Delivery ----------------------------------------------------------------

void ThincServer::ScheduleFlush(SimTime delay) {
  if (flush_scheduled_) {
    return;
  }
  flush_scheduled_ = true;
  loop_->Schedule(delay, [this] {
    flush_scheduled_ = false;
    Flush();
  });
}

size_t ThincServer::CommitBytes(const ByteBuffer& bytes, size_t* cursor) {
  size_t space = conn_->FreeSpace(Transport::kServer);
  size_t n = std::min(space, bytes.size() - *cursor);
  if (n == 0) {
    return 0;
  }
  size_t sent;
  if (tx_cipher_.has_value()) {
    // The keystream transform needs private bytes: copy once, then cipher
    // in place. (The shared frame must stay pristine for other viewers.)
    std::vector<uint8_t> chunk(bytes.begin() + *cursor, bytes.begin() + *cursor + n);
    BufferStats::Get().NoteCopy(static_cast<int64_t>(n));
    tx_cipher_->Process(chunk, chunk);
    cpu_->Charge(cpucost::kRc4PerByte * static_cast<double>(n));
    sent = conn_->Send(Transport::kServer, chunk);
  } else {
    // Zero-copy commit: the connection queues a view of the encoded frame.
    sent = conn_->Send(Transport::kServer, bytes.Slice(*cursor, n));
  }
  THINC_CHECK(sent == n);  // we never offer more than FreeSpace()
  *cursor += n;
  return n;
}

void ThincServer::StartFrame(ByteBuffer frame, std::unique_ptr<Command> cmd) {
  inflight_.frame = std::move(frame);
  inflight_.cursor = 0;
  inflight_.trace_id = cmd != nullptr ? cmd->trace_id() : 0;
  if (reference_.has_value()) {
    inflight_.committing = std::move(cmd);
  }
}

bool ThincServer::PickUpSharedFrame(SimTime now) {
  ByteBuffer cached = options_.shared_frame_cache->Lookup(inflight_.cache_key);
  if (cached.empty()) {
    return false;
  }
  Telemetry::Get().StampEncode(inflight_.cmd->trace_id(), now, now,
                               /*cache_hit=*/true);
  StartFrame(std::move(cached), std::move(inflight_.cmd));
  return true;
}

void ThincServer::StartEncode(SimTime now) {
  InFlight& f = inflight_;
  const double cost_us = f.cmd->EncodeCpuCost();
  const bool raw = f.cmd->type() == MsgType::kRaw;
  const int slices =
      raw && cost_us > kEncodeSliceCostUs
          ? std::min(cpu_->cores(), static_cast<int>(cost_us / kEncodeSliceCostUs))
          : 1;
  f.encode_start = now;
  if (slices > 1) {
    f.ready = cpu_->ChargeParallel(cost_us, slices);
  } else {
    f.ready = cpu_->Charge(cost_us);
  }
  f.prepared = true;
  if (raw) {
    ++BufferStats::Get().encode_charges;
  }
  if (!f.cache_key.empty()) {
    options_.shared_frame_cache->NoteEncodeStarted(f.cache_key, f.ready);
  }
}

void ThincServer::Flush() {
  if (!connected_) {
    return;  // parked; Attach() + the client's resync hello resume delivery
  }
  if (full_refresh_needed_) {
    // Materialize the coalesced backlog as one snapshot of the live screen.
    full_refresh_needed_ = false;
    SendFullRefresh();
  }
  if (!options_.server_push && !update_requested_) {
    return;
  }
  const SimTime now = loop_->now();
  InFlight& f = inflight_;
  size_t committed = 0;
  while (true) {
    // 1. Finish any partially committed frame first (stream coherence).
    if (!f.frame.empty()) {
      const size_t n = CommitBytes(f.frame, &f.cursor);
      committed += n;
      if (f.trace_id != 0 && n > 0) {
        Telemetry::Get().StampCommit(f.trace_id, now, static_cast<int64_t>(n));
      }
      if (f.cursor < f.frame.size()) {
        return;  // socket full; writable callback resumes us
      }
      if (f.trace_id != 0) {
        Telemetry& telemetry = Telemetry::Get();
        telemetry.NoteFrameCommitted(f.trace_id, now);
        telemetry.PushWireTrace(conn_, f.trace_id);
        f.trace_id = 0;
      }
      f.frame = ByteBuffer();
      if (f.committing != nullptr) {
        // The display command behind this frame is now fully committed: the
        // client will apply it in this exact order.
        reference_->Apply(*f.committing, window_server_->screen());
        f.committing.reset();
      }
      continue;
    }
    // 2. A popped display command in progress.
    if (f.cmd != nullptr) {
      if (!f.prepared) {
        if (reference_.has_value()) {
          // Adapt layer: a full-rect RAW update with a clean reference may
          // re-encode as a temporal delta. Runs before the shared-frame
          // cache on purpose: deltas are keyed to one viewer's reference and
          // must never be shared.
          std::vector<Rect> overlays;
          for (const auto& [id, st] : streams_) {
            overlays.push_back(st.dst);
          }
          f.cmd = reference_->MaybeDelta(std::move(f.cmd), degradation_level_,
                                         overlays, cpu_, payloads_);
        }
        // Session sharing: if another viewer's server already encoded this
        // exact frame (same content, same geometry), reuse the bytes and
        // skip the encode CPU charge; if that encode is still in flight,
        // wait for its completion instead of starting a duplicate. Either
        // way encode cost amortizes to ~1 encode per frame across N viewers.
        f.cache_key.clear();
        f.shared_wait = false;
        if (options_.shared_frame_cache != nullptr &&
            f.cmd->type() == MsgType::kRaw) {
          f.cache_key = static_cast<RawCommand*>(f.cmd.get())->SharedContentKey();
          if (PickUpSharedFrame(now)) {
            continue;
          }
          const int64_t other_ready =
              options_.shared_frame_cache->PendingEncodeReady(f.cache_key);
          if (other_ready >= now) {
            f.ready = other_ready;
            f.prepared = true;
            f.shared_wait = true;
          }
        }
        if (!f.prepared) {
          StartEncode(now);
        }
      }
      if (now < f.ready) {
        // Encoding still "running" on the server CPU.
        loop_->ScheduleAt(f.ready, [this] { Flush(); });
        return;
      }
      if (f.shared_wait) {
        // We idled while another server encoded this frame; pick it up. If
        // the encoding server never delivered (reset, or its entry was
        // evicted), encode ourselves after all.
        f.shared_wait = false;
        if (!PickUpSharedFrame(now)) {
          StartEncode(now);
        }
        continue;
      }
      const BufferStats& stats = BufferStats::Get();
      const int64_t cache_hits_before =
          stats.payload_encode_hits + stats.frame_cache_hits;
      ByteBuffer frame = f.cmd->EncodeFrame(&arena_);
      if (f.cmd->trace_id() != 0) {
        const bool cache_hit =
            stats.payload_encode_hits + stats.frame_cache_hits >
            cache_hits_before;
        Telemetry::Get().StampEncode(f.cmd->trace_id(), f.encode_start,
                                     std::max(f.encode_start, f.ready),
                                     cache_hit);
      }
      if (!f.cache_key.empty()) {
        options_.shared_frame_cache->Store(f.cache_key, frame.Share());
      }
      std::unique_ptr<Command> cmd = std::move(f.cmd);
      const size_t space = conn_->FreeSpace(Transport::kServer);
      if (frame.size() > space) {
        // Split so the committed portion fits and the remainder can be
        // rescheduled by remaining size (non-blocking operation, Section 5).
        // An unsplittable command streams its bytes progressively.
        if (std::unique_ptr<Command> part = cmd->SplitOff(space)) {
          frame = part->EncodeFrame(&arena_);
          scheduler_.Reinsert(std::move(cmd));
          cmd = std::move(part);
        }
      }
      StartFrame(std::move(frame), std::move(cmd));
      continue;
    }
    // 3. Pick the next item: audio/control, then video, then the scheduler.
    if (!audio_queue_.empty()) {
      StartFrame(std::move(audio_queue_.front()), nullptr);
      audio_queue_.pop_front();
      continue;
    }
    // Ladder backlog cap, socket side (audio/control above stays exempt:
    // tiny and ordering-critical). The writable callback resumes the flush
    // as the socket drains.
    if (degradation_level_ > 0 &&
        conn_->SendBufferCapacity() - conn_->FreeSpace(Transport::kServer) >
            options_.ladder.socket_backlog_budget[degradation_level_]) {
      break;
    }
    if (!video_queue_.empty()) {
      StartFrame(std::move(video_queue_.front().frame), nullptr);
      video_queue_.pop_front();
      ++video_frames_sent_;
      continue;
    }
    f.cmd = scheduler_.PopNext(loop_->now());
    if (f.cmd == nullptr) {
      break;
    }
    f.prepared = false;
    if (options_.ladder.fidelity_subsample[degradation_level_] > 1 &&
        f.cmd->type() == MsgType::kRaw) {
      // Ladder fidelity downshift at pop time (after overwrite coalescing
      // has had its chance): resample work is charged like the viewport
      // path's server-side scaling.
      auto* raw = static_cast<RawCommand*>(f.cmd.get());
      if (raw->SubsampleFidelity(options_.ladder.fidelity_subsample[degradation_level_])) {
        cpu_->Charge(static_cast<double>(raw->rect().area()) *
                     cpucost::kResamplePerPixel);
        raw->InternPayload(payloads_);
      }
    }
    if (f.cmd->trace_id() != 0) {
      Telemetry::Get().StampPicked(f.cmd->trace_id(), now);
    }
  }
  // In pull mode a request stays armed until it has been answered with at
  // least some data; once everything buffered has gone out, it's satisfied.
  if (!options_.server_push && committed > 0) {
    update_requested_ = false;
  }
}

// --- Client messages ----------------------------------------------------------

void ThincServer::OnReceive(std::span<const uint8_t> data) {
  std::vector<uint8_t> plain(data.begin(), data.end());
  if (rx_cipher_.has_value()) {
    rx_cipher_->Process(plain, plain);
  }
  parser_.Feed(plain);
  while (auto frame = parser_.Next()) {
    HandleFrame(frame->type, frame->payload);
  }
}

void ThincServer::HandleFrame(uint8_t type, std::span<const uint8_t> payload) {
  WireReader r(payload);
  switch (static_cast<MsgType>(type)) {
    case MsgType::kInput: {
      Point p;
      int32_t button;
      int64_t timestamp;
      if (!r.PointVal(&p) || !r.I32(&button) || !r.I64(&timestamp)) {
        return;
      }
      // Client coordinates are viewport coordinates; unscale for the
      // application, keep scaled for the scheduler's real-time region.
      Point server_pt = p;
      if (viewport_.has_value()) {
        server_pt = Point{p.x * viewport_->den / viewport_->num,
                          p.y * viewport_->den / viewport_->num};
      }
      scheduler_.NoteInput(p, loop_->now());
      if (input_handler_) {
        input_handler_(server_pt, button);
      }
      return;
    }
    case MsgType::kResizeViewport: {
      int32_t w, h;
      if (!r.I32(&w) || !r.I32(&h) || w <= 0 || h <= 0) {
        return;
      }
      // Uniform scale: the tighter of the two axis ratios, if either is < 1.
      const Surface& screen = window_server_->screen();
      if (w >= screen.width() && h >= screen.height()) {
        viewport_.reset();
      } else if (static_cast<int64_t>(w) * screen.height() <=
                 static_cast<int64_t>(h) * screen.width()) {
        viewport_ = Viewport{w, screen.width()};
      } else {
        viewport_ = Viewport{h, screen.height()};
      }
      if (reference_.has_value()) {
        // Renegotiation is the only point where the server can key a fresh
        // temporal reference to provable client content; the resync refresh
        // queued below repaints what is stale (clearing it command by
        // command as it commits).
        reference_->Renegotiated(
            screen, resync_armed_ ? unacked_region_ : Region(screen.bounds()),
            viewport_.has_value());
      }
      // The renegotiation that follows an Attach() triggers the resync: the
      // region-only refresh when a migration armed one, the full screen
      // otherwise (mid-session viewport changes always take the full path —
      // resync_armed_ is only ever set between Attach() and this message).
      resync_pending_ = false;
      if (resync_armed_) {
        resync_armed_ = false;
        SendPartialRefresh(resync_region_);
        resync_region_ = Region();
      } else {
        SendFullRefresh();
      }
      return;
    }
    case MsgType::kUpdateRequest: {
      update_requested_ = true;
      Flush();
      return;
    }
    default:
      return;
  }
}

void ThincServer::SendFullRefresh() {
  SendPartialRefresh(Region(window_server_->screen().bounds()));
}

void ThincServer::SendPartialRefresh(const Region& region) {
  for (const Rect& r : region.rects()) {
    if (auto raw = RawFrom(window_server_->screen(), r)) {
      InsertOutgoing(std::move(raw));
    }
  }
}

void ThincServer::MaybeClearUnacked() {
  if (unacked_region_.empty()) {
    return;
  }
  // Sound over-approximation: only clear when everything ever generated was
  // provably delivered AND applied (clients decode synchronously on
  // delivery) — all queues empty, no coalesced snapshot or resync owed, and
  // the transport idle in both directions.
  if (!connected_ || resync_pending_ || full_refresh_needed_) {
    return;
  }
  if (scheduler_.count() != 0 || inflight_.cmd != nullptr || !audio_queue_.empty() ||
      !video_queue_.empty()) {
    return;
  }
  if (conn_ == nullptr || conn_->closed() || !conn_->Idle()) {
    return;
  }
  unacked_region_ = Region();
}

size_t ThincServer::MigrationDeltaBudgetBytes() const {
  return kBacklogCapFramebuffers * FramebufferBytes();
}

size_t ThincServer::MigrationStateBytes() {
  MaybeClearUnacked();
  const size_t dirty =
      static_cast<size_t>(unacked_region_.Area()) * sizeof(Pixel);
  if (dirty > MigrationDeltaBudgetBytes()) {
    return kMigrationDescriptorBytes + FramebufferBytes();
  }
  return kMigrationDescriptorBytes + dirty;
}

void ThincServer::ArmDifferentialResync() {
  const size_t dirty =
      static_cast<size_t>(unacked_region_.Area()) * sizeof(Pixel);
  if (dirty > MigrationDeltaBudgetBytes()) {
    // Delta over budget: the plain full-refresh resync is cheaper.
    resync_armed_ = false;
    return;
  }
  resync_region_ = unacked_region_;
  resync_armed_ = true;
}

}  // namespace thinc
