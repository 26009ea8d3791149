// THINC protocol command objects (Section 4 of the paper).
//
// Commands are the unit THINC's translation layer produces, queues,
// schedules, clips, merges, splits, and finally encodes onto the wire. They
// are "implemented in an object-oriented fashion ... based on a generic
// interface that allows the THINC server to operate on the commands without
// having to know each command's specific details" — this header is that
// interface.
//
// Overlap classes (Section 4/5):
//   * kPartial    — opaque; may be partially overwritten, so the queue clips
//                   it (RAW).
//   * kComplete   — opaque; evicted only when fully covered, otherwise kept
//                   whole. Fills (SFILL/PFILL/opaque BITMAP) are complete:
//                   they are small, so they always land in the first
//                   scheduler queue and FIFO order keeps them safe.
//   * kTransparent— output depends on content drawn before it (transparent-
//                   background BITMAP text, COPY reading the framebuffer);
//                   never overwrites queued commands and must be scheduled
//                   after its dependencies.
#ifndef THINC_SRC_CORE_COMMAND_H_
#define THINC_SRC_CORE_COMMAND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/protocol/wire.h"
#include "src/raster/bitmap.h"
#include "src/raster/surface.h"
#include "src/util/buffer.h"
#include "src/util/event_loop.h"
#include "src/util/geometry.h"
#include "src/util/pixel.h"
#include "src/util/region.h"

namespace thinc {

enum class OverlapClass {
  kPartial,
  kComplete,
  kTransparent,
};

class Command {
 public:
  virtual ~Command() = default;

  virtual MsgType type() const = 0;
  virtual OverlapClass overlap() const = 0;
  // Destination region in the target drawable's coordinates.
  virtual const Region& region() const = 0;

  // Size in bytes of the (remaining) wire encoding; drives SRSF scheduling.
  virtual size_t EncodedSize() const = 0;
  // Produces the complete wire frame (header + payload) as a ref-counted
  // buffer: encoded once, shared by reference from there on. When `arena`
  // is given, transient frames are emitted into a recycled slab.
  ByteBuffer EncodeFrame(FrameArena* arena = nullptr) const {
    return EncodeFrameInto(arena);
  }
  // Estimated CPU cost (reference-speed microseconds) of encoding, charged
  // to the server at flush time. RAW compression dominates; everything else
  // is near-free.
  virtual double EncodeCpuCost() const { return 0.5; }

  virtual std::unique_ptr<Command> Clone() const = 0;

  // Moves the command's output (and any framebuffer-relative references) by
  // (dx, dy) — used when offscreen command groups are replayed at their
  // onscreen position.
  virtual void Translate(int32_t dx, int32_t dy) = 0;

  // Restricts the command's output to `keep`. Returns false if nothing
  // remains (the command should then be discarded).
  virtual bool RestrictTo(const Region& keep) = 0;

  // Splits off a leading portion whose encoded frame fits in `max_bytes`,
  // mutating *this to the remainder. Returns nullptr if this command cannot
  // (or need not) be split — the caller then postpones the whole command.
  // Only RAW implements this; all other commands encode small.
  virtual std::unique_ptr<Command> SplitOff(size_t max_bytes) { return nullptr; }

  // Applies the command to a framebuffer — the exact operation the client
  // performs. Shared between the real client and replay-based tests.
  virtual void Apply(Surface* fb) const = 0;

  // Arrival sequence within the update scheduler (assigned at insert; a
  // split remainder keeps its original sequence). Used to distinguish
  // content a buffered COPY depends on (earlier arrivals) from content
  // drawn after it.
  int64_t schedule_seq() const { return schedule_seq_; }
  void set_schedule_seq(int64_t seq) { schedule_seq_ = seq; }

  // Virtual time the command entered the update scheduler (-1 before
  // insertion; a split remainder keeps the original stamp so its age keeps
  // accruing). Drives the scheduler's starvation limit under overload
  // degradation.
  SimTime queued_at() const { return queued_at_; }
  void set_queued_at(SimTime t) { queued_at_ = t; }

  // Telemetry lifecycle span id (0 = untraced). Assigned when the command
  // enters the update scheduler with spans enabled; a SplitOff() part keeps
  // the parent's id (one update, several wire frames), while Clone() does
  // not carry it (a clone is a new piece of work).
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

 protected:
  virtual ByteBuffer EncodeFrameInto(FrameArena* arena) const = 0;

 private:
  int64_t schedule_seq_ = -1;
  SimTime queued_at_ = -1;
  uint64_t trace_id_ = 0;
};

// ---------------------------------------------------------------------------

// RAW: pixel data for a region. Holds the pixels of its bounding rect and a
// (possibly clipped) region within it. Consecutive scanline stores merge via
// TryAppendRows (the paper's aggregation of rasterized scan lines).
class RawCommand : public Command {
 public:
  RawCommand(const Rect& rect, std::vector<Pixel> pixels);
  // Shares `pixels` — the zero-copy construction used by Clone()/SplitOff()
  // and broadcast fan-out.
  RawCommand(const Rect& rect, PixelBuffer pixels);

  MsgType type() const override { return MsgType::kRaw; }
  OverlapClass overlap() const override { return OverlapClass::kPartial; }
  const Region& region() const override { return region_; }
  size_t EncodedSize() const override;
  double EncodeCpuCost() const override;
  std::unique_ptr<Command> Clone() const override;
  void Translate(int32_t dx, int32_t dy) override;
  bool RestrictTo(const Region& keep) override;
  std::unique_ptr<Command> SplitOff(size_t max_bytes) override;
  void Apply(Surface* fb) const override;

  // Merges `rect/pixels` lying directly below this command's rect (same x
  // and width). Only valid while this command is unclipped. Returns false
  // if geometry does not line up.
  bool TryAppendRows(const Rect& rect, std::span<const Pixel> pixels);

  const Rect& rect() const { return rect_; }
  // Backing pixels of rect() (row-major). Meaningful for merge when the
  // command is unclipped (region() == rect()).
  std::span<const Pixel> PixelData() const { return pixels_.view(); }
  // Identity of the shared pixel payload (changes on mutation). Together
  // with EncodeIdentityKey() it uniquely names this command's wire frame.
  uint64_t payload_content_id() const { return pixels_.content_id(); }
  bool payload_shared() const { return pixels_.shared(); }
  // Exact key for encode-result caches: payload identity + everything the
  // wire encoding depends on (codec flag, bounding rect, region rects).
  std::string EncodeIdentityKey() const;
  // Content-addressed variant for CROSS-payload caches (session sharing):
  // hashes the pixel bytes instead of the allocation identity, so commands
  // holding byte-identical but separately-allocated payloads (e.g. each
  // viewer's scanline-merged copy of the same text) map to one key.
  std::string SharedContentKey() const;

  // Compression is decided per command: small updates go uncompressed,
  // larger ones use the PNG-like codec when it wins (Section 7).
  static constexpr int64_t kCompressThresholdPixels = 2048;

  // Disables the PNG-like compression attempt (ablation knob).
  void set_compression_enabled(bool enabled) {
    if (compression_enabled_ != enabled) {
      compression_enabled_ = enabled;
      InvalidateCache();
    }
  }

  // Overrides the per-rect area floor below which compression is not
  // attempted. Viewport-resampled pieces fragment an already-large update
  // into rects that the default heuristic misjudges as "too small to be
  // worth compressing"; with a floor of 0 every rect attempts compression
  // (the encoder keeps the uncompressed form whenever the attempt loses, so
  // lowering the floor trades encode CPU, never bytes).
  void set_compress_floor(int64_t pixels) {
    if (compress_floor_ != pixels) {
      compress_floor_ = pixels;
      InvalidateCache();
    }
  }

  // Reads the pixels of `r` (must be inside rect()) row-major.
  std::vector<Pixel> ExtractRect(const Rect& r) const;

  // Shares the backing payload (CoW) — lets the adapt layer hand the same
  // pixels to a DeltaCommand without copying.
  PixelBuffer SharePayload() const { return pixels_.Share(); }

  // Swaps the payload for a live one with identical pixels from `pool`, if
  // any (PayloadPool::Intern). The pixels, and so every encoding, stay the
  // same; only the encode cache consulted changes.
  bool InternPayload(PayloadPool* pool) { return pool->Intern(&pixels_); }

  // Overload-ladder fidelity downshift (server-side scaling, Section 7's
  // resample machinery turned into a degradation knob): replaces the payload
  // with a box-downscaled (by `factor`) then pixel-replicated version of
  // itself. Geometry and wire format are unchanged — the update simply
  // carries 1/factor^2 of the information, which the PNG-like codec turns
  // into a much smaller frame (replicated rows and columns filter to almost
  // nothing). Applied at most once per command; payloads too small to
  // compress are left alone. Returns true when the payload was transformed;
  // the caller charges the resample CPU.
  bool SubsampleFidelity(int32_t factor);

 protected:
  ByteBuffer EncodeFrameInto(FrameArena* arena) const override;

 private:
  void InvalidateCache() const;
  void EnsureEncoded() const;

  Rect rect_;
  PixelBuffer pixels_;  // rect_.width * rect_.height, CoW-shared by clones
  Region region_;       // subset of rect_ actually drawn
  bool compression_enabled_ = true;
  int64_t compress_floor_ = kCompressThresholdPixels;
  bool fidelity_degraded_ = false;  // SubsampleFidelity() applied

  // Lazy encode cache (cleared by any mutation). The frame itself may also
  // live in the payload's shared cache, so commands cloned from one payload
  // encode identical geometry exactly once.
  mutable bool encoded_valid_ = false;
  mutable ByteBuffer encoded_frame_;
  mutable double encode_cost_ = 0;
};

// RAW_DELTA: temporal re-encode of a full-rect RAW update against the
// previous delivered content of the same rect (src/codec/delta.h). Produced
// at flush time by the adapt layer — never by the translation layer — so it
// bypasses the scheduler's clip/merge machinery entirely: the payload covers
// exactly rect() and cannot be re-clipped without the reference (RestrictTo
// only accepts regions that keep the rect whole, SplitOff declines and the
// frame streams progressively).
//
// Two construction sites:
//   * server side — carries the reconstructed pixels alongside the encoded
//     payload, so Apply() (used to advance the server's reference surface)
//     is an exact, cheap overwrite;
//   * client side (DecodeCommand) — payload only; Apply() snapshots the
//     destination rect from the framebuffer (which holds the reference by
//     the in-order delivery invariant), decodes against it, and writes the
//     result back. Like CopyCommand::Apply, all reads stage before writes.
class DeltaCommand : public Command {
 public:
  // Server side. `pixels` is the full content of `rect` (row-major),
  // `payload` the delta codec bytes, `encode_cost` the reference-speed CPU
  // of producing this frame (including the intra attempt it replaced).
  DeltaCommand(const Rect& rect, PixelBuffer pixels,
               std::vector<uint8_t> payload, double encode_cost);
  // Client side: payload only, already structurally validated.
  DeltaCommand(const Rect& rect, std::vector<uint8_t> payload);

  // Wire size of a delta frame carrying `payload_bytes` of payload.
  static size_t EncodedSizeFor(size_t payload_bytes);

  MsgType type() const override { return MsgType::kRawDelta; }
  OverlapClass overlap() const override { return OverlapClass::kTransparent; }
  const Region& region() const override { return region_; }
  size_t EncodedSize() const override { return EncodedSizeFor(payload_.size()); }
  double EncodeCpuCost() const override { return encode_cost_; }
  std::unique_ptr<Command> Clone() const override;
  void Translate(int32_t dx, int32_t dy) override;
  bool RestrictTo(const Region& keep) override;
  void Apply(Surface* fb) const override;

  const Rect& rect() const { return rect_; }
  std::span<const uint8_t> payload() const { return payload_; }

 protected:
  ByteBuffer EncodeFrameInto(FrameArena* arena) const override;

 private:
  Rect rect_;
  Region region_;
  PixelBuffer pixels_;  // server side only; empty on the client
  std::vector<uint8_t> payload_;
  double encode_cost_ = 0;
};

// COPY: client-side framebuffer copy. Stores the destination region plus the
// source offset delta (src pixel = dst pixel + delta), so clipping the
// destination keeps the mapping intact.
class CopyCommand : public Command {
 public:
  CopyCommand(const Region& dst_region, Point delta);

  MsgType type() const override { return MsgType::kCopy; }
  OverlapClass overlap() const override { return OverlapClass::kTransparent; }
  const Region& region() const override { return region_; }
  size_t EncodedSize() const override;
  ByteBuffer EncodeFrameInto(FrameArena* arena) const override;
  std::unique_ptr<Command> Clone() const override;
  void Translate(int32_t dx, int32_t dy) override;
  bool RestrictTo(const Region& keep) override;
  void Apply(Surface* fb) const override;

  // Region the copy *reads*; its scheduling dependencies cover this too.
  Region SourceRegion() const { return region_.Translated(delta_.x, delta_.y); }
  Point delta() const { return delta_; }

 private:
  Region region_;
  Point delta_;
};

// SFILL: solid color fill.
class SfillCommand : public Command {
 public:
  SfillCommand(const Region& region, Pixel color);

  MsgType type() const override { return MsgType::kSfill; }
  OverlapClass overlap() const override { return OverlapClass::kComplete; }
  const Region& region() const override { return region_; }
  size_t EncodedSize() const override;
  ByteBuffer EncodeFrameInto(FrameArena* arena) const override;
  std::unique_ptr<Command> Clone() const override;
  void Translate(int32_t dx, int32_t dy) override;
  bool RestrictTo(const Region& keep) override;
  void Apply(Surface* fb) const override;

  Pixel color() const { return color_; }

 private:
  Region region_;
  Pixel color_;
};

// PFILL: tile a pattern across a region.
class PfillCommand : public Command {
 public:
  PfillCommand(const Region& region, Surface tile, Point origin);

  MsgType type() const override { return MsgType::kPfill; }
  OverlapClass overlap() const override { return OverlapClass::kComplete; }
  const Region& region() const override { return region_; }
  size_t EncodedSize() const override;
  ByteBuffer EncodeFrameInto(FrameArena* arena) const override;
  std::unique_ptr<Command> Clone() const override;
  void Translate(int32_t dx, int32_t dy) override;
  bool RestrictTo(const Region& keep) override;
  void Apply(Surface* fb) const override;

  const Surface& tile() const { return tile_; }
  Point origin() const { return origin_; }

 private:
  Region region_;
  Surface tile_;
  Point origin_;
};

// BITMAP: stipple fill — a 1-bit mask applying fg (and bg when opaque).
class BitmapCommand : public Command {
 public:
  BitmapCommand(const Region& region, Bitmap bitmap, Point origin, Pixel fg, Pixel bg,
                bool transparent_bg);

  MsgType type() const override { return MsgType::kBitmap; }
  OverlapClass overlap() const override {
    return transparent_bg_ ? OverlapClass::kTransparent : OverlapClass::kComplete;
  }
  const Region& region() const override { return region_; }
  size_t EncodedSize() const override;
  ByteBuffer EncodeFrameInto(FrameArena* arena) const override;
  std::unique_ptr<Command> Clone() const override;
  void Translate(int32_t dx, int32_t dy) override;
  bool RestrictTo(const Region& keep) override;
  void Apply(Surface* fb) const override;

  const Bitmap& bitmap() const { return bitmap_; }
  Point origin() const { return origin_; }
  Pixel fg() const { return fg_; }
  Pixel bg() const { return bg_; }
  bool transparent_bg() const { return transparent_bg_; }

 private:
  Region region_;
  Bitmap bitmap_;
  Point origin_;
  Pixel fg_;
  Pixel bg_;
  bool transparent_bg_;
};

// Decodes a received frame back into a command (client side). Returns null
// on malformed input.
std::unique_ptr<Command> DecodeCommand(uint8_t type,
                                       std::span<const uint8_t> payload);

}  // namespace thinc

#endif  // THINC_SRC_CORE_COMMAND_H_
