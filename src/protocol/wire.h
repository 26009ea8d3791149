// Wire-format primitives: little-endian bounds-checked serialization, frame
// framing, and the THINC protocol message types.
//
// Every message is framed as [u8 type][u32 payload length][payload]. The
// display command payloads mirror Table 1 of the paper: RAW, COPY, SFILL,
// PFILL, BITMAP, plus the video stream messages (Section 4.2), audio,
// resize, and client input. All commands carry 24-bit color with an alpha
// channel (pixels are packed 0xAARRGGBB on the wire).
#ifndef THINC_SRC_PROTOCOL_WIRE_H_
#define THINC_SRC_PROTOCOL_WIRE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/raster/bitmap.h"
#include "src/util/buffer.h"
#include "src/util/geometry.h"
#include "src/util/region.h"

namespace thinc {

// THINC protocol message types. Values 1..5 are the display commands of
// Table 1 in the paper.
enum class MsgType : uint8_t {
  kRaw = 1,
  kCopy = 2,
  kSfill = 3,
  kPfill = 4,
  kBitmap = 5,
  kVideoSetup = 6,
  kVideoFrame = 7,
  kVideoMove = 8,
  kVideoTeardown = 9,
  kAudio = 10,
  kResizeViewport = 11,  // client -> server
  kInput = 12,           // client -> server
  kUpdateRequest = 13,   // client -> server (client-pull mode only)
  // Temporal extension of RAW: pixels delta-encoded against the previous
  // delivered content of the same rect (src/codec/delta.h). Not in the
  // paper's Table 1; negotiated per connection by the adapt layer.
  kRawDelta = 14,
};

constexpr size_t kFrameHeaderBytes = 5;  // u8 type + u32 length

// Stable short name ("RAW", "SFILL", "VIDEO_FRAME", ...) for telemetry
// labels and trace exports; "?" for values outside the enum.
const char* MsgTypeName(MsgType type);
inline const char* MsgTypeName(uint8_t type) {
  return MsgTypeName(static_cast<MsgType>(type));
}

// Append-only little-endian writer.
//
// Two modes:
//   * Payload mode (default constructor): writes accumulate in an internal
//     vector; Take() moves the payload out (pair with BuildFrame()).
//   * Frame mode (MsgType constructor): the 5-byte frame header is written
//     in place up front — optionally into a recycled FrameArena slab — and
//     Finish() patches the length and *moves* the completed frame out as a
//     ref-counted ByteBuffer. No post-hoc header copy ever happens.
class WireWriter {
 public:
  WireWriter() : buf_(&own_) {}
  explicit WireWriter(MsgType type, FrameArena* arena = nullptr);

  void U8(uint8_t v) { buf_->push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v);
  void Bytes(std::span<const uint8_t> data);
  void RectVal(const Rect& r);
  void PointVal(const Point& p);
  void RegionVal(const Region& region);
  void BitmapVal(const Bitmap& bitmap);

  // Pre-sizes the buffer for `total` bytes of output (header included in
  // frame mode) so exactly-sized writes never reallocate.
  void Reserve(size_t total) { buf_->reserve(total); }

  // Frame mode includes the header in size()/data().
  size_t size() const { return buf_->size(); }
  const std::vector<uint8_t>& data() const { return *buf_; }
  // Payload mode only.
  std::vector<uint8_t> Take();
  // Frame mode only: patches the header length and moves the frame out.
  // The writer is spent afterwards.
  ByteBuffer Finish();

 private:
  std::vector<uint8_t> own_;
  std::shared_ptr<internal::ByteStorage> slab_;  // frame mode with an arena
  std::vector<uint8_t>* buf_;
  bool frame_mode_ = false;
};

// Bounds-checked reader. All accessors return false (or nullopt) instead of
// reading past the end, so a malformed or truncated frame can never crash
// the client — fuzz tests in tests/wire_test.cc rely on this.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool I32(int32_t* v);
  bool I64(int64_t* v);
  bool Bytes(size_t n, std::vector<uint8_t>* out);
  bool RectVal(Rect* r);
  bool PointVal(Point* p);
  bool RegionVal(Region* region);
  bool BitmapVal(Bitmap* bitmap);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// Builds a complete frame: header + payload.
std::vector<uint8_t> BuildFrame(MsgType type, std::span<const uint8_t> payload);

// Incremental frame parser: feed arbitrary byte chunks (as the network
// delivers them), get complete frames out.
class FrameParser {
 public:
  struct Frame {
    uint8_t type;
    std::vector<uint8_t> payload;
  };

  void Feed(std::span<const uint8_t> data);
  // Extracts the next complete frame, if any.
  std::optional<Frame> Next();
  size_t buffered_bytes() const { return buf_.size(); }

 private:
  std::deque<uint8_t> buf_;
};

}  // namespace thinc

#endif  // THINC_SRC_PROTOCOL_WIRE_H_
