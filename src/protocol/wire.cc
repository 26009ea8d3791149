#include "src/protocol/wire.h"

#include <cstring>

#include "src/util/logging.h"

namespace thinc {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kRaw:
      return "RAW";
    case MsgType::kCopy:
      return "COPY";
    case MsgType::kSfill:
      return "SFILL";
    case MsgType::kPfill:
      return "PFILL";
    case MsgType::kBitmap:
      return "BITMAP";
    case MsgType::kVideoSetup:
      return "VIDEO_SETUP";
    case MsgType::kVideoFrame:
      return "VIDEO_FRAME";
    case MsgType::kVideoMove:
      return "VIDEO_MOVE";
    case MsgType::kVideoTeardown:
      return "VIDEO_TEARDOWN";
    case MsgType::kAudio:
      return "AUDIO";
    case MsgType::kResizeViewport:
      return "RESIZE_VIEWPORT";
    case MsgType::kInput:
      return "INPUT";
    case MsgType::kRawDelta:
      return "RAW_DELTA";
    case MsgType::kUpdateRequest:
      return "UPDATE_REQUEST";
  }
  return "?";
}

WireWriter::WireWriter(MsgType type, FrameArena* arena) : frame_mode_(true) {
  if (arena != nullptr) {
    slab_ = arena->Acquire();
    buf_ = &slab_->bytes;
  } else {
    buf_ = &own_;
  }
  // Header placeholder; Finish() patches the length in place.
  buf_->push_back(static_cast<uint8_t>(type));
  buf_->insert(buf_->end(), kFrameHeaderBytes - 1, 0);
}

std::vector<uint8_t> WireWriter::Take() {
  THINC_CHECK_MSG(!frame_mode_, "Take() is for payload-mode writers");
  return std::move(own_);
}

ByteBuffer WireWriter::Finish() {
  THINC_CHECK_MSG(frame_mode_, "Finish() is for frame-mode writers");
  uint32_t len = static_cast<uint32_t>(buf_->size() - kFrameHeaderBytes);
  (*buf_)[1] = static_cast<uint8_t>(len);
  (*buf_)[2] = static_cast<uint8_t>(len >> 8);
  (*buf_)[3] = static_cast<uint8_t>(len >> 16);
  (*buf_)[4] = static_cast<uint8_t>(len >> 24);
  frame_mode_ = false;
  if (slab_ != nullptr) {
    slab_->Track();
    size_t size = slab_->bytes.size();
    return ByteBuffer(std::move(slab_), 0, size);
  }
  return ByteBuffer::Adopt(std::move(own_));
}

void WireWriter::U16(uint16_t v) {
  buf_->push_back(static_cast<uint8_t>(v));
  buf_->push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  buf_->push_back(static_cast<uint8_t>(v));
  buf_->push_back(static_cast<uint8_t>(v >> 8));
  buf_->push_back(static_cast<uint8_t>(v >> 16));
  buf_->push_back(static_cast<uint8_t>(v >> 24));
}

void WireWriter::I64(int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  U32(static_cast<uint32_t>(u));
  U32(static_cast<uint32_t>(u >> 32));
}

void WireWriter::Bytes(std::span<const uint8_t> data) {
  buf_->insert(buf_->end(), data.begin(), data.end());
}

void WireWriter::RectVal(const Rect& r) {
  I32(r.x);
  I32(r.y);
  I32(r.width);
  I32(r.height);
}

void WireWriter::PointVal(const Point& p) {
  I32(p.x);
  I32(p.y);
}

void WireWriter::RegionVal(const Region& region) {
  U32(static_cast<uint32_t>(region.rect_count()));
  for (const Rect& r : region.rects()) {
    RectVal(r);
  }
}

void WireWriter::BitmapVal(const Bitmap& bitmap) {
  I32(bitmap.width());
  I32(bitmap.height());
  Bytes(bitmap.bytes());
}

bool WireReader::U8(uint8_t* v) {
  if (pos_ + 1 > data_.size()) {
    return false;
  }
  *v = data_[pos_++];
  return true;
}

bool WireReader::U16(uint16_t* v) {
  if (pos_ + 2 > data_.size()) {
    return false;
  }
  *v = static_cast<uint16_t>(data_[pos_]) |
       (static_cast<uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return true;
}

bool WireReader::U32(uint32_t* v) {
  if (pos_ + 4 > data_.size()) {
    return false;
  }
  *v = static_cast<uint32_t>(data_[pos_]) |
       (static_cast<uint32_t>(data_[pos_ + 1]) << 8) |
       (static_cast<uint32_t>(data_[pos_ + 2]) << 16) |
       (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
  pos_ += 4;
  return true;
}

bool WireReader::I32(int32_t* v) {
  uint32_t u;
  if (!U32(&u)) {
    return false;
  }
  *v = static_cast<int32_t>(u);
  return true;
}

bool WireReader::I64(int64_t* v) {
  uint32_t lo, hi;
  if (!U32(&lo) || !U32(&hi)) {
    return false;
  }
  *v = static_cast<int64_t>((static_cast<uint64_t>(hi) << 32) | lo);
  return true;
}

bool WireReader::Bytes(size_t n, std::vector<uint8_t>* out) {
  if (pos_ + n > data_.size()) {
    return false;
  }
  out->assign(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return true;
}

bool WireReader::RectVal(Rect* r) {
  return I32(&r->x) && I32(&r->y) && I32(&r->width) && I32(&r->height);
}

bool WireReader::PointVal(Point* p) { return I32(&p->x) && I32(&p->y); }

bool WireReader::RegionVal(Region* region) {
  uint32_t n;
  if (!U32(&n)) {
    return false;
  }
  // Defensive cap: a region larger than this is certainly malformed.
  if (n > 1'000'000) {
    return false;
  }
  Region out;
  for (uint32_t i = 0; i < n; ++i) {
    Rect r;
    if (!RectVal(&r)) {
      return false;
    }
    if (r.width < 0 || r.height < 0) {
      return false;
    }
    out = out.Union(r);
  }
  *region = std::move(out);
  return true;
}

bool WireReader::BitmapVal(Bitmap* bitmap) {
  int32_t w, h;
  if (!I32(&w) || !I32(&h)) {
    return false;
  }
  if (w < 0 || h < 0 || static_cast<int64_t>(w) * h > 64LL * 1024 * 1024) {
    return false;
  }
  Bitmap b(w, h);
  std::vector<uint8_t> bytes;
  if (!Bytes(b.byte_size(), &bytes)) {
    return false;
  }
  b.mutable_bytes() = std::move(bytes);
  *bitmap = std::move(b);
  return true;
}

std::vector<uint8_t> BuildFrame(MsgType type, std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(static_cast<uint8_t>(type));
  uint32_t len = static_cast<uint32_t>(payload.size());
  out.push_back(static_cast<uint8_t>(len));
  out.push_back(static_cast<uint8_t>(len >> 8));
  out.push_back(static_cast<uint8_t>(len >> 16));
  out.push_back(static_cast<uint8_t>(len >> 24));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameParser::Feed(std::span<const uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<FrameParser::Frame> FrameParser::Next() {
  if (buf_.size() < kFrameHeaderBytes) {
    return std::nullopt;
  }
  uint32_t len = static_cast<uint32_t>(buf_[1]) | (static_cast<uint32_t>(buf_[2]) << 8) |
                 (static_cast<uint32_t>(buf_[3]) << 16) |
                 (static_cast<uint32_t>(buf_[4]) << 24);
  if (buf_.size() < kFrameHeaderBytes + len) {
    return std::nullopt;
  }
  Frame frame;
  frame.type = buf_[0];
  frame.payload.assign(buf_.begin() + kFrameHeaderBytes,
                       buf_.begin() + kFrameHeaderBytes + len);
  buf_.erase(buf_.begin(), buf_.begin() + kFrameHeaderBytes + len);
  return frame;
}

}  // namespace thinc
