#include "src/core/command.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/codec/delta.h"
#include "src/codec/pnglike.h"
#include "src/raster/fant.h"
#include "src/util/cpu.h"
#include "src/util/logging.h"

namespace thinc {
namespace {

// Per-rect encoding markers inside a RAW payload.
constexpr uint8_t kRawUncompressed = 0;
constexpr uint8_t kRawPngLike = 1;

void AppendI32(std::string* out, int32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t Fnv1a64(const uint8_t* data, size_t n) {
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

// --- RawCommand -------------------------------------------------------------

RawCommand::RawCommand(const Rect& rect, std::vector<Pixel> pixels)
    : rect_(rect), pixels_(std::move(pixels)), region_(rect) {
  THINC_CHECK(static_cast<int64_t>(pixels_.size()) == rect.area());
}

RawCommand::RawCommand(const Rect& rect, PixelBuffer pixels)
    : rect_(rect), pixels_(std::move(pixels)), region_(rect) {
  THINC_CHECK(static_cast<int64_t>(pixels_.size()) == rect.area());
}

bool RawCommand::TryAppendRows(const Rect& rect, std::span<const Pixel> pixels) {
  if (rect.x != rect_.x || rect.width != rect_.width || rect.y != rect_.bottom()) {
    return false;
  }
  // Only merge while unclipped (region covers the whole rect).
  if (region_ != Region(rect_)) {
    return false;
  }
  pixels_.Append(pixels);  // CoW: detaches first if a clone shares the payload
  rect_.height += rect.height;
  region_ = Region(rect_);
  InvalidateCache();
  return true;
}

void RawCommand::InvalidateCache() const {
  encoded_valid_ = false;
  encoded_frame_ = ByteBuffer();
  encode_cost_ = 0;
}

std::string RawCommand::EncodeIdentityKey() const {
  std::string key;
  uint64_t id = pixels_.content_id();
  key.append(reinterpret_cast<const char*>(&id), sizeof(id));
  key.push_back(compression_enabled_ ? 1 : 0);
  AppendI32(&key, static_cast<int32_t>(compress_floor_));
  AppendI32(&key, rect_.x);
  AppendI32(&key, rect_.y);
  AppendI32(&key, rect_.width);
  AppendI32(&key, rect_.height);
  for (const Rect& r : region_.rects()) {
    AppendI32(&key, r.x);
    AppendI32(&key, r.y);
    AppendI32(&key, r.width);
    AppendI32(&key, r.height);
  }
  return key;
}

std::string RawCommand::SharedContentKey() const {
  // Same structure as EncodeIdentityKey, but content-addressed: the leading
  // 8 bytes hash the pixels, so per-viewer copies of the same content (each
  // viewer's server scanline-merges into its own payload) share one key.
  std::string key = EncodeIdentityKey();
  uint64_t hash =
      Fnv1a64(reinterpret_cast<const uint8_t*>(pixels_.data()),
              pixels_.size() * sizeof(Pixel));
  std::memcpy(key.data(), &hash, sizeof(hash));
  return key;
}

void RawCommand::EnsureEncoded() const {
  if (encoded_valid_) {
    return;
  }
  // Commands sharing this payload (offscreen clones, broadcast fan-out)
  // encode a given geometry once: later ones reuse the identical bytes and
  // are charged the identical CPU cost, so reuse never perturbs timing.
  std::string key = EncodeIdentityKey();
  if (std::shared_ptr<const CachedEncode> hit = pixels_.LookupEncode(key)) {
    encoded_frame_ = hit->frame.Share();
    encode_cost_ = hit->cpu_cost;
    encoded_valid_ = true;
    return;
  }
  ++BufferStats::Get().raw_encodes;
  WireWriter w(MsgType::kRaw);
  // Worst case is every rect uncompressed; compression only shrinks this.
  size_t upper = kFrameHeaderBytes + 4 + region_.rect_count() * (16 + 5);
  upper += static_cast<size_t>(region_.Area()) * sizeof(Pixel);
  w.Reserve(upper);
  w.RegionVal(region_);
  for (const Rect& r : region_.rects()) {
    std::vector<Pixel> sub = ExtractRect(r);
    const size_t raw_bytes = sub.size() * sizeof(Pixel);
    if (compression_enabled_ && r.area() >= compress_floor_) {
      std::vector<uint8_t> compressed = PngLikeEncode(sub, r.width, r.height);
      if (compressed.size() < raw_bytes) {
        w.U8(kRawPngLike);
        w.U32(static_cast<uint32_t>(compressed.size()));
        w.Bytes(compressed);
        encode_cost_ += cpucost::kPngLikePerByte * static_cast<double>(raw_bytes);
        continue;
      }
      // Compression attempted but did not win; the attempt still cost CPU.
      encode_cost_ += cpucost::kPngLikePerByte * static_cast<double>(raw_bytes);
    }
    w.U8(kRawUncompressed);
    w.U32(static_cast<uint32_t>(raw_bytes));
    w.Bytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(sub.data()),
                                     raw_bytes));
    encode_cost_ += 0.002 * static_cast<double>(raw_bytes);
  }
  encoded_frame_ = w.Finish();
  encoded_valid_ = true;
  pixels_.StoreEncode(key, encoded_frame_.Share(), encode_cost_);
}

size_t RawCommand::EncodedSize() const {
  EnsureEncoded();
  return encoded_frame_.size();
}

ByteBuffer RawCommand::EncodeFrameInto(FrameArena* /*arena*/) const {
  // RAW frames are cached on the command (and shared via the payload), so
  // they never borrow an arena slab: the cache may outlive the flush.
  EnsureEncoded();
  return encoded_frame_.Share();
}

double RawCommand::EncodeCpuCost() const {
  EnsureEncoded();
  return encode_cost_;
}

std::vector<Pixel> RawCommand::ExtractRect(const Rect& r) const {
  THINC_CHECK(rect_.Contains(r));
  std::vector<Pixel> sub(static_cast<size_t>(r.area()));
  for (int32_t y = 0; y < r.height; ++y) {
    const Pixel* from = pixels_.data() +
                        static_cast<size_t>(r.y - rect_.y + y) * rect_.width +
                        (r.x - rect_.x);
    std::copy(from, from + r.width, sub.begin() + static_cast<size_t>(y) * r.width);
  }
  return sub;
}

std::unique_ptr<Command> RawCommand::Clone() const {
  // Offscreen queue copy: the clone shares the pixel payload (copy-on-write)
  // instead of duplicating it. The encode cache is deliberately not carried
  // over; a clone that encodes the same geometry hits the payload cache.
  auto clone = std::make_unique<RawCommand>(rect_, pixels_.Share());
  clone->region_ = region_;
  clone->compression_enabled_ = compression_enabled_;
  clone->compress_floor_ = compress_floor_;
  clone->fidelity_degraded_ = fidelity_degraded_;
  return clone;
}

bool RawCommand::SubsampleFidelity(int32_t factor) {
  if (factor <= 1 || fidelity_degraded_ ||
      rect_.area() < kCompressThresholdPixels) {
    return false;
  }
  const int32_t dw = rect_.width / factor;
  const int32_t dh = rect_.height / factor;
  if (dw < 1 || dh < 1 || (dw == rect_.width && dh == rect_.height)) {
    return false;
  }
  fidelity_degraded_ = true;
  Surface full(rect_.width, rect_.height);
  full.PutPixels(Rect{0, 0, rect_.width, rect_.height}, pixels_.view());
  Surface low = FantResample(full, dw, dh);
  std::vector<Pixel>& px = pixels_.Mutate();
  for (int32_t y = 0; y < rect_.height; ++y) {
    const int32_t sy = std::min(dh - 1, y * dh / rect_.height);
    for (int32_t x = 0; x < rect_.width; ++x) {
      const int32_t sx = std::min(dw - 1, x * dw / rect_.width);
      px[static_cast<size_t>(y) * rect_.width + x] = low.At(sx, sy);
    }
  }
  InvalidateCache();
  return true;
}

void RawCommand::Translate(int32_t dx, int32_t dy) {
  rect_ = rect_.Translated(dx, dy);
  region_ = region_.Translated(dx, dy);
  InvalidateCache();
}

bool RawCommand::RestrictTo(const Region& keep) {
  Region next = region_.Intersect(keep);
  if (next == region_) {
    return !next.empty();
  }
  region_ = std::move(next);
  InvalidateCache();
  return !region_.empty();
}

std::unique_ptr<Command> RawCommand::SplitOff(size_t max_bytes) {
  // Splitting overhead is only worthwhile for reasonably sized chunks.
  constexpr size_t kMinSplit = 4096;
  if (max_bytes < kMinSplit) {
    return nullptr;
  }
  Rect bounds = region_.Bounds();
  // Estimate rows that fit uncompressed (conservative: compression only
  // shrinks the result).
  size_t overhead = 256;
  size_t row_bytes = static_cast<size_t>(bounds.width) * sizeof(Pixel);
  if (row_bytes == 0 || max_bytes <= overhead) {
    return nullptr;
  }
  int32_t rows = static_cast<int32_t>((max_bytes - overhead) / row_bytes);
  if (rows < 1 || rows >= bounds.height) {
    return nullptr;
  }
  Rect top{bounds.x, bounds.y, bounds.width, rows};
  Region head = region_.Intersect(top);
  Region tail = region_.Subtract(top);
  if (head.empty() || tail.empty()) {
    return nullptr;
  }
  auto split = std::make_unique<RawCommand>(rect_, pixels_.Share());
  split->region_ = std::move(head);
  split->compression_enabled_ = compression_enabled_;
  split->compress_floor_ = compress_floor_;
  split->fidelity_degraded_ = fidelity_degraded_;
  split->set_trace_id(trace_id());  // same update, another wire frame
  split->InvalidateCache();
  region_ = std::move(tail);
  InvalidateCache();
  return split;
}

void RawCommand::Apply(Surface* fb) const {
  for (const Rect& r : region_.rects()) {
    for (int32_t y = 0; y < r.height; ++y) {
      const Pixel* from = pixels_.data() +
                          static_cast<size_t>(r.y - rect_.y + y) * rect_.width +
                          (r.x - rect_.x);
      fb->PutPixels(Rect{r.x, r.y + y, r.width, 1},
                    std::span<const Pixel>(from, static_cast<size_t>(r.width)));
    }
  }
}

// --- DeltaCommand ------------------------------------------------------------

DeltaCommand::DeltaCommand(const Rect& rect, PixelBuffer pixels,
                           std::vector<uint8_t> payload, double encode_cost)
    : rect_(rect), region_(rect), pixels_(std::move(pixels)),
      payload_(std::move(payload)), encode_cost_(encode_cost) {
  THINC_CHECK(static_cast<int64_t>(pixels_.size()) == rect.area());
}

DeltaCommand::DeltaCommand(const Rect& rect, std::vector<uint8_t> payload)
    : rect_(rect), region_(rect), payload_(std::move(payload)) {}

size_t DeltaCommand::EncodedSizeFor(size_t payload_bytes) {
  return kFrameHeaderBytes + 16 + payload_bytes;
}

ByteBuffer DeltaCommand::EncodeFrameInto(FrameArena* arena) const {
  WireWriter w(MsgType::kRawDelta, arena);
  w.Reserve(EncodedSize());
  w.RectVal(rect_);
  w.Bytes(payload_);
  return w.Finish();
}

std::unique_ptr<Command> DeltaCommand::Clone() const {
  auto clone = std::make_unique<DeltaCommand>(rect_, payload_);
  clone->pixels_ = pixels_.Share();
  clone->encode_cost_ = encode_cost_;
  return clone;
}

void DeltaCommand::Translate(int32_t dx, int32_t dy) {
  // The payload is rect-relative, so moving the whole rect is sound.
  rect_ = rect_.Translated(dx, dy);
  region_ = region_.Translated(dx, dy);
}

bool DeltaCommand::RestrictTo(const Region& keep) {
  // A delta frame cannot be clipped without its reference; it is only ever
  // kept whole (the flush path creates it after all clipping is done).
  THINC_CHECK(keep.Intersect(region_) == region_);
  return !region_.empty();
}

void DeltaCommand::Apply(Surface* fb) const {
  if (pixels_.size() > 0) {
    fb->PutPixels(rect_, pixels_.view());
    return;
  }
  // Client side: the framebuffer's current content of rect() is the
  // reference (in-order delivery guarantees it matches what the server
  // diffed against). Snapshot it, decode, write back.
  std::vector<Pixel> ref = fb->GetPixels(rect_);
  std::vector<Pixel> out;
  if (!DeltaDecode(payload_, ref, rect_.width, rect_.height, &out)) {
    // Structural validity was checked at DecodeCommand time; a decode
    // failure here means the payload and reference disagree — a protocol
    // bug, not client input.
    THINC_CHECK(false);
    return;
  }
  fb->PutPixels(rect_, out);
}

// --- CopyCommand -------------------------------------------------------------

CopyCommand::CopyCommand(const Region& dst_region, Point delta)
    : region_(dst_region), delta_(delta) {}

size_t CopyCommand::EncodedSize() const {
  return kFrameHeaderBytes + 4 + region_.rect_count() * 16 + 8;
}

ByteBuffer CopyCommand::EncodeFrameInto(FrameArena* arena) const {
  WireWriter w(MsgType::kCopy, arena);
  w.Reserve(EncodedSize());
  w.RegionVal(region_);
  w.PointVal(delta_);
  return w.Finish();
}

std::unique_ptr<Command> CopyCommand::Clone() const {
  return std::make_unique<CopyCommand>(region_, delta_);
}

void CopyCommand::Translate(int32_t dx, int32_t dy) {
  // Destination moves; the source moves with it (delta unchanged) because
  // offscreen replay moves the whole coordinate frame.
  region_ = region_.Translated(dx, dy);
}

bool CopyCommand::RestrictTo(const Region& keep) {
  region_ = region_.Intersect(keep);
  return !region_.empty();
}

void CopyCommand::Apply(Surface* fb) const {
  // The copy is one atomic operation: snapshot every source pixel before
  // writing, so a multi-rect (clipped) region cannot read pixels an earlier
  // rect of the same command already overwrote.
  std::vector<std::pair<Rect, std::vector<Pixel>>> staged;
  staged.reserve(region_.rect_count());
  for (const Rect& r : region_.rects()) {
    Rect src = r.Translated(delta_.x, delta_.y).Intersect(fb->bounds());
    Rect dst = src.Translated(-delta_.x, -delta_.y).Intersect(fb->bounds());
    src = dst.Translated(delta_.x, delta_.y);
    if (dst.empty()) {
      continue;
    }
    staged.emplace_back(dst, fb->GetPixels(src));
  }
  for (const auto& [dst, pixels] : staged) {
    fb->PutPixels(dst, pixels);
  }
}

// --- SfillCommand -------------------------------------------------------------

SfillCommand::SfillCommand(const Region& region, Pixel color)
    : region_(region), color_(color) {}

size_t SfillCommand::EncodedSize() const {
  return kFrameHeaderBytes + 4 + region_.rect_count() * 16 + 4;
}

ByteBuffer SfillCommand::EncodeFrameInto(FrameArena* arena) const {
  WireWriter w(MsgType::kSfill, arena);
  w.Reserve(EncodedSize());
  w.RegionVal(region_);
  w.U32(color_);
  return w.Finish();
}

std::unique_ptr<Command> SfillCommand::Clone() const {
  return std::make_unique<SfillCommand>(region_, color_);
}

void SfillCommand::Translate(int32_t dx, int32_t dy) {
  region_ = region_.Translated(dx, dy);
}

bool SfillCommand::RestrictTo(const Region& keep) {
  region_ = region_.Intersect(keep);
  return !region_.empty();
}

void SfillCommand::Apply(Surface* fb) const { fb->FillRegion(region_, color_); }

// --- PfillCommand -------------------------------------------------------------

PfillCommand::PfillCommand(const Region& region, Surface tile, Point origin)
    : region_(region), tile_(std::move(tile)), origin_(origin) {
  THINC_CHECK(!tile_.empty());
}

size_t PfillCommand::EncodedSize() const {
  return kFrameHeaderBytes + 4 + region_.rect_count() * 16 + 8 + 4 +
         static_cast<size_t>(tile_.width()) * tile_.height() * sizeof(Pixel);
}

ByteBuffer PfillCommand::EncodeFrameInto(FrameArena* arena) const {
  WireWriter w(MsgType::kPfill, arena);
  w.Reserve(EncodedSize());
  w.RegionVal(region_);
  w.PointVal(origin_);
  w.U16(static_cast<uint16_t>(tile_.width()));
  w.U16(static_cast<uint16_t>(tile_.height()));
  std::span<const Pixel> px = tile_.pixels();
  w.Bytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(px.data()),
                                   px.size() * sizeof(Pixel)));
  return w.Finish();
}

std::unique_ptr<Command> PfillCommand::Clone() const {
  return std::make_unique<PfillCommand>(region_, tile_, origin_);
}

void PfillCommand::Translate(int32_t dx, int32_t dy) {
  region_ = region_.Translated(dx, dy);
  origin_ = Point{origin_.x + dx, origin_.y + dy};
}

bool PfillCommand::RestrictTo(const Region& keep) {
  region_ = region_.Intersect(keep);
  return !region_.empty();
}

void PfillCommand::Apply(Surface* fb) const {
  fb->FillTiled(region_, tile_, origin_);
}

// --- BitmapCommand -------------------------------------------------------------

BitmapCommand::BitmapCommand(const Region& region, Bitmap bitmap, Point origin,
                             Pixel fg, Pixel bg, bool transparent_bg)
    : region_(region), bitmap_(std::move(bitmap)), origin_(origin), fg_(fg), bg_(bg),
      transparent_bg_(transparent_bg) {}

size_t BitmapCommand::EncodedSize() const {
  return kFrameHeaderBytes + 4 + region_.rect_count() * 16 + 8 + 8 + 1 + 8 +
         bitmap_.byte_size();
}

ByteBuffer BitmapCommand::EncodeFrameInto(FrameArena* arena) const {
  WireWriter w(MsgType::kBitmap, arena);
  w.Reserve(EncodedSize());
  w.RegionVal(region_);
  w.PointVal(origin_);
  w.U32(fg_);
  w.U32(bg_);
  w.U8(transparent_bg_ ? 1 : 0);
  w.BitmapVal(bitmap_);
  return w.Finish();
}

std::unique_ptr<Command> BitmapCommand::Clone() const {
  return std::make_unique<BitmapCommand>(region_, bitmap_, origin_, fg_, bg_,
                                         transparent_bg_);
}

void BitmapCommand::Translate(int32_t dx, int32_t dy) {
  region_ = region_.Translated(dx, dy);
  origin_ = Point{origin_.x + dx, origin_.y + dy};
}

bool BitmapCommand::RestrictTo(const Region& keep) {
  region_ = region_.Intersect(keep);
  return !region_.empty();
}

void BitmapCommand::Apply(Surface* fb) const {
  fb->FillStippled(region_, bitmap_, origin_, fg_, bg_, transparent_bg_);
}

// --- Decoding ----------------------------------------------------------------

std::unique_ptr<Command> DecodeCommand(uint8_t type, std::span<const uint8_t> payload) {
  WireReader r(payload);
  switch (static_cast<MsgType>(type)) {
    case MsgType::kRaw: {
      Region region;
      if (!r.RegionVal(&region) || region.empty()) {
        return nullptr;
      }
      Rect bounds = region.Bounds();
      std::vector<Pixel> pixels(static_cast<size_t>(bounds.area()), 0);
      for (const Rect& rect : region.rects()) {
        uint8_t mode;
        uint32_t len;
        if (!r.U8(&mode) || !r.U32(&len)) {
          return nullptr;
        }
        std::vector<uint8_t> data;
        if (!r.Bytes(len, &data)) {
          return nullptr;
        }
        std::vector<Pixel> sub;
        if (mode == kRawPngLike) {
          if (!PngLikeDecode(data, rect.width, rect.height, &sub)) {
            return nullptr;
          }
        } else if (mode == kRawUncompressed) {
          if (data.size() != static_cast<size_t>(rect.area()) * sizeof(Pixel)) {
            return nullptr;
          }
          sub.resize(static_cast<size_t>(rect.area()));
          std::memcpy(sub.data(), data.data(), data.size());
        } else {
          return nullptr;
        }
        for (int32_t y = 0; y < rect.height; ++y) {
          Pixel* to = pixels.data() +
                      static_cast<size_t>(rect.y - bounds.y + y) * bounds.width +
                      (rect.x - bounds.x);
          std::copy(sub.begin() + static_cast<size_t>(y) * rect.width,
                    sub.begin() + static_cast<size_t>(y + 1) * rect.width, to);
        }
      }
      auto cmd = std::make_unique<RawCommand>(bounds, std::move(pixels));
      cmd->RestrictTo(region);
      return cmd;
    }
    case MsgType::kCopy: {
      Region region;
      Point delta;
      if (!r.RegionVal(&region) || !r.PointVal(&delta) || region.empty()) {
        return nullptr;
      }
      return std::make_unique<CopyCommand>(region, delta);
    }
    case MsgType::kSfill: {
      Region region;
      uint32_t color;
      if (!r.RegionVal(&region) || !r.U32(&color) || region.empty()) {
        return nullptr;
      }
      return std::make_unique<SfillCommand>(region, color);
    }
    case MsgType::kPfill: {
      Region region;
      Point origin;
      uint16_t tw, th;
      if (!r.RegionVal(&region) || !r.PointVal(&origin) || !r.U16(&tw) || !r.U16(&th) ||
          region.empty() || tw == 0 || th == 0) {
        return nullptr;
      }
      std::vector<uint8_t> data;
      if (!r.Bytes(static_cast<size_t>(tw) * th * sizeof(Pixel), &data)) {
        return nullptr;
      }
      Surface tile(tw, th);
      std::vector<Pixel> px(static_cast<size_t>(tw) * th);
      std::memcpy(px.data(), data.data(), data.size());
      tile.PutPixels(Rect{0, 0, tw, th}, px);
      return std::make_unique<PfillCommand>(region, std::move(tile), origin);
    }
    case MsgType::kRawDelta: {
      Rect rect;
      if (!r.RectVal(&rect) || rect.empty()) {
        return nullptr;
      }
      std::vector<uint8_t> body;
      if (!r.Bytes(r.remaining(), &body)) {
        return nullptr;
      }
      // Structural validation now (framing, coverage, vector bounds,
      // literal integrity); Apply() later decodes against the framebuffer.
      if (!DeltaValidate(body, rect.width, rect.height)) {
        return nullptr;
      }
      return std::make_unique<DeltaCommand>(rect, std::move(body));
    }
    case MsgType::kBitmap: {
      Region region;
      Point origin;
      uint32_t fg, bg;
      uint8_t transparent;
      Bitmap bitmap;
      if (!r.RegionVal(&region) || !r.PointVal(&origin) || !r.U32(&fg) || !r.U32(&bg) ||
          !r.U8(&transparent) || !r.BitmapVal(&bitmap) || region.empty() ||
          bitmap.empty()) {
        return nullptr;
      }
      return std::make_unique<BitmapCommand>(region, std::move(bitmap), origin, fg, bg,
                                             transparent != 0);
    }
    default:
      return nullptr;
  }
}

}  // namespace thinc
