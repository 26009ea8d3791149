#include "src/util/buffer.h"

#include <algorithm>
#include <cstring>

namespace thinc {
namespace {

uint64_t NextContentId() {
  static uint64_t next = 0;
  return ++next;
}

// Encode results cached per payload; small, FIFO-evicted. Commands rarely
// encode one payload under more than a couple of distinct keys.
constexpr size_t kMaxEncodesPerPayload = 8;

// Candidate hash for PayloadPool: a multiply-xorshift over 8-byte words.
// Collisions only cost a failed byte comparison.
uint64_t HashPixels(std::span<const Pixel> pixels) {
  const auto* p = reinterpret_cast<const uint8_t*>(pixels.data());
  const size_t n = pixels.size_bytes();
  uint64_t h = n;
  auto mix = [&h](uint64_t w) {
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  };
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= n; i += sizeof(uint64_t)) {
    uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    mix(w);
  }
  if (i < n) {  // an odd pixel count leaves one pixel
    Pixel w;
    std::memcpy(&w, p + i, sizeof(w));
    mix(w);
  }
  return h;
}

}  // namespace

BufferStats& BufferStats::Get() {
  static BufferStats stats;
  return stats;
}

void BufferStats::Reset() {
  int64_t live = live_payload_bytes;
  *this = BufferStats();
  live_payload_bytes = live;
  peak_payload_bytes = live;
}

namespace internal {

ByteStorage::ByteStorage() {
  ++BufferStats::Get().allocations;
}

ByteStorage::~ByteStorage() { BufferStats::Get().TrackLive(-tracked_); }

void ByteStorage::Track() {
  int64_t size = static_cast<int64_t>(bytes.size());
  BufferStats& stats = BufferStats::Get();
  stats.allocated_bytes += std::max<int64_t>(0, size - tracked_);
  stats.TrackLive(size - tracked_);
  tracked_ = size;
}

PixelStorage::PixelStorage(std::vector<Pixel>&& px)
    : pixels(std::move(px)), content_id(NextContentId()) {
  tracked_ = static_cast<int64_t>(pixels.size() * sizeof(Pixel));
  BufferStats& stats = BufferStats::Get();
  ++stats.allocations;
  stats.allocated_bytes += tracked_;
  stats.TrackLive(tracked_);
}

PixelStorage::~PixelStorage() { BufferStats::Get().TrackLive(-tracked_); }

void PixelStorage::Retrack() {
  int64_t size = static_cast<int64_t>(pixels.size() * sizeof(Pixel));
  BufferStats& stats = BufferStats::Get();
  stats.allocated_bytes += std::max<int64_t>(0, size - tracked_);
  stats.TrackLive(size - tracked_);
  tracked_ = size;
}

}  // namespace internal

ByteBuffer ByteBuffer::Copy(std::span<const uint8_t> data) {
  auto storage = std::make_shared<internal::ByteStorage>();
  storage->bytes.assign(data.begin(), data.end());
  storage->Track();
  BufferStats::Get().NoteCopy(static_cast<int64_t>(data.size()));
  return ByteBuffer(std::move(storage), 0, data.size());
}

ByteBuffer ByteBuffer::Adopt(std::vector<uint8_t>&& bytes) {
  auto storage = std::make_shared<internal::ByteStorage>();
  storage->bytes = std::move(bytes);
  storage->Track();
  size_t size = storage->bytes.size();
  return ByteBuffer(std::move(storage), 0, size);
}

ByteBuffer ByteBuffer::Slice(size_t offset, size_t length) const {
  offset = std::min(offset, size_);
  length = std::min(length, size_ - offset);
  ++BufferStats::Get().shares;
  return ByteBuffer(storage_, offset_ + offset, length);
}

ByteBuffer ByteBuffer::Share() const {
  ++BufferStats::Get().shares;
  return *this;
}

PixelBuffer::PixelBuffer(std::vector<Pixel>&& pixels)
    : storage_(std::make_shared<internal::PixelStorage>(std::move(pixels))) {}

PixelBuffer PixelBuffer::Copy(std::span<const Pixel> pixels) {
  BufferStats::Get().NoteCopy(static_cast<int64_t>(pixels.size() * sizeof(Pixel)));
  return PixelBuffer(std::vector<Pixel>(pixels.begin(), pixels.end()));
}

PixelBuffer PixelBuffer::Share() const {
  if (!storage_) {
    return PixelBuffer();
  }
  ++BufferStats::Get().shares;
  return *this;
}

std::vector<Pixel>& PixelBuffer::Mutate() {
  if (!storage_) {
    storage_ = std::make_shared<internal::PixelStorage>(std::vector<Pixel>());
    return storage_->pixels;
  }
  if (storage_.use_count() > 1) {
    BufferStats& stats = BufferStats::Get();
    ++stats.cow_detaches;
    stats.NoteCopy(static_cast<int64_t>(storage_->pixels.size() * sizeof(Pixel)));
    storage_ = std::make_shared<internal::PixelStorage>(
        std::vector<Pixel>(storage_->pixels));
  } else {
    // Sole owner: write in place, but retire the content identity (and the
    // encode results cached under it).
    storage_->content_id = NextContentId();
    storage_->encodes.clear();
  }
  return storage_->pixels;
}

void PixelBuffer::Append(std::span<const Pixel> extra) {
  std::vector<Pixel>& px = Mutate();
  px.insert(px.end(), extra.begin(), extra.end());
  storage_->Retrack();
}

std::shared_ptr<const CachedEncode> PixelBuffer::LookupEncode(
    const std::string& key) const {
  if (!storage_) {
    return nullptr;
  }
  for (const auto& [k, entry] : storage_->encodes) {
    if (k == key) {
      ++BufferStats::Get().payload_encode_hits;
      return entry;
    }
  }
  return nullptr;
}

void PixelBuffer::StoreEncode(const std::string& key, ByteBuffer frame,
                              double cpu_cost) const {
  if (!storage_) {
    return;
  }
  auto& encodes = storage_->encodes;
  if (encodes.size() >= kMaxEncodesPerPayload) {
    encodes.erase(encodes.begin());
  }
  auto entry = std::make_shared<CachedEncode>();
  entry->frame = std::move(frame);
  entry->cpu_cost = cpu_cost;
  encodes.emplace_back(key, std::move(entry));
}

bool PayloadPool::Intern(PixelBuffer* payload) {
  const std::shared_ptr<internal::PixelStorage>& mine = payload->storage_;
  if (mine == nullptr || mine->pixels.empty()) {
    return false;
  }
  const std::vector<Pixel>& px = mine->pixels;
  const uint64_t hash = HashPixels(px);
  auto [it, end] = entries_.equal_range(hash);
  while (it != end) {
    std::shared_ptr<internal::PixelStorage> pooled = it->second.Lock();
    if (pooled == nullptr) {
      it = entries_.erase(it);
      continue;
    }
    if (pooled == mine) {
      return false;  // already registered (e.g. a broadcast payload)
    }
    if (pooled->pixels.size() == px.size() &&
        std::memcmp(pooled->pixels.data(), px.data(), px.size() * sizeof(Pixel)) ==
            0) {
      payload->storage_ = std::move(pooled);
      ++BufferStats::Get().payload_adoptions;
      return true;
    }
    ++it;
  }
  entries_.emplace(hash, Entry{mine, mine->content_id});
  if (entries_.size() >= sweep_at_) {
    Sweep();
  }
  return false;
}

void PayloadPool::Sweep() {
  std::erase_if(entries_, [](const auto& kv) { return kv.second.Lock() == nullptr; });
  sweep_at_ = 2 * entries_.size() + 1;
}

std::shared_ptr<internal::PixelStorage> PayloadPool::Entry::Lock() const {
  std::shared_ptr<internal::PixelStorage> pooled = storage.lock();
  if (pooled != nullptr && pooled->content_id != content_id) {
    return nullptr;
  }
  return pooled;
}

std::shared_ptr<internal::ByteStorage> FrameArena::Acquire() {
  for (auto& slab : slabs_) {
    if (slab.use_count() == 1) {
      slab->bytes.clear();
      ++BufferStats::Get().arena_reuses;
      return slab;
    }
  }
  auto slab = std::make_shared<internal::ByteStorage>();
  slabs_.push_back(slab);
  // Keep the pool bounded: drop idle slabs beyond a small working set.
  if (slabs_.size() > 32) {
    std::erase_if(slabs_, [&](const std::shared_ptr<internal::ByteStorage>& s) {
      return s.use_count() == 1 && s != slab;
    });
  }
  return slab;
}

void SegmentQueue::Append(ByteBuffer data) {
  if (data.empty()) {
    return;
  }
  total_ += data.size();
  segments_.push_back(Segment{std::move(data), 0});
}

void SegmentQueue::AppendCopy(std::span<const uint8_t> data) {
  if (data.empty()) {
    return;
  }
  total_ += data.size();
  segments_.push_back(Segment{ByteBuffer::Copy(data), 0});
}

void SegmentQueue::Prepend(ByteBuffer data) {
  if (data.empty()) {
    return;
  }
  total_ += data.size();
  segments_.push_front(Segment{std::move(data), 0});
}

void SegmentQueue::Clear() {
  segments_.clear();
  total_ = 0;
}

ByteBuffer SegmentQueue::PopUpTo(size_t n) {
  n = std::min(n, total_);
  if (n == 0) {
    return ByteBuffer();
  }
  Segment& head = segments_.front();
  size_t head_left = head.data.size() - head.offset;
  if (head_left >= n) {
    // Entirely inside the head segment: hand out a slice of it.
    ByteBuffer out = head.data.Slice(head.offset, n);
    head.offset += n;
    if (head.offset == head.data.size()) {
      segments_.pop_front();
    }
    total_ -= n;
    return out;
  }
  // Spans segments: gather into one contiguous buffer (e.g. an MSS segment
  // straddling two frames). This is the only copying pop.
  std::vector<uint8_t> gathered;
  gathered.reserve(n);
  size_t left = n;
  while (left > 0) {
    Segment& seg = segments_.front();
    size_t take = std::min(left, seg.data.size() - seg.offset);
    const uint8_t* p = seg.data.data() + seg.offset;
    gathered.insert(gathered.end(), p, p + take);
    seg.offset += take;
    left -= take;
    if (seg.offset == seg.data.size()) {
      segments_.pop_front();
    }
  }
  total_ -= n;
  BufferStats::Get().NoteCopy(static_cast<int64_t>(n));
  return ByteBuffer::Adopt(std::move(gathered));
}

ByteBuffer ByteBufferCache::Lookup(const std::string& key) {
  for (const auto& [k, frame] : entries_) {
    if (k == key) {
      ++BufferStats::Get().frame_cache_hits;
      return frame.Share();
    }
  }
  return ByteBuffer();
}

void ByteBufferCache::Store(const std::string& key, ByteBuffer frame) {
  std::erase_if(in_flight_,
                [&key](const auto& entry) { return entry.first == key; });
  for (const auto& [k, f] : entries_) {
    if (k == key) {
      return;  // first writer wins; identical content by construction
    }
  }
  if (entries_.size() >= capacity_) {
    entries_.pop_front();
  }
  entries_.emplace_back(key, std::move(frame));
}

void ByteBufferCache::NoteEncodeStarted(const std::string& key,
                                        int64_t ready_time) {
  for (auto& [k, ready] : in_flight_) {
    if (k == key) {
      ready = ready_time;
      return;
    }
  }
  if (in_flight_.size() >= capacity_) {
    in_flight_.pop_front();
  }
  in_flight_.emplace_back(key, ready_time);
}

int64_t ByteBufferCache::PendingEncodeReady(const std::string& key) const {
  for (const auto& [k, ready] : in_flight_) {
    if (k == key) {
      return ready;
    }
  }
  return -1;
}

}  // namespace thinc
