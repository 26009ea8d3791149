// SendQueue: ordered, non-blocking delivery of wire frames over a simulated
// connection, shared by the baseline systems.
//
// Each frame carries a release time (when the sending host has actually
// produced it — CPU compression completion, or the X application emerging
// from a synchronous round trip). Frames go out FIFO; the pump writes as
// much as the socket accepts and resumes on the writable callback.
//
// Enqueue supports pressure control by key: if an *unstarted* queued frame
// with the same key is still waiting, the new frame is REJECTED (returns
// false) — the already-compressed predecessor goes out and the fresh frame
// is dropped, exactly what happens when a real encode pipeline outruns the
// wire. Push-model baselines use this for video updates; the rejections are
// their dropped frames. WouldReject asks the same question before a frame
// is built, so a sender can charge a dropped frame's encode cost without
// producing bytes that would be thrown away.
#ifndef THINC_SRC_BASELINES_SEND_QUEUE_H_
#define THINC_SRC_BASELINES_SEND_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/net/connection.h"
#include "src/util/event_loop.h"
#include "src/util/geometry.h"

namespace thinc {

// The key of an update that supersedes the previous one at exactly this
// rectangle (a video frame, a re-sampled tile).
inline int64_t RectKey(const Rect& rect) {
  return (static_cast<int64_t>(rect.x) << 40) ^ (static_cast<int64_t>(rect.y) << 24) ^
         (static_cast<int64_t>(rect.width) << 12) ^ rect.height;
}

class SendQueue {
 public:
  SendQueue(EventLoop* loop, Transport* conn, int endpoint)
      : loop_(loop), conn_(conn), endpoint_(endpoint) {
    conn_->SetWritable(endpoint_, [this] { Pump(); });
  }

  // True if Enqueue would reject a frame with this key now: a same-key
  // frame is queued and has not started transmission. Key -1 never is.
  bool WouldReject(int64_t key) const {
    return key >= 0 && std::ranges::any_of(queue_, [key](const Item& item) {
             return item.key == key && item.cursor == 0;
           });
  }

  // Returns false if the frame was rejected (see WouldReject; the caller
  // should count a drop).
  bool Enqueue(std::vector<uint8_t> frame, SimTime release = 0, int64_t key = -1) {
    if (WouldReject(key)) {
      return false;
    }
    Item item;
    item.bytes = std::move(frame);
    item.release = release;
    item.key = key;
    queued_bytes_ += item.bytes.size();
    queue_.push_back(std::move(item));
    SchedulePump(0);
    return true;
  }

  size_t queued_bytes() const { return queued_bytes_; }
  bool Idle() const { return queue_.empty(); }

 private:
  struct Item {
    std::vector<uint8_t> bytes;
    size_t cursor = 0;
    SimTime release = 0;
    int64_t key = -1;
  };

  void SchedulePump(SimTime delay) {
    if (pump_scheduled_) {
      return;
    }
    pump_scheduled_ = true;
    loop_->Schedule(delay, [this] {
      pump_scheduled_ = false;
      Pump();
    });
  }

  void Pump() {
    while (!queue_.empty()) {
      Item& head = queue_.front();
      SimTime now = loop_->now();
      if (head.release > now) {
        SchedulePump(head.release - now);
        return;
      }
      size_t space = conn_->FreeSpace(endpoint_);
      if (space == 0) {
        return;  // writable callback resumes
      }
      size_t n = std::min(space, head.bytes.size() - head.cursor);
      size_t sent = conn_->Send(
          endpoint_, std::span<const uint8_t>(head.bytes.data() + head.cursor, n));
      head.cursor += sent;
      queued_bytes_ -= sent;
      if (head.cursor < head.bytes.size()) {
        return;
      }
      queue_.pop_front();
    }
  }

  EventLoop* loop_;
  Transport* conn_;
  int endpoint_;
  std::deque<Item> queue_;
  size_t queued_bytes_ = 0;
  bool pump_scheduled_ = false;
};

}  // namespace thinc

#endif  // THINC_SRC_BASELINES_SEND_QUEUE_H_
