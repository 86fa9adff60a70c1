// Byte-accounted FIFO used by the emulated link, with drop bookkeeping.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "sim/packet.h"
#include "util/units.h"

namespace sprout {

class LinkQueue {
 public:
  void push(Packet&& p) {
    bytes_ += p.size;
    queue_.push_back(std::move(p));
  }

  // FIFO pop; nullopt when empty.
  std::optional<Packet> pop() {
    if (queue_.empty()) return std::nullopt;
    Packet p = std::move(queue_.front());
    queue_.pop_front();
    bytes_ -= p.size;
    return p;
  }

  // Returns a packet to the head (e.g. dequeued but too big for the
  // remaining delivery budget).  Its enqueue stamp is preserved.
  void push_front(Packet&& p) {
    bytes_ += p.size;
    queue_.push_front(std::move(p));
  }

  // Removes and counts the head packet as an intentional drop.
  void drop_head() {
    if (queue_.empty()) return;
    bytes_ -= queue_.front().size;
    queue_.pop_front();
    ++dropped_;
  }

  void count_rejected_arrival() { ++dropped_; }

  // Empties the queue and frees its storage; the drop count is kept.
  void release() {
    std::deque<Packet>().swap(queue_);
    bytes_ = 0;
  }

  // Records a dequeue-side policy drop (the policy already popped the
  // packet; this keeps the drop visible in the queue's counters).
  void note_policy_drop() { ++dropped_; }

  [[nodiscard]] const Packet* head() const {
    return queue_.empty() ? nullptr : &queue_.front();
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t packets() const { return queue_.size(); }
  [[nodiscard]] ByteCount bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

 private:
  std::deque<Packet> queue_;
  ByteCount bytes_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace sprout
