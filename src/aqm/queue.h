// Byte-accounted FIFO used by the emulated link, with drop bookkeeping.
//
// A run of consecutive plain segments pushed back to back (a sender's
// burst, stamped at one arrival instant) is stored as one train
// (sim/packet.h); pop() and drop_head() split the front train one packet
// at a time, so the queue reads exactly as a packet-per-entry FIFO would.
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
    ++packets_;
    if (!queue_.empty()) {
      Train& tail = queue_.back();
      if (continues_train(tail.first, tail.count, p)) {
        ++tail.count;
        return;
      }
    }
    queue_.emplace_back(std::move(p), 1);
  }

  // FIFO pop; nullopt when empty.
  std::optional<Packet> pop() {
    if (queue_.empty()) return std::nullopt;
    Train& front = queue_.front();
    bytes_ -= front.first.size;
    --packets_;
    if (front.count == 1) {
      Packet p = std::move(front.first);
      queue_.pop_front();
      return p;
    }
    Packet p = plain_copy(front.first);
    ++front.first.seq;
    --front.count;
    return p;
  }

  // Returns a packet to the head (e.g. dequeued but too big for the
  // remaining delivery budget).  Its enqueue stamp is preserved.
  void push_front(Packet&& p) {
    bytes_ += p.size;
    ++packets_;
    queue_.emplace_front(std::move(p), 1);
  }

  // Removes and counts the head packet as an intentional drop.
  void drop_head() {
    if (queue_.empty()) return;
    Train& front = queue_.front();
    bytes_ -= front.first.size;
    --packets_;
    ++dropped_;
    if (front.count == 1) {
      queue_.pop_front();
    } else {
      ++front.first.seq;
      --front.count;
    }
  }

  void count_rejected_arrival() { ++dropped_; }

  // Empties the queue and frees its storage; the drop count is kept.
  void release() {
    std::deque<Train>().swap(queue_);
    bytes_ = 0;
    packets_ = 0;
  }

  // Records a dequeue-side policy drop (the policy already popped the
  // packet; this keeps the drop visible in the queue's counters).
  void note_policy_drop() { ++dropped_; }

  [[nodiscard]] const Packet* head() const {
    return queue_.empty() ? nullptr : &queue_.front().first;
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t packets() const { return packets_; }
  [[nodiscard]] ByteCount bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

 private:
  // `count` packets: `first` (the head) and its successors in seq.
  struct Train {
    Packet first;
    std::int64_t count;
  };

  std::deque<Train> queue_;
  std::size_t packets_ = 0;
  ByteCount bytes_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace sprout
