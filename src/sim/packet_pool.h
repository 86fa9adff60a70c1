// Flat pool of packet extras for the packet hot path.
//
// Every Sprout wire packet used to heap-allocate a fresh payload buffer in
// serialize() and free it a propagation delay later in receive(); in a
// tower scenario with a thousand concurrent flows that is two allocator
// round-trips per packet on the hottest path in the engine.  The pool keeps
// recycled Packet::Extras boxes (payload capacity intact, contents cleared)
// in a flat free list owned by the Simulator, so steady-state packet
// emission reuses a bounded set of boxes instead of churning the allocator.
//
// Pure capacity reuse — no pointer identity escapes, so simulation results
// are bit-identical with or without recycling.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/packet.h"

namespace sprout {

class PacketPool {
 public:
  // An empty box, reusing a recycled one (and its payload capacity) when
  // available.
  [[nodiscard]] std::unique_ptr<Packet::Extras> acquire() {
    if (free_.empty()) return std::make_unique<Packet::Extras>();
    std::unique_ptr<Packet::Extras> box = std::move(free_.back());
    free_.pop_back();
    box->payload.clear();
    box->tunneled.clear();
    ++reused_;
    return box;
  }

  // Returns a box to the pool.  The cap bounds the pool's memory at a few
  // MB even if a burst parks many boxes at once.
  void recycle(std::unique_ptr<Packet::Extras>&& box) {
    if (box == nullptr || free_.size() >= kMaxFree) return;
    free_.push_back(std::move(box));
  }

  [[nodiscard]] std::size_t pooled() const { return free_.size(); }
  [[nodiscard]] std::uint64_t reused() const { return reused_; }

 private:
  static constexpr std::size_t kMaxFree = 4096;
  std::vector<std::unique_ptr<Packet::Extras>> free_;
  std::uint64_t reused_ = 0;
};

}  // namespace sprout
