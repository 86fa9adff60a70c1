// Queue-management policies pluggable into the emulated link.
//
// The paper's Cellsim ships with an unbounded DropTail queue, optional
// Bernoulli tail drop, and an optional CoDel implementation used for the
// Cubic-over-CoDel comparison (§5.4).  The policy owns both admission
// (enqueue-side) and dequeue-side drop decisions; the base class's
// defaults (admit everything, dequeue the head) are that unbounded
// DropTail queue, the link's policy when it is given none.
#pragma once

#include <optional>

#include "aqm/queue.h"
#include "sim/packet.h"
#include "util/units.h"

namespace sprout {

class AqmPolicy {
 public:
  virtual ~AqmPolicy() = default;

  // Decides whether an arriving packet may be enqueued.
  virtual bool admit(const LinkQueue& queue, const Packet& arriving,
                     TimePoint now) {
    (void)queue;
    (void)arriving;
    (void)now;
    return true;
  }

  // Hands the next packet to transmit, applying any dequeue-side drops.
  // nullopt means nothing transmittable (queue empty or all dropped).
  virtual std::optional<Packet> dequeue(LinkQueue& queue, TimePoint now) {
    (void)now;
    return queue.pop();
  }
};

}  // namespace sprout
