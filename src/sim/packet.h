// The unit of data moved through the simulated network.
//
// Sprout serializes a real wire header into `extras->payload` (the paper's
// protocol is the artifact under test, so its bytes are genuine).  The
// simpler schemes (TCP machinery, video-app models) use the scratch header
// fields below instead of paying for serialization; both kinds of packet
// are byte-accounted identically by the link.
//
// A packet is 72 bytes and move-only.  The two rarely used vectors live
// behind one pointer that only Sprout and tunnel packets allocate, so a
// TCP segment or ack standing in a deep queue carries no empty vectors.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/units.h"

namespace sprout {

struct Packet {
  struct Extras {
    // Serialized protocol bytes (Sprout wire format, tunnel encapsulation).
    std::vector<std::uint8_t> payload;

    // Client packets encapsulated in this packet (SproutTunnel).  Their
    // byte sizes are counted inside `size`; this carries their metadata
    // across the emulated path the way a real tunnel's framing would.
    std::vector<Packet> tunneled;
  };

  // Identity of the flow this packet belongs to (assigned by endpoints;
  // used by the tunnel's flow classifier and by per-flow metrics).
  std::int64_t flow_id = 0;

  // Bytes this packet occupies on the wire (header + payload).
  ByteCount size = 0;

  // Stamped by the sending endpoint when the packet enters the network.
  TimePoint sent_at{};

  // Stamped by the link queue on arrival; AQM reads it for sojourn time.
  TimePoint enqueued_at{};

  // Scratch transport-header fields for non-serializing protocols.
  std::int64_t seq = 0;
  std::int64_t ack = 0;
  std::int64_t meta = 0;
  TimePoint echo{};

  // Null unless the packet carries serialized bytes or tunneled clients
  // (sim/packet_pool.h recycles the boxes).
  std::unique_ptr<Extras> extras;
};

// Anything that can accept a packet: endpoints, links, queues, tunnels.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(Packet&& p) = 0;
};

}  // namespace sprout
