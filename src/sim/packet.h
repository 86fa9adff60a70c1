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
//
// Packet trains: the two FIFOs a packet waits in (the link queue and the
// constant-delay line) store a run of consecutive plain segments, such as
// a TCP sender's burst, as one entry: its first packet plus a count.  The
// run's k-th member is plain_copy(first) with seq first.seq + k, so every
// packet leaves exactly as it entered.
#pragma once

#include <cassert>
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

// continues_train() and plain_copy() name every field; a new one must join
// both.
static_assert(sizeof(void*) != 8 || sizeof(Packet) == 72,
              "a new Packet field must join continues_train and plain_copy");

// Whether `p` extends the train that starts at `first` and holds `count`
// packets: neither carries extras, `p`'s seq is one past the train's last,
// and every other field equals the train's.  Extras are tested first, so a
// Sprout packet is rejected at one compare.
[[nodiscard]] inline bool continues_train(const Packet& first,
                                          std::int64_t count,
                                          const Packet& p) {
  return p.extras == nullptr && first.extras == nullptr &&
         p.seq == first.seq + count && p.flow_id == first.flow_id &&
         p.size == first.size && p.sent_at == first.sent_at &&
         p.enqueued_at == first.enqueued_at && p.ack == first.ack &&
         p.meta == first.meta && p.echo == first.echo;
}

// Copies a packet that carries no extras (a train member).
[[nodiscard]] inline Packet plain_copy(const Packet& p) {
  assert(p.extras == nullptr);
  return Packet{p.flow_id, p.size, p.sent_at, p.enqueued_at,
                p.seq,     p.ack,  p.meta,    p.echo,        nullptr};
}

// Anything that can accept a packet: endpoints, links, queues, tunnels.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(Packet&& p) = 0;
};

}  // namespace sprout
