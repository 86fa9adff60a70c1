// Small plumbing sinks used to wire experiment topologies.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "sim/packet.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace sprout {

// Breaks construction-order cycles: links need their egress sink at
// construction time, endpoints need the link.  Point the relay at the real
// target once it exists.
class RelaySink : public PacketSink {
 public:
  void set_target(PacketSink& target) { target_ = &target; }

  void receive(Packet&& p) override {
    if (target_ != nullptr) {
      target_->receive(std::move(p));
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

 private:
  PacketSink* target_ = nullptr;
  std::int64_t dropped_ = 0;
};

// Forwards packets until a closing time, then drops them.  Models a flow
// that leaves the network at a known instant (heterogeneous shared-queue
// topologies): the gate sits at a link ingress, so a departed flow's
// traffic never enters the shared queue again even though its endpoints'
// clocks keep running.
class GateSink : public PacketSink {
 public:
  GateSink(Simulator& sim, PacketSink& next, TimePoint close_at)
      : sim_(sim), next_(&next), close_at_(close_at) {}

  void receive(Packet&& p) override {
    if (sim_.now() < close_at_) {
      next_->receive(std::move(p));
    } else {
      ++gated_;
    }
  }

  [[nodiscard]] std::int64_t gated() const { return gated_; }

 private:
  Simulator& sim_;
  PacketSink* next_;
  TimePoint close_at_;
  std::int64_t gated_ = 0;
};

// A fixed-delay, optionally lossy pipe with no queueing dynamics: every
// accepted packet arrives exactly `delay` later.  It is the simulator's one
// constant-delay stage: Cellsim's propagation delay, the tower's shared
// uplink feedback path and the saturator's ack path all run on it.
//
// Accepted packets wait in one FIFO of release keys — the (time, order)
// key each packet's own delivery event would have had, with the order
// reserved from the simulator at receive() — and only the head sits in
// the event queue.  When the head fires it also delivers every following
// packet due at the same instant with the next order: a sender's burst.
// Orders are unique, so no event can sort between two consecutive ones,
// and each packet reaches the target at exactly its own event's key.  A
// burst of consecutive plain segments waits as one train (sim/packet.h):
// a packet joins the tail entry when it continues its train with the same
// due time, the same scope and the next order, and the head event splits
// the train again, one packet and one order at a time.
//
// Scope note: each packet is delivered under the scope that was current
// when it was sent (sim/simulator.h), and is skipped if that scope has
// been cancelled, exactly as its own event would have been discarded.  A
// departed tower user's in-flight packets are therefore dropped with the
// rest of its causal chain: the "departed users cost nothing" contract.
class DelayLink : public PacketSink {
 public:
  DelayLink(Simulator& sim, Duration delay, double loss_rate,
            std::uint64_t seed)
      : sim_(sim), delay_(delay), loss_rate_(loss_rate) {
    if (loss_rate_ > 0.0) loss_rng_.emplace(seed);
  }
  // The head event holds `this`.
  DelayLink(const DelayLink&) = delete;
  DelayLink& operator=(const DelayLink&) = delete;

  void set_target(PacketSink& target) { target_ = &target; }

  void receive(Packet&& p) override {
    if (loss_rng_ && loss_rng_->bernoulli(loss_rate_)) {
      ++dropped_;
      return;
    }
    ++accepted_;
    const TimePoint due = sim_.now() + delay_;
    const std::uint64_t order = sim_.reserve_order();
    const Simulator::ScopeId scope = sim_.current_scope();
    if (!line_.empty()) {
      InFlight& tail = line_.back();
      if (continues_train(tail.packet, tail.count, p) && tail.due == due &&
          tail.scope == scope && tail.order + tail.count == order &&
          tail.count < UINT32_MAX) {
        ++tail.count;
        return;
      }
    }
    line_.emplace_back(due, order, scope, 1u, std::move(p));
    if (!armed_) arm();
  }

  [[nodiscard]] std::int64_t accepted() const { return accepted_; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

 private:
  // A train of `count` packets: `packet` (the head, released at `order`)
  // and its successors in seq, released at the orders after it.
  struct InFlight {
    TimePoint due;
    std::uint64_t order;
    Simulator::ScopeId scope;
    std::uint32_t count;
    Packet packet;
  };

  // Puts the head's release key in the event queue.  The event itself is
  // in the root scope: the packets it releases carry their own scopes.
  void arm() {
    armed_ = true;
    const InFlight& head = line_.front();
    sim_.at_reserved(head.due, head.order, Simulator::kRootScope,
                     [this] { deliver_burst(); });
  }

  void deliver_burst() {
    // Stays armed while delivering, so a packet the target pushes back in
    // (a zero delay) joins the line without a second head event.
    std::uint64_t next_order = line_.front().order;
    while (!line_.empty() && line_.front().due == sim_.now() &&
           line_.front().order == next_order) {
      InFlight& front = line_.front();
      const Simulator::ScopeId scope = front.scope;
      Packet p = front.count == 1 ? std::move(front.packet)
                                  : plain_copy(front.packet);
      if (front.count == 1) {
        line_.pop_front();
      } else {
        ++front.packet.seq;
        ++front.order;
        --front.count;
      }
      ++next_order;
      if (sim_.scope_cancelled(scope) || target_ == nullptr) continue;
      Simulator::ScopeGuard guard(sim_, scope);
      target_->receive(std::move(p));
    }
    armed_ = false;
    if (!line_.empty()) arm();
  }

  Simulator& sim_;
  Duration delay_;
  double loss_rate_;
  // Only a lossy line draws: a 2.5 KB generator per lossless line (one
  // per Cellsim link) would be dead weight.
  std::optional<Rng> loss_rng_;
  PacketSink* target_ = nullptr;
  std::deque<InFlight> line_;
  bool armed_ = false;
  std::int64_t accepted_ = 0;
  std::int64_t dropped_ = 0;
};

// Routes packets by flow id (shared-queue experiments, §5.7).
//
// Also the authoritative per-flow delivery ledger: every routed packet's
// wire bytes are credited to its flow id, whether or not any metrics window
// is still open.  That closes the drain-tail attribution gap (scenario.h):
// bytes a stopped flow's standing queue drains after the stop instant are
// outside every measurement window, but they still left the link as THAT
// flow's packets, and delivered_bytes() says so.
class DemuxSink : public PacketSink {
 public:
  void route(std::int64_t flow_id, PacketSink& sink) {
    routes_[flow_id] = &sink;
  }

  void receive(Packet&& p) override {
    const auto it = routes_.find(p.flow_id);
    if (it != routes_.end()) {
      delivered_bytes_[p.flow_id] += p.size;
      it->second->receive(std::move(p));
    } else {
      ++unrouted_;
    }
  }

  [[nodiscard]] std::int64_t unrouted() const { return unrouted_; }

  // Total wire bytes routed for one flow over the demux's whole lifetime.
  [[nodiscard]] ByteCount delivered_bytes(std::int64_t flow_id) const {
    const auto it = delivered_bytes_.find(flow_id);
    return it != delivered_bytes_.end() ? it->second : 0;
  }

 private:
  std::map<std::int64_t, PacketSink*> routes_;
  std::map<std::int64_t, ByteCount> delivered_bytes_;
  std::int64_t unrouted_ = 0;
};

}  // namespace sprout
