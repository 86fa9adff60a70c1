// Cellsim: the paper's trace-driven cellular link emulator (§4.2).
//
// One CellsimLink emulates one direction.  An arriving packet is delayed by
// the propagation delay, optionally dropped (Bernoulli tail drop, §5.6),
// passed through the queue-management policy, and appended to the queue.
// Delivery opportunities occur exactly at the trace's recorded instants;
// each opportunity can carry `opportunity_bytes` (one MTU) and is wasted if
// the queue is empty.  Accounting is per byte: one 1500-byte opportunity
// releases fifteen queued 100-byte packets (paper footnote 6).  When a run
// outlasts the trace, the trace repeats.
#pragma once

#include <cstdint>
#include <memory>

#include "aqm/aqm.h"
#include "aqm/queue.h"
#include "metrics/recorder.h"
#include "sim/packet.h"
#include "sim/relay.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/units.h"

namespace sprout {

struct CellsimConfig {
  Duration propagation_delay = msec(20);  // each way; 40 ms min RTT total
  double loss_rate = 0.0;                 // Bernoulli drop on arrival
  ByteCount opportunity_bytes = kMtuBytes;
  std::uint64_t seed = 1;                 // for the loss process only
};

class CellsimLink : public PacketSink {
 public:
  // `policy` may be null for the default unbounded DropTail behaviour.
  CellsimLink(Simulator& sim, Trace trace, CellsimConfig config,
              PacketSink& out, std::unique_ptr<AqmPolicy> policy = nullptr);
  // Scheduled events and the propagation stage hold `this`.
  CellsimLink(const CellsimLink&) = delete;
  CellsimLink& operator=(const CellsimLink&) = delete;

  // Ingress from the sending endpoint.
  void receive(Packet&& p) override;

  // Frees the queued packets' storage.  For a sender that will never run
  // again (a departed tower user, whose scope is cancelled): the backlog
  // can no longer reach anyone, so it should stop costing memory.  The
  // queue's drop count, the delivery and random-drop counters and the
  // trace are kept.
  void release_backlog() { queue_.release(); }

  // Counters for tests and metrics.
  [[nodiscard]] ByteCount delivered_bytes() const { return delivered_bytes_; }
  [[nodiscard]] std::int64_t delivered_packets() const { return delivered_packets_; }
  [[nodiscard]] std::int64_t random_drops() const { return random_drops_; }
  [[nodiscard]] std::int64_t queue_drops() const { return queue_.dropped(); }
  [[nodiscard]] std::int64_t wasted_opportunities() const { return wasted_opportunities_; }
  [[nodiscard]] ByteCount queue_bytes() const { return queue_.bytes(); }
  [[nodiscard]] std::size_t queue_packets() const { return queue_.packets(); }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  // Flight-recorder tap (metrics/recorder.h): queue-depth samples after
  // every enqueue and every delivery opportunity, plus drop events.  Null
  // (the default) records nothing; each tap site costs one branch, so an
  // untapped link is byte-identical to a pre-recorder one.  The recorder
  // must outlive the link.
  void set_timeline_recorder(FlowTimelineRecorder* recorder) {
    timeline_ = recorder;
  }

 private:
  // The propagation stage's exit: the arrival step.
  class Arrival : public PacketSink {
   public:
    explicit Arrival(CellsimLink& link) : link_(link) {}
    void receive(Packet&& p) override { link_.arrive_at_queue(std::move(p)); }

   private:
    CellsimLink& link_;
  };

  void arrive_at_queue(Packet&& p);
  void schedule_next_opportunity();
  void run_opportunity();

  Simulator& sim_;
  Trace trace_;
  CellsimConfig config_;
  PacketSink& out_;
  std::unique_ptr<AqmPolicy> policy_;
  Rng loss_rng_;
  Arrival arrival_{*this};
  DelayLink propagation_;  // lossless; the loss draw is the arrival step's
  LinkQueue queue_;
  std::size_t next_opportunity_ = 0;
  FlowTimelineRecorder* timeline_ = nullptr;

  ByteCount delivered_bytes_ = 0;
  std::int64_t delivered_packets_ = 0;
  std::int64_t random_drops_ = 0;
  std::int64_t wasted_opportunities_ = 0;
};

}  // namespace sprout
