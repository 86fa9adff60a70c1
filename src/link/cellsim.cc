#include "link/cellsim.h"

#include <cassert>
#include <utility>

namespace sprout {

CellsimLink::CellsimLink(Simulator& sim, Trace trace, CellsimConfig config,
                         PacketSink& out, std::unique_ptr<AqmPolicy> policy)
    : sim_(sim),
      trace_(std::move(trace)),
      config_(config),
      out_(out),
      policy_(policy ? std::move(policy) : std::make_unique<AqmPolicy>()),
      loss_rng_(config.seed),
      propagation_(sim, config.propagation_delay, /*loss_rate=*/0.0,
                   /*seed=*/0) {
  assert(!trace_.empty() && "cellsim needs a non-empty trace");
  propagation_.set_target(arrival_);
  schedule_next_opportunity();
}

void CellsimLink::receive(Packet&& p) {
  assert(p.size > 0 && p.size <= config_.opportunity_bytes &&
         "cellsim carries at most one MTU per packet");
  propagation_.receive(std::move(p));
}

void CellsimLink::arrive_at_queue(Packet&& p) {
  if (config_.loss_rate > 0.0 && loss_rng_.bernoulli(config_.loss_rate)) {
    ++random_drops_;
    if (timeline_ != nullptr) timeline_->record_drop(sim_.now());
    return;
  }
  if (!policy_->admit(queue_, p, sim_.now())) {
    queue_.count_rejected_arrival();
    if (timeline_ != nullptr) timeline_->record_drop(sim_.now());
    return;
  }
  p.enqueued_at = sim_.now();
  queue_.push(std::move(p));
  if (timeline_ != nullptr) {
    timeline_->record_queue_sample(sim_.now(), queue_.packets(),
                                   queue_.bytes());
  }
}

void CellsimLink::schedule_next_opportunity() {
  const TimePoint when = trace_.opportunity(next_opportunity_);
  sim_.at(when, [this] {
    run_opportunity();
    ++next_opportunity_;
    schedule_next_opportunity();
  });
}

void CellsimLink::run_opportunity() {
  ByteCount budget = config_.opportunity_bytes;
  bool delivered_any = false;
  while (budget > 0) {
    const Packet* head = queue_.head();
    if (head == nullptr || head->size > budget) break;
    std::optional<Packet> p = policy_->dequeue(queue_, sim_.now());
    if (!p.has_value()) break;  // policy dropped the rest of the backlog
    // A dequeue-side policy (CoDel) may have dropped the head we sized the
    // budget against and returned a larger packet; it rides the next
    // opportunity instead.
    if (p->size > budget) {
      queue_.push_front(std::move(*p));
      break;
    }
    budget -= p->size;
    delivered_bytes_ += p->size;
    ++delivered_packets_;
    delivered_any = true;
    out_.receive(std::move(*p));
  }
  if (!delivered_any) ++wasted_opportunities_;
  if (timeline_ != nullptr) {
    // Post-drain sample: together with the enqueue-side sample this
    // brackets the bin's true peak (depth only changes at these two
    // events, plus dequeue-side AQM drops which this sample also covers).
    timeline_->record_queue_sample(sim_.now(), queue_.packets(),
                                   queue_.bytes());
  }
}

}  // namespace sprout
