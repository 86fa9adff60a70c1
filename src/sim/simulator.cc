#include "sim/simulator.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace sprout {

void Simulator::at(TimePoint t, Callback fn) {
  assert(t >= now_ && "cannot schedule events in the past");
  assert(fn && "null event callback");
  events_.push(Event{t, next_order_++, current_scope_, std::move(fn)});
}

void Simulator::at_reserved(TimePoint t, std::uint64_t order, ScopeId scope,
                            Callback fn) {
  assert(order < next_order_ && "order was never reserved");
  assert(t >= now_ && (t > ran_time_ || order > ran_order_) &&
         "reserved key sorts before the running event");
  assert(fn && "null event callback");
  events_.push(Event{t, order, scope, std::move(fn)});
}

Simulator::ScopeId Simulator::new_scope() {
  cancelled_.push_back(false);
  return static_cast<ScopeId>(cancelled_.size() - 1);
}

void Simulator::cancel_scope(ScopeId scope) {
  if (scope == kRootScope) {
    throw std::invalid_argument("the root scope cannot be cancelled");
  }
  if (scope >= cancelled_.size()) {
    throw std::invalid_argument("cancel of an unknown scope");
  }
  cancelled_[scope] = true;
}

void Simulator::prune_cancelled() {
  while (!events_.empty() && cancelled_[events_.top().scope]) {
    events_.pop();
    ++cancelled_events_;
  }
}

bool Simulator::step() {
  prune_cancelled();
  if (events_.empty()) return false;
  // priority_queue::top returns const&; the callback must be moved out
  // before pop, so copy the small fields and move the function.
  Event ev = std::move(const_cast<Event&>(events_.top()));
  events_.pop();
  assert(ev.time >= now_);
  now_ = ev.time;
  ran_time_ = ev.time;
  ran_order_ = ev.order;
  ++processed_;
  // Events scheduled by this callback inherit its scope, so a flow's whole
  // causal chain stays cancellable without the flow knowing about scopes.
  const ScopeId prev = current_scope_;
  current_scope_ = ev.scope;
  ev.fn();
  current_scope_ = prev;
  return true;
}

void Simulator::run_until(TimePoint t) {
  for (;;) {
    prune_cancelled();
    if (events_.empty() || events_.top().time > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace sprout
