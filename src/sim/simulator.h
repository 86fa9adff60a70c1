// Deterministic single-threaded discrete-event simulator.
//
// Events fire in (time, insertion-order) order, so runs are exactly
// reproducible for a fixed seed.  All components hold a reference to the
// Simulator and schedule their own callbacks; there is no global state.
//
// Flow scopes: every event carries the scope that was current when it was
// scheduled, and events scheduled from inside a running event inherit that
// event's scope.  cancel_scope() retires a whole scope in O(1): its pending
// events are skipped (not run) when they surface at the head of the queue,
// and — because a retired flow's callbacks never run — it schedules nothing
// further.  That makes the event queue O(log n) in ACTIVE flows for a
// churning tower scenario: a departed user's endpoints stop costing
// anything the moment their scope is cancelled, with no event-handle
// bookkeeping on the hot scheduling path.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/packet_pool.h"
#include "util/units.h"

namespace sprout {

class Simulator {
 public:
  using Callback = std::function<void()>;
  using ScopeId = std::uint32_t;

  // The root scope: always live, never cancellable.
  static constexpr ScopeId kRootScope = 0;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedules `fn` at absolute time `t` (must not be in the past), in the
  // current scope.
  void at(TimePoint t, Callback fn);

  // Schedules `fn` after a relative delay.
  void after(Duration d, Callback fn) { at(now_ + d, std::move(fn)); }

  // Takes the next tie-break order, exactly as scheduling an event would,
  // without scheduling anything.  Paired with at_reserved(), it lets a
  // component hold many would-be events in its own FIFO and keep only the
  // head in the queue, while each one still fires at the (time, order) key
  // its own event would have had (sim/relay.h's DelayLink).
  [[nodiscard]] std::uint64_t reserve_order() { return next_order_++; }

  // Schedules `fn` at a previously reserved (t, order) key in `scope`.  The
  // key must not sort before the running event's.
  void at_reserved(TimePoint t, std::uint64_t order, ScopeId scope,
                   Callback fn);

  // Runs the next pending live event; returns false if none remain.
  // Cancelled-scope events encountered on the way are discarded unrun.
  bool step();

  // Runs all live events with time <= t, then advances the clock to t.
  void run_until(TimePoint t);

  void run_for(Duration d) { run_until(now_ + d); }

  // --- flow scopes -------------------------------------------------------

  // A fresh scope (child of nothing; scopes do not nest hierarchically).
  [[nodiscard]] ScopeId new_scope();

  // Retires a scope: its pending events will be discarded instead of run.
  // The root scope cannot be cancelled.  O(1); the queue is never scanned.
  void cancel_scope(ScopeId scope);

  [[nodiscard]] ScopeId current_scope() const { return current_scope_; }
  [[nodiscard]] bool scope_cancelled(ScopeId scope) const {
    return scope < cancelled_.size() && cancelled_[scope];
  }

  // Sets the current scope for the guard's lifetime, so everything a
  // flow schedules during construction/teardown lands in its scope.
  class ScopeGuard {
   public:
    ScopeGuard(Simulator& sim, ScopeId scope)
        : sim_(sim), prev_(sim.current_scope_) {
      sim_.current_scope_ = scope;
    }
    ~ScopeGuard() { sim_.current_scope_ = prev_; }
    ScopeGuard(const ScopeGuard&) = delete;
    ScopeGuard& operator=(const ScopeGuard&) = delete;

   private:
    Simulator& sim_;
    ScopeId prev_;
  };

  // --- packet payload pool ------------------------------------------------

  [[nodiscard]] PacketPool& pool() { return pool_; }

  [[nodiscard]] std::size_t pending() const { return events_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_events_; }

 private:
  struct Event {
    TimePoint time;
    std::uint64_t order;  // tie-break: FIFO among same-time events
    ScopeId scope;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.order > b.order;
    }
  };

  // Discards cancelled-scope events at the head of the queue.
  void prune_cancelled();

  TimePoint now_{};
  std::uint64_t next_order_ = 0;
  // Key of the last event run: a reserved key may not sort before it.
  TimePoint ran_time_ = TimePoint::min();
  std::uint64_t ran_order_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_events_ = 0;
  ScopeId current_scope_ = kRootScope;
  std::vector<bool> cancelled_{false};  // indexed by ScopeId
  std::priority_queue<Event, std::vector<Event>, Later> events_;
  PacketPool pool_;
};

}  // namespace sprout
