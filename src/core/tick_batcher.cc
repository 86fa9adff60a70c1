#include "core/tick_batcher.h"

#include <cassert>

#include "obs/metrics.h"

namespace sprout {

void TickEvolveBatcher::add(std::vector<SproutBayesFilter*> filters,
                            TimePoint first_tick, Duration period) {
  assert(period > Duration::zero());
  if (filters.empty()) return;  // strategy has nothing batchable
  Entry e;
  e.filters = std::move(filters);
  e.next = first_tick;
  e.period = period;
  entries_.push_back(std::move(e));
}

void TickEvolveBatcher::on_tick(TimePoint now) {
  due_.clear();
  for (Entry& e : entries_) {
    // Schedules are exact: endpoints reschedule at now + period with the
    // same integer arithmetic, so equality comparison is safe.
    if (e.next == now) {
      e.next = now + e.period;
      for (SproutBayesFilter* f : e.filters) due_.push_back(f);
    }
  }
  if (due_.empty()) return;
  if (due_.size() == 1) {
    // A lone due filter gains nothing from the batch path; leave its own
    // evolve() to run normally inside its endpoint's tick.
    return;
  }
  SproutBayesFilter::evolve_batch(due_);
  batched_evolves_ += static_cast<std::int64_t>(due_.size());
  ++batch_passes_;
  if (obs::enabled()) {
    // Registry mirror: mean group size = batched_flows / batch_passes,
    // plus the largest group seen (utilization for sweep_report).
    static obs::Counter& flows =
        obs::Registry::instance().counter("batcher.batched_flows");
    static obs::Counter& passes =
        obs::Registry::instance().counter("batcher.batch_passes");
    flows.add(static_cast<std::int64_t>(due_.size()));
    passes.add();
    obs::Registry::instance()
        .gauge("batcher.max_group_size")
        .set_max(static_cast<double>(due_.size()));
  }
}

}  // namespace sprout
