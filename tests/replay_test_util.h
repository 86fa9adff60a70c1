// Shared input for the inference oracles: the per-tick counts each preset
// link delivers, replayed through filters as a link-limited receiver sees
// them.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "trace/presets.h"

namespace sprout {

// Per-tick delivery-opportunity counts of each preset link's first
// `duration`, as a link-limited receiver observes them.
inline std::vector<std::vector<int>> preset_tick_counts(Duration duration,
                                                        Duration tick) {
  std::vector<std::vector<int>> links;
  for (const LinkPreset& link : all_link_presets()) {
    const Trace trace = preset_trace(link, duration);
    std::vector<int> counts(static_cast<std::size_t>(duration / tick), 0);
    for (const TimePoint t : trace.opportunities()) {
      const auto i = static_cast<std::size_t>(t.time_since_epoch() / tick);
      if (i < counts.size()) ++counts[i];
    }
    links.push_back(std::move(counts));
  }
  return links;
}

}  // namespace sprout
