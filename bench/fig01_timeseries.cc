// Figure 1: Skype vs Sprout on the Verizon LTE downlink — throughput and
// per-packet delay time series with the capacity overlay.
//
// Prints three aligned series (capacity, scheme throughput, scheme delay)
// from each scheme's flight-recorder timeline (500 ms bins), over the
// figure's 60-second window.
#include <iostream>

#include "bench_common.h"
#include "util/table.h"

int main() {
  using namespace sprout;

  const LinkPreset& link =
      find_link_preset("Verizon LTE", LinkDirection::kDownlink);
  std::cout << "=== Figure 1: Skype and Sprout on the " << link.name()
            << " (synthetic) ===\n"
            << "Sprout aims to keep every packet's delay under 100 ms with "
               "95% probability.\n\n";

  for (const SchemeId scheme : {SchemeId::kSkype, SchemeId::kSprout}) {
    ScenarioSpec c = bench::base_spec(scheme, link);
    c.run_time = std::max(c.run_time, sec(80));
    c.warmup = sec(10);
    c.record_timeline = true;
    const ScenarioResult r = run_scenario(c);
    const std::vector<TimelinePoint>& points = r.flows.front().timeline.points;

    std::cout << "--- " << to_string(scheme) << " ---\n";
    TableWriter t({"time (s)", "capacity (kbps)", "throughput (kbps)",
                   "max delay in bin (ms)"});
    // The paper's figure shows a 60-second section; start after warmup.
    for (std::size_t i = 20; i < points.size() && i < 140; ++i) {
      t.row()
          .cell(points[i].time_s, 1)
          .cell(points[i].capacity_kbps, 0)
          .cell(points[i].throughput_kbps, 0)
          .cell(points[i].max_delay_ms, 0);
    }
    t.print(std::cout);
    std::cout << "summary: throughput " << format_double(r.throughput_kbps(), 0)
              << " kbps, 95% delay " << format_double(r.delay95_ms(), 0)
              << " ms, self-inflicted " << format_double(r.self_inflicted_delay_ms(), 0)
              << " ms\n\n";
  }
  std::cout << "Expected shape (paper): Skype overshoots capacity drops and "
               "builds multi-second\nstanding queues; Sprout tracks capacity "
               "with delay ~100 ms.\n";
  return 0;
}
