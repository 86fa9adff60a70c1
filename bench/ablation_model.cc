// Ablations of the design choices DESIGN.md calls out, on the Verizon LTE
// downlink: the model's frozen parameters (σ, λz, tick, bins), the sender
// lookahead, and the forecast-quantile variant.  Each variant is one Sprout
// flow carrying its own SproutParams, and the variants run as one sweep.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/params.h"
#include "util/table.h"

int main() {
  using namespace sprout;

  std::cout << "=== Ablations (Verizon LTE downlink) ===\n\n";

  const SproutParams base;
  std::vector<std::pair<std::string, SproutParams>> variants;
  variants.emplace_back("baseline (paper params)", base);
  for (double sigma : {50.0, 500.0}) {
    SproutParams p = base;
    p.sigma_pps_per_sqrt_s = sigma;
    variants.emplace_back(
        "sigma = " + format_double(sigma, 0) + " pkt/s/sqrt(s)", p);
  }
  for (double lz : {0.2, 5.0}) {
    SproutParams p = base;
    p.outage_escape_rate_per_s = lz;
    variants.emplace_back("lambda_z = " + format_double(lz, 1) + " /s", p);
  }
  for (int tick_ms : {10, 40, 80}) {
    SproutParams p = base;
    p.tick = msec(tick_ms);
    variants.emplace_back("tick = " + std::to_string(tick_ms) + " ms", p);
  }
  for (int bins : {64, 128}) {
    SproutParams p = base;
    p.num_bins = bins;
    variants.emplace_back(std::to_string(bins) + " rate bins", p);
  }
  for (int lookahead : {3, 8}) {
    SproutParams p = base;
    p.sender_lookahead_ticks = lookahead;
    variants.emplace_back("lookahead = " + std::to_string(lookahead) +
                              " ticks (" + std::to_string(lookahead * 20) +
                              " ms tolerance)",
                          p);
  }
  {
    SproutParams p = base;
    p.count_noise_in_forecast = true;
    variants.emplace_back("Poisson-mixture forecast (paper-literal text)", p);
  }

  const LinkPreset& link =
      find_link_preset("Verizon LTE", LinkDirection::kDownlink);
  std::vector<ScenarioSpec> specs;
  for (const auto& variant : variants) {
    specs.push_back(bench::hetero_spec(
        {FlowSpec::of(SchemeId::kSprout).with_params(variant.second)}, link));
  }
  const std::vector<ScenarioResult> results = bench::sweep(specs);

  TableWriter t({"Variant", "Throughput (kbps)", "Self-inflicted delay (ms)"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    t.row()
        .cell(variants[i].first)
        .cell(results[i].throughput_kbps(), 0)
        .cell(results[i].self_inflicted_delay_ms(), 0);
  }
  t.print(std::cout);
  std::cout << "\nNotes: larger sigma forgets faster (more caution, less "
               "throughput); longer ticks slow\noutage detection; the "
               "Poisson-mixture forecast quantile starves the window (see "
               "DESIGN.md §6).\n";
  return 0;
}
