// Shared knobs for the figure/table harnesses.
//
// Every bench regenerates one of the paper's tables or figures on the
// synthetic traces.  SPROUT_BENCH_SECONDS overrides the per-run simulated
// duration (default 120 s, metrics skip the first quarter), letting CI use
// quick runs and a full reproduction use the paper's ~17 minutes.
//
// All benches build on the scenario engine: base_spec()/shared_spec()/
// tunnel_spec() are the one canonical configuration path, and grid benches
// hand their specs to run_sweep so independent cells run concurrently
// (sweep() preserves input order and is bit-identical to a serial loop).
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "runner/scenario.h"
#include "runner/schemes.h"
#include "runner/shard.h"
#include "trace/presets.h"

namespace sprout::bench {

inline Duration run_seconds() {
  if (const char* env = std::getenv("SPROUT_BENCH_SECONDS")) {
    const int s = std::atoi(env);
    if (s >= 20) return sec(s);
  }
  return sec(120);
}

// Applies the bench-wide duration policy to any spec.
inline ScenarioSpec with_bench_times(ScenarioSpec spec) {
  spec.run_time = run_seconds();
  spec.warmup = spec.run_time / 4;
  return spec;
}

// One flow of `scheme` over a preset link (the Figure 7 cell shape).
inline ScenarioSpec base_spec(SchemeId scheme, const LinkPreset& link) {
  return with_bench_times(single_flow_scenario(scheme, link));
}

// N flows of `scheme` commingled in one queue (the §7 extension shape).
inline ScenarioSpec shared_spec(SchemeId scheme, int num_flows,
                                const LinkPreset& link) {
  return with_bench_times(shared_queue_scenario(scheme, num_flows, link));
}

// Heterogeneous flows commingled in one queue (the coexistence shape).
inline ScenarioSpec hetero_spec(std::vector<FlowSpec> flows,
                                const LinkPreset& link) {
  return with_bench_times(heterogeneous_scenario(std::move(flows), link));
}

// §5.7: the two-flow queue {Cubic, Skype} on a network's downlink, direct
// or with both flows riding one SproutTunnel endpoint pair.  flows[0] is
// the Cubic download, flows[1] the Skype call.
inline ScenarioSpec tunnel_spec(bool via_tunnel,
                                const std::string& network = "Verizon LTE") {
  return with_bench_times(tunnel_scenario(network, via_tunnel));
}

// Runs a grid of independent cells on all cores, in input order.
inline std::vector<ScenarioResult> sweep(const std::vector<ScenarioSpec>& specs) {
  return run_sweep(SweepSpec{specs, std::nullopt}).cells;
}

}  // namespace sprout::bench
