// Thread-pool sweep determinism: a parallel run_sweep must be
// bit-identical to a serial run of the same specs, per-cell seed derivation must be stable
// under reordering, and the shared caches must make per-run precomputation
// happen once per distinct key.
#include "runner/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "obs/metrics.h"
#include "runner/scenario.h"
#include "runner/shard.h"

namespace sprout {
namespace {

// Cache tallies moved into the process-global obs registry (PR 9); every
// assertion below is a delta around the run under test.
std::int64_t obs_counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// Runs `specs` as one grid on `threads` threads; results in input order.
std::vector<ScenarioResult> sweep(
    const std::vector<ScenarioSpec>& specs, int threads,
    std::optional<std::uint64_t> base_seed = std::nullopt) {
  return run_sweep(SweepSpec{specs, base_seed}, threads).cells;
}

std::vector<ScenarioSpec> grid() {
  // 3 schemes x 2 presets x 2 seeds = 12 cells, kept short: the point is
  // scheduling determinism, not steady-state metrics.
  std::vector<ScenarioSpec> specs;
  for (const SchemeId scheme :
       {SchemeId::kSprout, SchemeId::kSproutEwma, SchemeId::kCubic}) {
    for (const char* network : {"Verizon LTE", "AT&T LTE"}) {
      for (const std::uint64_t seed : {42ull, 1337ull}) {
        ScenarioSpec c;
        c.scheme = scheme;
        c.link = LinkSpec::preset(network, LinkDirection::kDownlink);
        c.run_time = sec(12);
        c.warmup = sec(3);
        c.seed = seed;
        specs.push_back(c);
      }
    }
  }
  return specs;
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_DOUBLE_EQ(a.flows[f].throughput_kbps, b.flows[f].throughput_kbps);
    EXPECT_DOUBLE_EQ(a.flows[f].delay95_ms, b.flows[f].delay95_ms);
    EXPECT_DOUBLE_EQ(a.flows[f].mean_delay_ms, b.flows[f].mean_delay_ms);
    EXPECT_EQ(a.flows[f].delivered_bytes, b.flows[f].delivered_bytes);
  }
  EXPECT_DOUBLE_EQ(a.capacity_kbps, b.capacity_kbps);
  EXPECT_DOUBLE_EQ(a.aggregate_throughput_kbps, b.aggregate_throughput_kbps);
  EXPECT_DOUBLE_EQ(a.omniscient_delay95_ms, b.omniscient_delay95_ms);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.link_drops, b.link_drops);
}

TEST(Sweep, ParallelMatchesSerialBitForBit) {
  const std::vector<ScenarioSpec> specs = grid();

  const std::vector<ScenarioResult> a = sweep(specs, /*threads=*/1);
  const std::vector<ScenarioResult> b = sweep(specs, /*threads=*/8);

  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
}

TEST(Sweep, MatchesDirectRunScenario) {
  std::vector<ScenarioSpec> specs = grid();
  specs.resize(4);  // keep the serial reference cheap
  const std::vector<ScenarioResult> swept = sweep(specs, /*threads=*/8);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(swept[i], run_scenario(specs[i]));
  }
}

TEST(Sweep, CellSeedsAreStableAcrossReordering) {
  const std::vector<ScenarioSpec> specs = grid();
  std::vector<ScenarioSpec> reversed = specs;
  std::reverse(reversed.begin(), reversed.end());

  constexpr std::uint64_t kBase = 0xfeedface;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t j = specs.size() - 1 - i;
    EXPECT_EQ(derive_cell_seed(kBase, specs[i]),
              derive_cell_seed(kBase, reversed[j]));
  }
  // Replicates that differ only in the spec's seed field derive distinct
  // cell seeds; distinct base seeds derive distinct cell seeds.
  ScenarioSpec a = specs[0];
  ScenarioSpec b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(derive_cell_seed(kBase, a), derive_cell_seed(kBase, b));
  EXPECT_NE(derive_cell_seed(kBase, a), derive_cell_seed(kBase + 1, a));
}

TEST(Sweep, DerivedSeedResultsAreOrderIndependent) {
  std::vector<ScenarioSpec> specs = grid();
  specs.resize(6);
  std::vector<ScenarioSpec> reversed = specs;
  std::reverse(reversed.begin(), reversed.end());

  const std::vector<ScenarioResult> a = sweep(specs, /*threads=*/4, 7);
  const std::vector<ScenarioResult> b = sweep(reversed, /*threads=*/4, 7);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[specs.size() - 1 - i]);
  }
}

TEST(Sweep, TraceCacheMaterializesEachPresetOnce) {
  const std::vector<ScenarioSpec> specs = grid();
  const std::int64_t misses_before = obs_counter("cache.traces.misses");
  const std::int64_t hits_before = obs_counter("cache.traces.hits");
  (void)sweep(specs, /*threads=*/8);
  // 12 cells over 2 networks -> 4 distinct (network, direction, duration)
  // trace keys (each network contributes its downlink + uplink twin).
  // Each run has a fresh cache, so the deltas are exact.
  EXPECT_EQ(obs_counter("cache.traces.misses") - misses_before, 4);
  EXPECT_EQ(obs_counter("cache.traces.hits") - hits_before,
            static_cast<std::int64_t>(2 * specs.size()) - 4);
}

TEST(Sweep, ForecasterTablesBuildOncePerDistinctParams) {
  // All-Sprout sweep with default SproutParams: every cell builds one
  // forecaster-backed endpoint (rx; tx's peer sends no data), and the
  // forecast tables must be constructed at most once — every other lookup
  // is a cache hit.  Counters are process-global, so measure deltas.
  std::vector<ScenarioSpec> specs;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    ScenarioSpec c;
    c.scheme = SchemeId::kSprout;
    c.link = LinkSpec::preset("Verizon LTE", LinkDirection::kDownlink);
    c.run_time = sec(10);
    c.warmup = sec(2);
    c.seed = seed;
    specs.push_back(c);
  }
  const std::int64_t misses_before = obs_counter("cache.forecast_tables.misses");
  const std::int64_t hits_before = obs_counter("cache.forecast_tables.hits");
  (void)sweep(specs, /*threads=*/4);
  const std::int64_t misses =
      obs_counter("cache.forecast_tables.misses") - misses_before;
  const std::int64_t hits =
      obs_counter("cache.forecast_tables.hits") - hits_before;
  // At most one build for the default-params key (zero if an earlier test
  // in this process already built it).
  EXPECT_LE(misses, 1);
  // One forecaster per cell -> one lookup per cell, nearly all hits.
  EXPECT_EQ(hits + misses, static_cast<std::int64_t>(specs.size()));
  EXPECT_GE(hits, static_cast<std::int64_t>(specs.size()) - 1);
}

TEST(Sweep, FingerprintCoversHeterogeneousFlowLists) {
  ScenarioSpec base = grid()[0];
  base.topology = TopologySpec::heterogeneous_queue(
      {FlowSpec::of(SchemeId::kSprout), FlowSpec::of(SchemeId::kCubic)});
  const std::uint64_t fp = scenario_fingerprint(base);

  // Every FlowSpec field must reach the fingerprint: a cell differing only
  // in a flow's scheme, activity window or params override gets its own
  // derived seed.
  ScenarioSpec scheme_changed = base;
  scheme_changed.topology.flows[1].scheme = SchemeId::kVegas;
  EXPECT_NE(fp, scenario_fingerprint(scheme_changed));

  ScenarioSpec start_changed = base;
  start_changed.topology.flows[1].start = sec(5);
  EXPECT_NE(fp, scenario_fingerprint(start_changed));

  ScenarioSpec stop_changed = base;
  stop_changed.topology.flows[1].stop = sec(10);
  EXPECT_NE(fp, scenario_fingerprint(stop_changed));

  ScenarioSpec params_changed = base;
  SproutParams override_params;
  override_params.confidence_percent = 75.0;
  params_changed.topology.flows[0].sprout_params = override_params;
  EXPECT_NE(fp, scenario_fingerprint(params_changed));

  // The explicit all-default list SIMULATES identically to the num_flows
  // shorthand, so the two encodings must fingerprint identically: a sweep
  // derives the same seed either way.
  ScenarioSpec shorthand = grid()[0];
  shorthand.topology = TopologySpec::shared_queue(2);
  ScenarioSpec explicit_list = grid()[0];
  explicit_list.topology = TopologySpec::heterogeneous_queue(
      {FlowSpec::of(shorthand.scheme), FlowSpec::of(shorthand.scheme)});
  EXPECT_EQ(scenario_fingerprint(shorthand),
            scenario_fingerprint(explicit_list));
  // But a list that diverges from the shorthand (different scheme) is a
  // different simulation and hashes differently.
  ScenarioSpec diverged = explicit_list;
  diverged.topology.flows[1].scheme = SchemeId::kCubic;
  EXPECT_NE(scenario_fingerprint(shorthand), scenario_fingerprint(diverged));
}

TEST(Sweep, TransitionMatricesBuildOncePerDistinctParams) {
  // Mirror of ForecasterTablesBuildOncePerDistinctParams for the evolution
  // kernel: each Sprout cell builds a filter and a forecaster, but the
  // default-params matrix is constructed at most once per process.
  std::vector<ScenarioSpec> specs;
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    ScenarioSpec c;
    c.scheme = SchemeId::kSprout;
    c.link = LinkSpec::preset("Verizon LTE", LinkDirection::kDownlink);
    c.run_time = sec(10);
    c.warmup = sec(2);
    c.seed = seed;
    specs.push_back(c);
  }
  const std::int64_t misses_before =
      obs_counter("cache.transition_matrix.misses");
  const std::int64_t hits_before = obs_counter("cache.transition_matrix.hits");
  (void)sweep(specs, /*threads=*/4);
  const std::int64_t misses =
      obs_counter("cache.transition_matrix.misses") - misses_before;
  const std::int64_t hits =
      obs_counter("cache.transition_matrix.hits") - hits_before;
  EXPECT_LE(misses, 1);
  // One inferring endpoint per cell, with a filter and a forecaster.
  EXPECT_EQ(hits + misses, static_cast<std::int64_t>(2 * specs.size()));
  EXPECT_GE(hits, static_cast<std::int64_t>(2 * specs.size()) - 1);
}

TEST(Sweep, FirstFailureInInputOrderIsRethrown) {
  std::vector<ScenarioSpec> specs = grid();
  specs.resize(3);
  // The builders validate eagerly, so an invalid cell has to be assembled
  // field-by-field; run_scenario re-validates and throws inside the pool.
  specs[1].topology.kind = TopologySpec::Kind::kSharedQueue;
  specs[1].topology.num_flows = 0;  // invalid
  EXPECT_THROW((void)sweep(specs, /*threads=*/4), std::invalid_argument);
}

}  // namespace
}  // namespace sprout
