// Tower topology end-to-end: the churn timeline is a pure function of the
// spec, a tower scenario reports per-user and population delay CDFs from
// streaming histograms, and tower sweeps are bit-identical across the
// serial, thread-pool and process-sharded execution paths — asserted as
// byte identity of write_sweep_json output, the same artifact the CI
// tower-smoke job diffs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/shard.h"
#include "runner/sweep.h"
#include "runner/tower.h"

namespace sprout {
namespace {

// A churning tower cell small enough for a unit test but busy enough to
// exercise arrivals, departures and a mixed scheme population.
ScenarioSpec small_tower(int num_users, std::uint64_t seed) {
  TowerSpec t;
  t.num_users = num_users;
  t.arrival_rate_per_s = 0.5;
  t.mean_session_s = 8.0;
  t.mix = {{SchemeId::kCubic, 3.0}, {SchemeId::kSprout, 1.0}};
  ScenarioSpec s;
  s.topology = TopologySpec::tower(std::move(t));
  s.run_time = sec(15);
  s.warmup = sec(2);
  s.seed = seed;
  return s;
}

std::string sweep_bytes(const SweepResult& r) {
  std::ostringstream os;
  write_sweep_json(os, r);
  return os.str();
}

TEST(TowerSessions, PureFunctionOfSpecAndSeed) {
  TowerSpec t;
  t.num_users = 10;
  t.arrival_rate_per_s = 2.0;
  t.mean_session_s = 5.0;
  const auto a = derive_tower_sessions(t, sec(30), 42);
  const auto b = derive_tower_sessions(t, sec(30), 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user_id, b[i].user_id);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].departure, b[i].departure);
    EXPECT_EQ(a[i].scheme, b[i].scheme);
    EXPECT_EQ(a[i].channel_seed, b[i].channel_seed);
  }
  // A different churn seed reshuffles the timeline.
  const auto c = derive_tower_sessions(t, sec(30), 43);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival != c[i].arrival || a[i].departure != c[i].departure;
  }
  EXPECT_TRUE(differs);
}

TEST(TowerSessions, InitialPopulationChurnAndClamping) {
  TowerSpec t;
  t.num_users = 8;
  t.arrival_rate_per_s = 1.0;
  t.mean_session_s = 5.0;
  const Duration run = sec(60);
  const auto sessions = derive_tower_sessions(t, run, 7);
  ASSERT_GE(sessions.size(), 8u);  // churn only ever adds users
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const TowerUserSession& s = sessions[i];
    EXPECT_EQ(s.user_id, static_cast<std::int64_t>(i) + 1);  // 1-based, dense
    EXPECT_GE(s.arrival, Duration::zero());
    EXPECT_LT(s.arrival, run);
    EXPECT_GT(s.departure, s.arrival);
    EXPECT_LE(s.departure, run);  // clamped
    if (i < 8) {
      EXPECT_EQ(s.arrival, Duration::zero());  // attached at t = 0
    }
    if (i > 0) {
      EXPECT_GE(s.arrival, sessions[i - 1].arrival);  // id = arrival order
    }
  }
  // Distinct users draw distinct channel seeds.
  std::vector<std::uint64_t> seeds;
  for (const TowerUserSession& s : sessions) seeds.push_back(s.channel_seed);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(TowerSessions, ZeroChurnMeansClosedPopulationToTheEnd) {
  TowerSpec t;
  t.num_users = 5;
  const auto sessions = derive_tower_sessions(t, sec(30), 1);
  ASSERT_EQ(sessions.size(), 5u);
  for (const TowerUserSession& s : sessions) {
    EXPECT_EQ(s.arrival, Duration::zero());
    EXPECT_EQ(s.departure, sec(30));  // mean_session_s = 0: stay to the end
  }
}

TEST(TowerScenario, ReportsPopulationAndPerUserDelayCdfs) {
  const ScenarioSpec spec = small_tower(12, 3);
  const ScenarioResult r = run_scenario(spec);
  // Churn only adds to the initial population.
  EXPECT_GE(r.flows.size(), 12u);
  EXPECT_GT(r.aggregate_throughput_kbps, 0.0);
  EXPECT_GT(r.packets_delivered, 0);

  // The population CDF is the exact merge of the per-user histograms.
  // Users whose whole session falls inside warmup carry no histogram.
  ASSERT_TRUE(r.population_delay_hist.configured());
  std::int64_t per_user_samples = 0;
  for (const FlowResult& f : r.flows) {
    if (f.active_to_s > f.active_from_s) {
      ASSERT_TRUE(f.delay_hist.configured()) << f.label;
      per_user_samples += f.delay_hist.samples();
    }
  }
  EXPECT_EQ(r.population_delay_hist.samples(), per_user_samples);
  EXPECT_GT(per_user_samples, 0);

  const DelayStats pop = r.population_delay();
  EXPECT_EQ(pop.samples, per_user_samples);
  EXPECT_GT(pop.mean_ms, 0.0);
  EXPECT_LE(pop.p50_ms, pop.p95_ms);
  EXPECT_LE(pop.p95_ms, pop.p99_ms);
  EXPECT_LE(pop.p99_ms, pop.p999_ms);
}

TEST(TowerSweep, SerialPoolAndShardedRunsAreByteIdentical) {
  SweepSpec grid;
  grid.cells = {small_tower(8, 1), small_tower(12, 2), small_tower(16, 3)};
  grid.base_seed = 99;

  const SweepResult serial = run_sweep(grid, /*threads=*/1);
  const SweepResult pooled = run_sweep(grid, /*threads=*/4);
  const std::vector<std::vector<std::size_t>> cut =
      lpt_partition(grid.cells, 2);
  const SweepResult merged =
      merge_shards({run_shard(grid, cut[0]), run_shard(grid, cut[1])});
  verify_sweep_result(merged, grid);

  const std::string serial_bytes = sweep_bytes(serial);
  EXPECT_EQ(serial_bytes, sweep_bytes(pooled));
  EXPECT_EQ(serial_bytes, sweep_bytes(merged));
}

TEST(TowerSweep, SweepJsonRoundTripsHistogramsExactly) {
  SweepSpec grid;
  grid.cells = {small_tower(8, 5)};
  const SweepResult out = run_sweep(grid, /*threads=*/1);
  ASSERT_TRUE(out.cells.at(0).population_delay_hist.configured());

  const std::string bytes = sweep_bytes(out);
  const SweepResult back = read_sweep_json(bytes);
  ASSERT_EQ(back.cells.size(), 1u);
  const DelayHistogram& a = out.cells[0].population_delay_hist;
  const DelayHistogram& b = back.cells[0].population_delay_hist;
  EXPECT_EQ(a.bins(), b.bins());
  EXPECT_EQ(a.samples(), b.samples());
  EXPECT_DOUBLE_EQ(a.sum_ms(), b.sum_ms());
  // A second serialization of the parsed result reproduces the bytes.
  EXPECT_EQ(bytes, sweep_bytes(back));
}

// The ISSUE's scale criterion: a 1000-user, 300 s tower with Poisson churn
// completes under the thread-pool runner, and the merged 2-shard run is
// byte-identical to the serial run.  Minutes of wall clock, so it only
// runs when SPROUT_SCALE_TESTS is set (the nightly lane); the same
// invariant is asserted every run at unit scale above and at 64-user
// scale by the CI tower-smoke job.
TEST(TowerSweep, ScaleThousandUsersThreeHundredSeconds) {
  if (std::getenv("SPROUT_SCALE_TESTS") == nullptr) {
    GTEST_SKIP() << "set SPROUT_SCALE_TESTS=1 to run the 1000-user tower";
  }
  TowerSpec t;
  t.num_users = 1000;
  t.arrival_rate_per_s = 2.0;
  t.mean_session_s = 60.0;
  t.mix = {{SchemeId::kCubic, 3.0}, {SchemeId::kSprout, 1.0}};
  ScenarioSpec cell;
  cell.topology = TopologySpec::tower(std::move(t));
  cell.run_time = sec(300);
  cell.seed = 1;

  SweepSpec grid;
  grid.cells = {cell, cell};
  grid.cells[1].seed = 2;
  grid.base_seed = 7;

  const SweepResult pooled = run_sweep(grid, /*threads=*/0);
  const std::vector<std::vector<std::size_t>> cut =
      lpt_partition(grid.cells, 2);
  const SweepResult merged =
      merge_shards({run_shard(grid, cut[0]), run_shard(grid, cut[1])});
  EXPECT_EQ(sweep_bytes(pooled), sweep_bytes(merged));
  EXPECT_GE(pooled.cells.at(0).flows.size(), 1000u);
  EXPECT_GT(pooled.cells.at(0).population_delay_hist.samples(), 0);
}

TEST(TowerValidation, BuildersRejectBadTowerSpecs) {
  TowerSpec no_users;
  no_users.num_users = 0;
  EXPECT_THROW((void)TopologySpec::tower(no_users), std::invalid_argument);

  TowerSpec bad_mix;
  bad_mix.mix = {{SchemeId::kCubic, 0.0}};
  EXPECT_THROW((void)TopologySpec::tower(bad_mix), std::invalid_argument);

  TowerSpec bad_window;
  bad_window.slot = msec(10);
  bad_window.pf_window = msec(5);  // shorter than one slot
  EXPECT_THROW((void)TopologySpec::tower(bad_window), std::invalid_argument);

  TowerSpec with_ops;
  with_ops.channel.ops.push_back(SynthOp::scale(2.0));
  EXPECT_THROW((void)TopologySpec::tower(with_ops), std::invalid_argument);
}

}  // namespace
}  // namespace sprout
