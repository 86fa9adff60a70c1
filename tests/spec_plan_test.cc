// Shard plans for spec files: the LPT cut (runner/shard.h's lpt_partition)
// that `sweep run --shard I/N` and `sweep list --shards N` apply to a
// checked-in grid whose cell costs are deliberately skewed.
#include <gtest/gtest.h>

#include <algorithm>

#include "runner/shard.h"
#include "spec/grid.h"

namespace sprout::spec {
namespace {

SweepSpec unbalanced_grid() {
  // mixed-duration: 5 cells whose costs span two orders of magnitude
  // (single Cubic/Vegas cells next to multi-flow Sprout cells).
  return parse_experiment_file(std::string(SPROUT_SOURCE_DIR) +
                               "/specs/mixed_duration.json")
      .sweep;
}

double shard_cost(const SweepSpec& spec,
                  const std::vector<std::size_t>& indices) {
  double cost = 0.0;
  for (const std::size_t i : indices) {
    cost += estimated_cost(spec.cells[i]);
  }
  return cost;
}

double makespan(const SweepSpec& spec,
                const std::vector<std::vector<std::size_t>>& buckets) {
  double worst = 0.0;
  for (const std::vector<std::size_t>& bucket : buckets) {
    worst = std::max(worst, shard_cost(spec, bucket));
  }
  return worst;
}

TEST(SpecPlan, LptPartitionsEveryCellExactlyOnce) {
  const SweepSpec grid = unbalanced_grid();
  for (const int shards : {1, 2, 3, 5, 7}) {
    const std::vector<std::vector<std::size_t>> buckets =
        lpt_partition(grid.cells, shards);
    ASSERT_EQ(buckets.size(), static_cast<std::size_t>(shards));
    std::vector<int> covered(grid.cells.size(), 0);
    for (const std::vector<std::size_t>& bucket : buckets) {
      EXPECT_TRUE(std::is_sorted(bucket.begin(), bucket.end()));
      for (const std::size_t i : bucket) {
        ASSERT_LT(i, covered.size());
        covered[i] += 1;
      }
    }
    for (std::size_t i = 0; i < covered.size(); ++i) {
      EXPECT_EQ(covered[i], 1) << "cell " << i << " with " << shards
                               << " shards";
    }
  }
}

TEST(SpecPlan, LptBalancesBetterThanRoundRobinOnSkewedCosts) {
  const SweepSpec grid = unbalanced_grid();
  // mixed-duration's costs cluster so that a round-robin deal (cell i to
  // shard i mod N) lands the two most expensive cells (indices 1 and 3)
  // in adjacent shards while LPT spreads them; LPT's makespan must never
  // be worse.
  for (const int shards : {2, 3}) {
    std::vector<std::vector<std::size_t>> round_robin(
        static_cast<std::size_t>(shards));
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
      round_robin[i % static_cast<std::size_t>(shards)].push_back(i);
    }
    EXPECT_LE(makespan(grid, lpt_partition(grid.cells, shards)),
              makespan(grid, round_robin))
        << shards << " shards";
  }
  // And the greedy bound itself: with N shards the heaviest single cell
  // and the average load are lower bounds on the optimum, and LPT stays
  // within 4/3 of the larger of the two.
  double total = 0.0;
  double heaviest = 0.0;
  for (const ScenarioSpec& cell : grid.cells) {
    total += estimated_cost(cell);
    heaviest = std::max(heaviest, estimated_cost(cell));
  }
  const int shards = 3;
  const double lower = std::max(heaviest, total / shards);
  EXPECT_LE(makespan(grid, lpt_partition(grid.cells, shards)),
            lower * 4.0 / 3.0);
}

TEST(SpecPlan, PlansAreDeterministic) {
  const SweepSpec grid = unbalanced_grid();
  EXPECT_EQ(lpt_partition(grid.cells, 3), lpt_partition(grid.cells, 3));
  EXPECT_EQ(lpt_partition(grid.cells, 3),
            lpt_partition(unbalanced_grid().cells, 3));
}

}  // namespace
}  // namespace sprout::spec
