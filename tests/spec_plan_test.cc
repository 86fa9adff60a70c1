#include "spec/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

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

TEST(SpecPlan, StrategyNamesRoundTrip) {
  for (const PartitionStrategy s :
       {PartitionStrategy::kRoundRobin, PartitionStrategy::kLpt}) {
    EXPECT_EQ(partition_from_name(to_string(s)), s);
  }
  EXPECT_FALSE(partition_from_name("greedy").has_value());
  EXPECT_FALSE(partition_from_name("").has_value());
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
  const auto makespan = [&](PartitionStrategy strategy, int shards) {
    double worst = 0.0;
    for (int s = 0; s < shards; ++s) {
      worst = std::max(
          worst, shard_cost(grid, plan_shard_indices(grid, strategy, s,
                                                     shards)));
    }
    return worst;
  };
  // mixed-duration's costs cluster so that round-robin's stride lands the
  // two most expensive cells (indices 1 and 3) in adjacent shards while
  // LPT spreads them; LPT's makespan must never be worse.
  for (const int shards : {2, 3}) {
    EXPECT_LE(makespan(PartitionStrategy::kLpt, shards),
              makespan(PartitionStrategy::kRoundRobin, shards))
        << shards << " shards";
  }
  // And the greedy bound itself: no shard exceeds total cost with 1 shard,
  // trivially, and with N shards the heaviest single cell is a lower
  // bound the LPT makespan must stay close to (4/3 OPT guarantee; use the
  // weaker "max cell or average, whichever larger, times 4/3").
  double total = 0.0;
  double heaviest = 0.0;
  for (const ScenarioSpec& cell : grid.cells) {
    total += estimated_cost(cell);
    heaviest = std::max(heaviest, estimated_cost(cell));
  }
  const int shards = 3;
  const double lower = std::max(heaviest, total / shards);
  EXPECT_LE(makespan(PartitionStrategy::kLpt, shards), lower * 4.0 / 3.0);
}

TEST(SpecPlan, PlansAreDeterministic) {
  const SweepSpec grid = unbalanced_grid();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(plan_shard_indices(grid, PartitionStrategy::kLpt, s, 3),
              plan_shard_indices(grid, PartitionStrategy::kLpt, s, 3));
  }
}

TEST(SpecPlan, RoundRobinMatchesShardCellIndices) {
  const SweepSpec grid = unbalanced_grid();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(plan_shard_indices(grid, PartitionStrategy::kRoundRobin, s, 3),
              shard_cell_indices(grid.cells.size(), s, 3));
  }
}

TEST(SpecPlan, BoundsErrorsMatchRoundRobinContract) {
  const SweepSpec grid = unbalanced_grid();
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kRoundRobin, PartitionStrategy::kLpt}) {
    EXPECT_THROW((void)plan_shard_indices(grid, strategy, 0, 0),
                 std::invalid_argument);
    EXPECT_THROW((void)plan_shard_indices(grid, strategy, 3, 3),
                 std::invalid_argument);
    EXPECT_THROW((void)plan_shard_indices(grid, strategy, -1, 3),
                 std::invalid_argument);
  }
}

// The determinism guard the partition stamps exist for: shards cut by
// different strategies refuse to merge, and unrecorded/explicit stamps
// stay compatible with everything.
TEST(SpecPlan, MergeRejectsMixedPartitionStrategies) {
  ShardResult a;
  a.sweep_fingerprint = 1;
  a.total_cells = 2;
  a.partition = "lpt";
  a.cell_indices = {0};
  a.cell_fingerprints = {10};
  a.cells = {ScenarioResult{}};
  ShardResult b = a;
  b.partition = "round-robin";
  b.cell_indices = {1};
  b.cell_fingerprints = {11};

  try {
    (void)merge_shards({a, b});
    FAIL() << "expected a mixed-strategy rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "mix partition strategies (lpt vs round-robin)"),
              std::string::npos)
        << e.what();
  }

  // Same strategy merges; explicit and unrecorded stamps are compatible
  // with any strategy.
  b.partition = "lpt";
  EXPECT_NO_THROW((void)merge_shards({a, b}));
  b.partition = "explicit";
  EXPECT_NO_THROW((void)merge_shards({a, b}));
  b.partition = "";
  EXPECT_NO_THROW((void)merge_shards({a, b}));
}

// The partition stamp survives the shard-file round trip (and its absence
// stays absent, keeping pre-split shard files readable and byte-stable).
TEST(SpecPlan, PartitionStampRoundTripsThroughShardJson) {
  ShardResult shard;
  shard.sweep_fingerprint = 77;
  shard.total_cells = 1;
  shard.partition = "lpt";
  shard.cell_indices = {0};
  shard.cell_fingerprints = {5};
  shard.cells = {ScenarioResult{}};

  std::ostringstream os;
  write_shard_json(os, shard);
  EXPECT_NE(os.str().find("\"partition\": \"lpt\""), std::string::npos);
  EXPECT_EQ(read_shard_json(os.str()).partition, "lpt");

  shard.partition.clear();
  std::ostringstream bare;
  write_shard_json(bare, shard);
  EXPECT_EQ(bare.str().find("partition"), std::string::npos);
  EXPECT_EQ(read_shard_json(bare.str()).partition, "");
}

}  // namespace
}  // namespace sprout::spec
