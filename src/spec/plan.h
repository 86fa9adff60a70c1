// Shard planning: which cells of a grid each of N processes runs.
//
// Round-robin (runner/shard.h's shard_cell_indices) deals cells by index —
// simple, but a grid whose expensive cells cluster at one stride leaves one
// shard doing most of the wall-clock work.  LPT (longest processing time
// first) instead walks the cells in descending estimated_cost and assigns
// each to the currently lightest shard: the classic greedy bound guarantees
// no shard exceeds 4/3 of the optimal makespan.
//
// Either strategy yields a clean partition, so merged results are identical
// whichever produced the shards — but MIXING strategies across the shards
// of one grid almost certainly double-covers some cells and orphans others.
// Shard files therefore record the strategy that cut them
// (ShardResult::partition), `sweep list` prints it, and merge rejects
// a mix outright rather than failing later with a confusing
// collision/coverage error.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "runner/shard.h"

namespace sprout::spec {

enum class PartitionStrategy {
  kRoundRobin,  // index i -> shard i mod N (the PR 3 default)
  kLpt,         // greedy cost balance over estimated_cost
};

[[nodiscard]] std::string to_string(PartitionStrategy strategy);
// Parses the exact strings to_string produces ("round-robin", "lpt");
// nullopt for anything else.
[[nodiscard]] std::optional<PartitionStrategy> partition_from_name(
    const std::string& name);

// Full LPT assignment: cells in descending estimated_cost (ties by index,
// so the plan is a pure function of the specs), each to the lightest shard
// (ties by lowest shard id).  Every cell appears in exactly one bucket;
// each bucket is sorted ascending.  Throws std::invalid_argument for a
// non-positive shard_count.
[[nodiscard]] std::vector<std::vector<std::size_t>> lpt_partition(
    const std::vector<ScenarioSpec>& cells, int shard_count);

// The cell indices shard `shard_index` of `shard_count` owns under
// `strategy`.  Bounds-checked exactly like shard_cell_indices.
[[nodiscard]] std::vector<std::size_t> plan_shard_indices(
    const SweepSpec& spec, PartitionStrategy strategy, int shard_index,
    int shard_count);

}  // namespace sprout::spec
