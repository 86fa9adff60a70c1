// Content addressing and dispatch order for grids of scenario cells.
//
// The paper's evaluation is a grid — schemes × links × loss rates ×
// confidence levels × seeds — of *independent* simulations.  Every way of
// running such a grid (runner/shard.h's thread pool, static slices, the
// orchestrator's forked workers) builds on the three pieces here:
//
//   * scenario_fingerprint: a stable content hash of one cell;
//   * derive_cell_seed: a per-cell seed derived from a sweep-level base
//     seed and the cell's CONTENT (scheme, link, topology, durations, ...),
//     not its position, so reordering or extending a grid never changes
//     the seed — and therefore the result — any given cell gets;
//   * longest_first_order: the order cells are handed to workers in.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/scenario.h"

namespace sprout {

// The one FNV-1a mixing step every content fingerprint chains — the
// cell fingerprint below and the grid fingerprint in shard.h both build
// on it, so the two addresses cannot drift apart independently.  Mixes
// the eight bytes of `v`, least-significant first.
inline constexpr std::uint64_t kFnv1aOffsetBasis = 1469598103934665603ull;
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t state,
                                                std::uint64_t v) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int i = 0; i < 8; ++i) {
    state ^= (v >> (8 * i)) & 0xffu;
    state *= kPrime;
  }
  return state;
}

// Stable content fingerprint of a spec (FNV-1a over every field; inline
// traces are sampled).  Equal specs always collide; unequal specs almost
// never do, and a collision only means two cells share a seed.
[[nodiscard]] std::uint64_t scenario_fingerprint(const ScenarioSpec& spec);

// Order-independent per-cell seed: mixes the sweep's base seed with the
// cell's content fingerprint (including the spec's own seed field, so
// replicate cells that differ only in seed stay distinct).
[[nodiscard]] std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                                             const ScenarioSpec& spec);

// Dispatch order for cells `indices` of a grid: sorted by descending
// estimated_cost, ties by index, so the order is a pure function of the
// cells.  Starting the longest cells first keeps a 300 s cell from
// becoming the tail of a pool after all the 10 s cells have drained;
// results are unaffected — cells are independent and land at their own
// index regardless of execution order.
[[nodiscard]] std::vector<std::size_t> longest_first_order(
    const std::vector<ScenarioSpec>& cells, std::vector<std::size_t> indices);

}  // namespace sprout
