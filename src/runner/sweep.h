// Deterministic parallel scenario sweeps.
//
// The paper's evaluation is a grid — schemes × links × loss rates ×
// confidence levels × seeds — of *independent* simulations.  SweepRunner
// executes such a grid on a thread pool and returns results in input
// order, bit-identical to running the same specs serially: every cell
// runs its own Simulator and RNGs, the only shared state is immutable
// caches (resolved traces here, forecaster CDF tables in
// core/forecaster.h), and nothing about a cell's execution depends on
// which thread picks it up.
//
// Per-cell seeds can be derived from a sweep-level base seed.  Derivation
// hashes the cell's CONTENT (scheme, link, topology, durations, ...), not
// its position, so reordering or extending the spec list never changes
// the seed — and therefore the result — any given cell gets.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "runner/scenario.h"

namespace sprout {

struct SweepOptions {
  // Worker threads; 0 means std::thread::hardware_concurrency().
  int threads = 0;
  // When set, every cell's seed is replaced by
  // derive_cell_seed(*base_seed, spec) before running.
  std::optional<std::uint64_t> base_seed;
};

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

// Dispatch order for a grid: cell indices sorted by descending
// estimated_cost (ties broken by input index, so the order is a pure
// function of the specs).  Starting the longest cells first keeps a 300 s
// cell from becoming the tail of the pool after all the 10 s cells have
// drained; results are unaffected — cells are independent and results are
// returned in input order regardless of execution order.
[[nodiscard]] std::vector<std::size_t> longest_first_order(
    const std::vector<ScenarioSpec>& specs);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  // Runs every spec and returns results in input order.  Cells execute
  // concurrently (up to `threads` at a time) but the returned vector is
  // bit-identical to a serial run of the same specs.  If any cell throws,
  // the first failure (in input order) is rethrown after all cells finish.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<ScenarioSpec>& specs);

 private:
  SweepOptions options_;
  ScenarioCache cache_;
};

}  // namespace sprout
