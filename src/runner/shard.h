// Sharded sweep execution: split a grid across OS processes, merge the
// pieces back, prove nothing was lost or changed.
//
// A SweepSpec is the unit of distribution: an ordered grid of scenario
// cells plus an optional base seed.  Because per-cell seeds are derived
// from cell CONTENT (sweep.h), any partition of the grid runs each cell
// bit-identically to the serial run — so
//
//     serial == thread pool == N processes, merged
//
// is an invariant, not an aspiration, and the regression tests assert it
// bitwise.  Shards are content-addressed: every shard file carries the
// grid's fingerprint (cell count + every cell fingerprint + base seed), so
// merging shards of two different grids — or of two builds that silently
// disagree about what a cell means — fails loudly instead of producing a
// plausible-looking chimera.
//
// The `sweep` CLI (examples/sweep.cpp) is the process driver:
//   sweep run   --spec G.json --shard i/N --out shard_i.json
//   sweep merge --spec G.json --out merged.json shard_*.json
// and `run` without --shard writes the merged schema directly, so a full
// single-process run and a merged N-process run of the same grid produce
// byte-identical files (the ctest shard_roundtrip target diffs them).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/sweep.h"

namespace sprout {

class JsonValue;

// An ordered grid of independent cells — what a sharded sweep distributes.
struct SweepSpec {
  std::vector<ScenarioSpec> cells;
  // When set, every cell's seed is content-derived from this base
  // (derive_cell_seed), exactly as SweepOptions::base_seed.
  std::optional<std::uint64_t> base_seed;
};

// Content address of the whole grid: cell count, every cell's fingerprint
// in grid order, and the base seed.  Two processes that built "the same"
// grid agree on it; any drift in a single field of a single cell changes it.
[[nodiscard]] std::uint64_t sweep_fingerprint(const SweepSpec& spec);

// The cell indices shard `shard_index` of `shard_count` owns: indices
// congruent to shard_index mod shard_count.  The round-robin deal keeps
// systematic grid structure (e.g. all long cells listed first) from
// landing in one shard.  Throws std::invalid_argument for an out-of-range
// shard_index or a non-positive shard_count.
[[nodiscard]] std::vector<std::size_t> shard_cell_indices(
    std::size_t total_cells, int shard_index, int shard_count);

// One executed slice of a grid: which cells ran (indices into the grid),
// their content fingerprints, and their results, stamped with the grid's
// address.  The three vectors are parallel.
struct ShardResult {
  std::uint64_t sweep_fingerprint = 0;
  std::size_t total_cells = 0;
  // Which partition strategy cut this shard ("round-robin", "lpt",
  // "explicit" for hand-picked --cells lists; "" when unrecorded, e.g. a
  // pre-split shard file).  Purely descriptive for a single shard — but
  // shards of one grid cut by DIFFERENT strategies cannot partition it
  // cleanly, so merge_shards rejects a mix of recorded strategies up
  // front instead of failing later with a confusing collision/gap error.
  std::string partition;
  std::vector<std::size_t> cell_indices;
  std::vector<std::uint64_t> cell_fingerprints;
  std::vector<ScenarioResult> cells;
};

// A complete sweep: every cell of the grid, in grid order.
struct SweepResult {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> cell_fingerprints;
  std::vector<ScenarioResult> cells;
};

// Runs the whole grid in this process (thread-pool parallel; 0 threads =
// hardware concurrency) and returns it with fingerprints attached.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec, int threads = 0);

// Runs one slice of the grid in this process.  `cell_indices` may come
// from shard_cell_indices or be an explicit list; duplicates and
// out-of-range indices are rejected.  Each cell's result is bit-identical
// to the same cell's result in a full run of the grid.
[[nodiscard]] ShardResult run_shard(const SweepSpec& spec,
                                    std::vector<std::size_t> cell_indices,
                                    int threads = 0);

// Merges executed shards into one SweepResult.  Throws std::runtime_error
// when the shards are not a clean partition of one grid: disagreeing sweep
// fingerprints or cell totals, a cell index covered twice (collision), or
// a cell index covered never (coverage gap).
[[nodiscard]] SweepResult merge_shards(const std::vector<ShardResult>& shards);

// Checks a merged result against the grid it claims to represent: the
// sweep fingerprint and every per-cell fingerprint must match what `spec`
// derives.  Throws std::runtime_error naming the first mismatch.
void verify_sweep_result(const SweepResult& merged, const SweepSpec& spec);

// JSON round trip.  Writers are deterministic (stable field order, exact
// 17-significant-digit doubles), so equal results serialize to equal
// bytes; readers throw std::runtime_error on truncated or corrupt input,
// a wrong schema tag, or internally inconsistent shard data.
void write_shard_json(std::ostream& os, const ShardResult& shard);
[[nodiscard]] ShardResult read_shard_json(std::string_view text);
void write_sweep_json(std::ostream& os, const SweepResult& sweep);
[[nodiscard]] SweepResult read_sweep_json(std::string_view text);

// One ScenarioResult, serialized with the exact writer/reader every shard
// and sweep file uses for its per-cell "result" object.  Exposed so the
// orchestrator's append-only journals (runner/orchestrator.h) carry
// byte-identical result records: journal replay reconstructs the same
// ShardResult JSON merge_shards accepts, and orchestrated == sharded ==
// serial stays a byte-level invariant.
void write_scenario_result_json(std::ostream& os, const ScenarioResult& r);
[[nodiscard]] ScenarioResult scenario_result_from_json(const JsonValue& v);

// Erases every `"<name>": {...}` member the result writer emits for the
// optional observer fields "runtime" (CellRuntime stamps) and "timeline"
// (flight-recorder timelines) from shard, sweep or journal text, and
// returns how many it removed.  Both members are flat objects (no nested
// braces) written only when recorded, so the textual erase reproduces the
// bytes of a run that never recorded them — which a parse/re-serialize
// round trip could not promise.  Throws std::invalid_argument for any
// other name and std::runtime_error when `text` does not parse before or
// after the erase, or a member is unterminated.
std::size_t erase_result_field(std::string& text, std::string_view name);

}  // namespace sprout
