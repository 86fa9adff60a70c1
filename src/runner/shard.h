// Grid slices: run a grid — or one slice of it — on a thread pool, cut it
// into N slices, keep each slice as an append-only journal, and merge the
// slices back, proving nothing was lost or changed.
//
// A SweepSpec is the unit of distribution: an ordered grid of scenario
// cells plus an optional base seed.  Because per-cell seeds are derived
// from cell CONTENT (sweep.h), any partition of the grid runs each cell
// bit-identically to the serial run — so
//
//     serial == thread pool == N processes, merged == orchestrated
//
// is an invariant, not an aspiration, and the regression tests assert it
// bitwise.  Slices are content-addressed: every journal carries the
// grid's fingerprint (cell count + every cell fingerprint + base seed), so
// merging slices of two different grids — or of two builds that silently
// disagree about what a cell means — fails loudly instead of producing a
// plausible-looking chimera.
//
// One slice type (ShardResult) and one slice file (the journal) serve
// both drivers of the `sweep` CLI (examples/sweep.cpp):
//   sweep run   --spec G.json --shard i/N --out shard_i.journal.jsonl
//   sweep merge --spec G.json --out merged.json shard_*.journal.jsonl
// `run --shard` runs its slice in this process; the orchestrator's forked
// workers (runner/orchestrator.h) append one record per cell to the same
// kind of file, so an orchestrator journal directory is merge input as it
// stands and a static slice copied into one is resumed.  `run` without a
// slice writes the merged schema directly, so a full single-process run
// and a merged N-process run of the same grid produce byte-identical files
// (the roundtrip ctests diff them).
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
  // When set, every cell runs with seed derive_cell_seed(*base_seed, cell).
  std::optional<std::uint64_t> base_seed;
};

// Content address of the whole grid: cell count, every cell's fingerprint
// in grid order, and the base seed.  Two processes that built "the same"
// grid agree on it; any drift in a single field of a single cell changes it.
[[nodiscard]] std::uint64_t sweep_fingerprint(const SweepSpec& spec);

// One completed cell: its grid index, content fingerprint and result.
struct JournalRecord {
  std::size_t index = 0;
  std::uint64_t fingerprint = 0;
  ScenarioResult result;
};

// One executed slice of a grid, stamped with the grid's address: what
// run_shard returns, what a journal file holds, what merge_shards takes.
struct ShardResult {
  std::uint64_t sweep_fingerprint = 0;
  std::size_t total_cells = 0;
  std::vector<JournalRecord> records;
  // Bytes of a half-written trailing record dropped by a recovery read
  // (always 0 in strict mode, which throws instead).
  std::size_t dropped_bytes = 0;
};

// A complete sweep: every cell of the grid, in grid order.
struct SweepResult {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> cell_fingerprints;
  std::vector<ScenarioResult> cells;
};

// Runs cells `cell_indices` of the grid in this process on a pool of
// `threads` threads (0 = hardware concurrency) sharing one ScenarioCache.
// Cells are claimed longest first (longest_first_order); records come back
// in ascending cell index whatever the thread count, each bit-identical to
// the same cell in a serial run of the whole grid.  Duplicate or
// out-of-range indices throw std::invalid_argument.  If any cell throws,
// the first failure in index order is rethrown after all cells finish.
[[nodiscard]] ShardResult run_shard(const SweepSpec& spec,
                                    std::vector<std::size_t> cell_indices,
                                    int threads = 0);

// run_shard over every cell of the grid, merged into grid order.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec, int threads = 0);

// The static cut: cells `indices` of the grid in N slices balanced by LPT
// (longest processing time first).  Cells are visited in
// longest_first_order and each goes to the currently lightest shard (ties
// by lowest shard id); the classic greedy bound keeps every shard within
// 4/3 of the optimal makespan.  On equal-cost cells this deals the k-th
// listed index, in ascending order, to shard k mod N.  Every listed cell
// appears in exactly one bucket; each bucket is sorted ascending.  The
// same greedy loop prices `sweep list --wall-clock` and the orchestrator's
// ETA (the largest bucket's summed estimated_cost).  Throws
// std::invalid_argument for a non-positive shard_count.
[[nodiscard]] std::vector<std::vector<std::size_t>> lpt_partition(
    const std::vector<ScenarioSpec>& cells, std::vector<std::size_t> indices,
    int shard_count);
// Every cell of the grid.
[[nodiscard]] std::vector<std::vector<std::size_t>> lpt_partition(
    const std::vector<ScenarioSpec>& cells, int shard_count);

// Merges executed slices into one SweepResult.  Throws std::runtime_error
// when the slices are not a clean partition of one grid: disagreeing sweep
// fingerprints or cell totals, an out-of-range cell index, a cell covered
// twice (collision), or a cell covered never (coverage gap, naming the
// first uncovered cell).  Nothing is sized by the slices' claimed cell
// total, so a forged journal header cannot exhaust memory.
[[nodiscard]] SweepResult merge_shards(std::vector<ShardResult> shards);

// Checks a merged result against the grid it claims to represent: the
// sweep fingerprint and every per-cell fingerprint must match what `spec`
// derives.  Throws std::runtime_error naming the first mismatch.
void verify_sweep_result(const SweepResult& merged, const SweepSpec& spec);

// Sweep-file round trip.  The writer is deterministic (stable field
// order, exact 17-significant-digit doubles), so equal results serialize
// to equal bytes; the reader throws std::runtime_error on truncated or
// corrupt input, a wrong schema tag, or inconsistent cell data.
void write_sweep_json(std::ostream& os, const SweepResult& sweep);
[[nodiscard]] SweepResult read_sweep_json(std::string_view text);

// The bounded integer readers behind every strict reader of sweep files,
// journals and telemetry feeds (sweep_report's included).  Counters
// (bytes, packets, drops) travel as plain JSON numbers, which a double
// represents exactly up to 2^53 — ~9 PB of delivered bytes, far above any
// simulable run.  read_i64 takes an integral number within ±2^53;
// read_size also refuses a negative one (cell indices and totals).  u64
// fingerprints exceed 2^53, so they travel as decimal strings: read_u64.
// Each throws std::runtime_error on anything else (a fraction, 1e30).
[[nodiscard]] std::int64_t read_i64(const JsonValue& v);
[[nodiscard]] std::size_t read_size(const JsonValue& v);
[[nodiscard]] std::uint64_t read_u64(const JsonValue& v);

// --- journals -------------------------------------------------------------
//
// The one slice file.  Line 1 is a header stamping the grid's content
// address, every further line is one completed cell:
//
//   {"schema": "sprout-journal-v1", "sweep_fingerprint": "...",
//    "total_cells": N, "journal": id}
//   {"index": 3, "fingerprint": "...", "result": { ...per-cell result
//    JSON, as in sweep files... }}
//
// The orchestrator names worker slot i's journal shard_<i>.journal.jsonl
// and appends records as cells finish; `sweep run --shard I/N` writes
// journal I-1 (`--cells`: journal 0) with its records in ascending cell
// index.  Records are append-only and self-delimiting (one line each), so
// the only damage a kill can do is a truncated final line.

// Journal paths in `dir` (shard_*.journal.jsonl), sorted by id; the name
// for a given journal id.
[[nodiscard]] std::vector<std::string> list_journal_files(
    const std::string& dir);
[[nodiscard]] std::string journal_file_name(int journal_id);

void write_journal_header(std::ostream& os, const SweepSpec& spec,
                          int journal_id);
void write_journal_record(std::ostream& os, const JournalRecord& record);

// Parses one journal.  `label` prefixes error messages (usually the file
// name), and every error inside a line names the line.  With
// allow_truncated_tail, a final line cut mid-record — the expected wound
// of a kill -9 — is dropped and counted in dropped_bytes; without it (the
// strict merge path) the same wound throws.  A malformed line anywhere
// ELSE, an integer outside its range, a duplicate or out-of-range cell
// index, or a missing/foreign header always throws std::runtime_error.
// The header's cell total bounds indices but sizes nothing.
[[nodiscard]] ShardResult read_journal(std::string_view text,
                                       const std::string& label,
                                       bool allow_truncated_tail);
[[nodiscard]] ShardResult read_journal_file(const std::string& path,
                                            bool allow_truncated_tail);

// Erases every `"<name>": {...}` member the result writer emits for the
// optional observer fields "runtime" (CellRuntime stamps) and "timeline"
// (flight-recorder timelines) from a sweep file's text, and returns how
// many it removed.  Both members are flat objects (no nested
// braces) written only when recorded, so the textual erase reproduces the
// bytes of a run that never recorded them — which a parse/re-serialize
// round trip could not promise.  Throws std::invalid_argument for any
// other name and std::runtime_error when `text` does not parse before or
// after the erase, or a member is unterminated.
std::size_t erase_result_field(std::string& text, std::string_view name);

}  // namespace sprout
