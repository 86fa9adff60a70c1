// Fault-tolerant sweep orchestration: a coordinator that forks workers,
// hands out cells by work-stealing, and checkpoints every completed cell
// to an append-only journal so nothing is ever computed twice.
//
// `sweep run --shard` (runner/shard.h) distributes a grid by cutting it into
// static slices up front; a process that dies takes its whole slice's
// progress with it.  The orchestrator closes that hole:
//
//   * Work-stealing dispatch.  Pending cells sit in one longest-first
//     queue (longest_first_order); an idle worker steals the most
//     expensive remaining cell.  On lumpy grids — a tower cell next to a
//     pile of single-flow cells — this beats any static LPT cut, because
//     no worker is ever idle while cells remain.
//   * Append-only journals.  Each worker slot streams completed cells as
//     fingerprint-stamped records into `shard_<i>.journal.jsonl`, the
//     slice file of runner/shard.h.  A `kill -9` loses at most the record
//     being written; restarting the same command scans the journals,
//     truncates a half-written tail, and resumes from the last completed
//     cell.  Any journal of the grid in the directory counts, including a
//     static slice written by `sweep run --shard/--cells`.
//   * Retry with backoff + a poison list.  A cell whose worker crashes is
//     re-queued with doubling backoff; after `max_attempts` failures it
//     is quarantined and reported instead of sinking the sweep or being
//     re-queued forever.  A `cell_timeout_s` reclaims cells from hung
//     workers the same way (SIGKILL, then the crash path).
//
// Every worker runs its cell through run_shard, so per-cell seeds and
// result bytes are those of every other path, and the final merge is
// merge_shards over the journals.  So
//
//     orchestrated (killed + resumed) == sharded merge == serial
//
// is enforced by the `orchestrate_roundtrip` ctest target, which SIGKILLs
// workers mid-run and diffs the resumed merge against the single-process
// file.  The `sweep` CLI (examples/sweep.cpp) drives it as `sweep run
// --journal-dir DIR`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "runner/shard.h"

namespace sprout {

struct OrchestratorOptions {
  // Worker processes; 0 means std::thread::hardware_concurrency().  The
  // coordinator never forks more workers than there are cells to run.
  int workers = 0;
  // A cell is poisoned after this many failed attempts (>= 1).
  int max_attempts = 3;
  // Backoff before attempt k+1 of a failed cell: retry_backoff_s * 2^(k-1).
  double retry_backoff_s = 0.25;
  // Reclaim a cell from its worker after this many seconds (SIGKILL + the
  // ordinary crash/retry path); 0 disables the timeout.
  double cell_timeout_s = 0.0;
  // Directory holding the per-worker journals (created if missing).
  // Journals from a previous run of the SAME grid are resumed; journals
  // from a different grid are rejected loudly.
  std::string journal_dir;
  // Progress + ETA lines (completed/total, poison count, LPT-aware
  // remaining-makespan estimate) to `progress_out` (default std::cerr).
  // When progress_out is unset and stderr is a TTY, the line rewrites in
  // place (\r); otherwise sparse plain lines are emitted so CI logs do not
  // fill with carriage-return spam.
  bool progress = true;
  std::ostream* progress_out = nullptr;

  // --- observability ----------------------------------------------------
  // Streaming telemetry JSONL ("" = off): a header line, one "cell" event
  // per completed cell (index, worker slot, attempt, wall, RSS), "retry"/
  // "poison" events, throttled "progress" events, and a final "summary"
  // carrying the coordinator's obs-registry snapshot.  When set, every
  // journaled cell's result is also stamped with a CellRuntime (wall
  // seconds, worker peak RSS, landing attempt).  That field rides the
  // ordinary result serialization — merge preserves it, fingerprints
  // (which hash specs) ignore it — and erase_result_field
  // (runner/shard.h) removes it for byte-diffs against untelemetered runs.
  std::string metrics_out;
  // Chrome-trace-event JSON ("" = off): one complete event per cell
  // occupying its worker slot's lane, instants for spawns/deaths/retries.
  // Wall-clock timestamps — schema-checked in CI, never byte-diffed.
  std::string trace_out;

  // --- fault injection, for tests and the CI smoke job only ------------
  // {index, n}: the worker _exit(70)s when dispatched cell `index` on its
  // first n attempts (n < 0: every attempt — the poison path).
  std::vector<std::pair<std::size_t, int>> crash_cells;
  // {index, n}: the worker hangs on cell `index` for its first n attempts
  // (n < 0: always) — exercises the cell_timeout_s reclaim.
  std::vector<std::pair<std::size_t, int>> hang_cells;
  // After this many completions in THIS invocation, SIGKILL every worker
  // and stop — simulates `kill -9` of the whole job mid-run.  0 disables.
  std::size_t halt_after_cells = 0;
};

// One quarantined cell: it crashed/hung its worker on every attempt.
struct PoisonedCell {
  std::size_t index = 0;
  int attempts = 0;
  std::string last_error;
};

struct OrchestrateOutcome {
  // True when every cell of the grid is journaled; `merged` then holds the
  // full sweep (verified against the grid) and serializes byte-identically
  // to a serial run_sweep of the same spec.
  bool complete = false;
  // True when halt_after_cells stopped the run (merged is not populated).
  bool halted = false;
  std::size_t resumed_cells = 0;   // recovered from pre-existing journals
  std::size_t executed_cells = 0;  // run (and journaled) by this invocation
  std::vector<PoisonedCell> poisoned;
  SweepResult merged;
};

// Runs `spec` to completion under the coordinator described above,
// resuming from any journals already in options.journal_dir.  Throws
// std::invalid_argument for bad options and std::runtime_error for
// unusable journals (foreign grid, duplicate coverage, corrupt records).
[[nodiscard]] OrchestrateOutcome orchestrate_sweep(
    const SweepSpec& spec, const OrchestratorOptions& options);

}  // namespace sprout
