// sweep — run, shard, merge and resume scenario sweeps.
//
// A sweep is a grid of independent cells declared by a JSON experiment
// spec (--spec FILE, see spec/grid.h; specs/ holds checked-in examples).
// Per-cell seeds are content-derived, so every way of running a grid
// produces the same bytes:
//
//     serial == thread pool == N shard processes, merged
//            == orchestrated (killed + resumed), merged
//
// and the cmake/*_roundtrip.cmake ctests (label `roundtrip`) diff exactly
// that.
//
//   sweep list   --spec specs/coexistence_smoke.json --expand --shards 3
//                --wall-clock
//   sweep run    --spec specs/coexistence_smoke.json --out full.json
//   sweep run    --spec specs/coexistence_smoke.json --shard 1/3
//                --out s1.journal.jsonl
//   sweep run    --spec specs/coexistence_smoke.json --cells 0,2
//                --out s.journal.jsonl
//   sweep merge  --spec specs/coexistence_smoke.json --out merged.json
//                s*.journal.jsonl
//   sweep run    --spec specs/tower_smoke.json --journal-dir j/ --out s.json
//   sweep status --spec specs/tower_smoke.json --journal-dir j/
//
// `list` checks a spec without running it.  The spec reader is strict and
// path-aware, so a clean exit means every cell of the expanded grid passed
// the validation the runner applies, and the printed fingerprint is the
// content address `run` and `merge` stamp on results.  --expand adds a
// per-cell table, --shards N the LPT cut `run --shard I/N` runs, and
// --wall-clock a wall-clock estimate: per-cell estimated_cost
// (Cubic-equivalent seconds) packed onto --workers threads by the same LPT
// rule, divided by a rate measured here by timing one short Cubic cell, so
// one dominant cell shows up as the floor it really is instead of being
// averaged away.
//
// `run` without --journal-dir runs in this process (run_sweep/run_shard),
// optionally one static slice of the grid: --shard I/N (the grid's LPT
// cut, runner/shard.h) or an explicit --cells list.  A slice is written as
// a journal (runner/shard.h), the same file an orchestrator worker
// appends to.  `run --journal-dir DIR` runs under the fault-tolerant
// orchestrator (runner/orchestrator.h): forked work-stealing workers
// append every completed cell to a per-worker journal, so re-running a
// killed command resumes from the last completed cell — and a static
// slice copied into DIR counts as done.  Crashing cells are retried with
// doubling backoff (--max-attempts, --retry-backoff) and then quarantined
// (--poison-report); --cell-timeout reclaims hung workers.  `merge` reads
// any set of journals of one grid, static or orchestrated; `status`
// reports journal coverage.
//
// --workers N counts threads in-process and forked workers when
// orchestrated; leaving it out uses all cores.  --timeline flight-records
// every cell (sweep_report charts it).  Orchestrated telemetry:
// --metrics-out streams a JSONL event feed and stamps each result with a
// "runtime" field, --trace-out writes a Chrome trace; --quiet silences the
// progress line only.  Fault hooks for tests: --halt-after N (SIGKILL every
// worker after N completions), --crash-cell I[:N], --hang-cell I[:N].
//
// Every invocation of one sweep must name the same spec; the sweep
// fingerprint turns any disagreement into a hard error instead of a
// silently different grid.
//
// Exit codes: 0 complete, 1 error, 2 usage, 3 poisoned cells (journals
// keep the finished ones), 4 halted by --halt-after.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cli_io.h"
#include "runner/orchestrator.h"
#include "spec/grid.h"
#include "util/table.h"

namespace {

using namespace sprout;
using cli::UsageError;
using cli::write_file;

// Where the grid comes from.
struct GridSource {
  std::string spec_path;  // --spec
  bool timeline = false;  // --timeline: flight-record every cell
};

struct ResolvedGrid {
  std::string label;  // spec name or path, for messages
  SweepSpec sweep;
};

ResolvedGrid resolve_grid(const GridSource& source) {
  spec::ExperimentSpec experiment =
      spec::parse_experiment_file(source.spec_path);
  ResolvedGrid grid;
  grid.label = experiment.name.empty() ? source.spec_path : experiment.name;
  grid.sweep = std::move(experiment.sweep);
  // record_timeline is excluded from scenario fingerprints, so journals
  // written with and without --timeline cut the same grid.
  if (source.timeline) {
    for (ScenarioSpec& cell : grid.sweep.cells) cell.record_timeline = true;
  }
  return grid;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  sweep list   --spec FILE [--expand] [--shards N] [--wall-clock]"
      " [--workers T]\n"
      "  sweep run    GRID --out PATH [--workers N] [--timeline]\n"
      "               [--shard I/N | --cells A,B,C]\n"
      "  sweep run    GRID --out PATH --journal-dir DIR [--workers N]"
      " [--timeline]\n"
      "               [--max-attempts K] [--retry-backoff S]"
      " [--cell-timeout S]\n"
      "               [--poison-report PATH] [--quiet] [--metrics-out PATH]"
      " [--trace-out PATH]\n"
      "               [--halt-after N] [--crash-cell I[:N]]"
      " [--hang-cell I[:N]]\n"
      "  sweep merge  --out PATH [GRID] JOURNAL...\n"
      "  sweep status GRID [--journal-dir DIR] [JOURNAL...]\n"
      "GRID is --spec FILE, a JSON experiment spec; --shard and --cells"
      " write a journal\n"
      "exit codes: 0 complete, 1 error, 2 usage, 3 poisoned, 4 halted\n";
  return 2;
}

// "I/N" (1-based shard number) -> {I, N}.
std::pair<int, int> parse_shard(const std::string& arg) {
  const std::size_t slash = arg.find('/');
  if (slash == std::string::npos) {
    throw UsageError("--shard: wants I/N, got \"" + arg + "\"");
  }
  const int number =
      cli::parse_int_at_least("--shard", arg.substr(0, slash), 1);
  const int count =
      cli::parse_int_at_least("--shard", arg.substr(slash + 1), 1);
  if (number > count) {
    throw UsageError("--shard: shard " + std::to_string(number) + " of " +
                     std::to_string(count) + " does not exist (I must be in "
                     "1.." + std::to_string(count) + ")");
  }
  return {number, count};
}

// "A,B,C" -> 0-based cell indices, each inside the grid and listed once.
std::vector<std::size_t> parse_cells(const std::string& arg,
                                     const ResolvedGrid& grid) {
  const std::size_t total = grid.sweep.cells.size();
  std::vector<std::size_t> cells;
  std::vector<bool> seen(total, false);
  std::size_t start = 0;
  while (start <= arg.size()) {
    std::size_t end = arg.find(',', start);
    if (end == std::string::npos) end = arg.size();
    if (end > start) {
      const std::string token = arg.substr(start, end - start);
      const auto cell = static_cast<std::size_t>(
          cli::parse_int_at_least("--cells", token, 0));
      if (cell >= total) {
        throw UsageError("--cells: cell " + token + " outside the " +
                         std::to_string(total) + "-cell grid (cells are 0.." +
                         std::to_string(total - 1) + ")");
      }
      if (seen[cell]) {
        throw UsageError("--cells: cell " + token + " listed twice");
      }
      seen[cell] = true;
      cells.push_back(cell);
    }
    start = end + 1;
  }
  if (cells.empty()) {
    throw UsageError("--cells: wants A,B,C, got \"" + arg + "\"");
  }
  return cells;
}

// "I" (every attempt) or "I:N" (first N attempts) for the fault hooks.
std::pair<std::size_t, int> parse_fault(const std::string& flag,
                                        const std::string& text) {
  const std::size_t colon = text.find(':');
  const int index = cli::parse_int_at_least(flag, text.substr(0, colon), 0);
  const int n = colon == std::string::npos
                    ? -1
                    : cli::parse_int_at_least(flag, text.substr(colon + 1), 1);
  return {static_cast<std::size_t>(index), n};
}

// The views `sweep list` can add to its summary.
struct ListViews {
  bool expand = false;      // --expand: one row per cell
  int shards = 0;           // --shards N: the LPT cut of N shards
  bool wall_clock = false;  // --wall-clock: a measured wall-clock estimate
};

// One line describing a cell's flows: "Sprout" for a single flow,
// "Sprout + Cubic" for a heterogeneous queue, "4 x Vegas" for a
// homogeneous fleet, "Cubic + Skype (tunnel)" for tunnel contention and
// "tower, 64 users: Cubic 3, Sprout 1" for a tower and its mix weights.
std::string flows_summary(const ScenarioSpec& cell) {
  switch (cell.topology.kind) {
    case TopologySpec::Kind::kSingleFlow:
      return to_string(cell.scheme);
    case TopologySpec::Kind::kSharedQueue: {
      if (cell.topology.flows.empty()) {
        return std::to_string(cell.topology.num_flows) + " x " +
               to_string(cell.scheme);
      }
      std::string out;
      for (const FlowSpec& f : cell.topology.flows) {
        if (!out.empty()) out += " + ";
        out += to_string(f.scheme);
      }
      return out;
    }
    case TopologySpec::Kind::kTunnelContention:
      return cell.topology.via_tunnel ? "Cubic + Skype (tunnel)"
                                      : "Cubic + Skype (direct)";
    case TopologySpec::Kind::kTower:
      break;
  }
  const TowerSpec& tower = cell.topology.tower_spec;
  std::ostringstream os;
  os << "tower, " << tower.num_users << " users:";
  for (std::size_t i = 0; i < tower.mix.size(); ++i) {
    os << (i == 0 ? " " : ", ") << to_string(tower.mix[i].scheme) << " "
       << tower.mix[i].weight;
  }
  return os.str();
}

// A tower runs its own channel and ignores the cell's link.
std::string link_summary(const ScenarioSpec& cell) {
  return cell.topology.kind == TopologySpec::Kind::kTower
             ? cell.topology.tower_spec.channel.label()
             : cell.link.name();
}

// Measures how many Cubic-equivalent simulated seconds one thread of THIS
// machine retires per wall-clock second: one short Cubic cell, timed on
// its second run so trace generation and table warmup stay out of the
// number.  estimated_cost is in exactly these units (simulated seconds ×
// scheme_cost_weight, Cubic ≡ 1), so cost / rate is a wall-clock estimate.
double measure_cubic_seconds_per_wall_second() {
  ScenarioSpec probe;
  probe.scheme = SchemeId::kCubic;
  probe.link = LinkSpec::preset("Verizon LTE", LinkDirection::kDownlink);
  probe.run_time = sec(4);
  probe.warmup = sec(1);
  ScenarioCache cache;
  (void)run_scenario(probe, &cache);  // warm the trace cache
  const auto start = std::chrono::steady_clock::now();
  (void)run_scenario(probe, &cache);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return to_seconds(probe.run_time) / std::max(wall, 1e-9);
}

int cmd_list(const std::string& spec_path, const ListViews& views,
             int workers) {
  const spec::ExperimentSpec experiment =
      spec::parse_experiment_file(spec_path);
  const std::vector<ScenarioSpec>& cells = experiment.sweep.cells;
  // Summed estimated_cost of a set of cells.
  const auto cost_of = [&](const std::vector<std::size_t>& indices) {
    double cost = 0.0;
    for (const std::size_t i : indices) cost += estimated_cost(cells[i]);
    return cost;
  };
  double total_cost = 0.0;
  for (const ScenarioSpec& cell : cells) total_cost += estimated_cost(cell);
  std::cout << "spec:        " << spec_path << "\n"
            << "name:        "
            << (experiment.name.empty() ? "(unnamed)" : experiment.name)
            << "\n"
            << "cells:       " << cells.size() << "\n"
            << "est. cost:   " << format_double(total_cost, 0)
            << " Cubic-equivalent seconds\n"
            << "base seed:   "
            << (experiment.sweep.base_seed.has_value()
                    ? std::to_string(*experiment.sweep.base_seed)
                    : std::string("(per-cell seeds)"))
            << "\n"
            << "fingerprint: " << sweep_fingerprint(experiment.sweep) << "\n";

  if (views.wall_clock) {
    const double rate = measure_cubic_seconds_per_wall_second();
    const int cores = static_cast<int>(std::thread::hardware_concurrency());
    const int threads = workers > 0 ? workers : std::max(1, cores);
    // Pack cells onto threads the way a real run does — greedy LPT over
    // estimated_cost — and report the resulting makespan.  Cells cannot be
    // split, so total/threads is a fantasy whenever one expensive cell
    // (a Sprout-Adaptive grid point, say) towers over the rest; the LPT
    // makespan keeps that cell visible as the floor it is.
    double makespan = 0.0;
    for (const std::vector<std::size_t>& bucket :
         lpt_partition(cells, threads)) {
      makespan = std::max(makespan, cost_of(bucket));
    }
    std::cout << "wall-clock:  ~" << format_double(total_cost / rate, 1)
              << " s single-thread, ~" << format_double(makespan / rate, 1)
              << " s on " << threads
              << " threads (LPT makespan; measured " << format_double(rate, 0)
              << " Cubic-s/s per thread)\n";
  }

  if (views.expand) {
    std::cout << "\n";
    TableWriter t({"Cell", "Flows", "Link", "Run (s)", "Est. cost",
                   "Fingerprint"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t.row()
          .cell(static_cast<std::int64_t>(i))
          .cell(flows_summary(cells[i]))
          .cell(link_summary(cells[i]))
          .cell(to_seconds(cells[i].run_time), 0)
          .cell(estimated_cost(cells[i]), 0)
          .cell(std::to_string(scenario_fingerprint(cells[i])));
    }
    t.print(std::cout);
  }

  if (views.shards > 0) {
    std::cout << "\n";
    TableWriter t({"Shard", "Cells", "Est. cost"});
    const std::vector<std::vector<std::size_t>> cut =
        lpt_partition(cells, views.shards);
    for (int s = 0; s < views.shards; ++s) {
      const std::vector<std::size_t>& indices =
          cut[static_cast<std::size_t>(s)];
      std::string listed;
      for (const std::size_t i : indices) {
        if (!listed.empty()) listed += ",";
        listed += std::to_string(i);
      }
      t.row()
          .cell(std::to_string(s + 1) + "/" + std::to_string(views.shards))
          .cell(listed.empty() ? "(none)" : listed)
          .cell(cost_of(indices), 0);
    }
    t.print(std::cout);
  }
  return 0;
}

// In-process run: the whole grid as a sweep file, or one static slice of
// it as a journal.
int cmd_run(const GridSource& source, const std::string& shard_arg,
            const std::string& cells_arg, const std::string& out_path,
            int workers) {
  const ResolvedGrid grid = resolve_grid(source);
  if (shard_arg.empty() && cells_arg.empty()) {
    const SweepResult full = run_sweep(grid.sweep, workers);
    write_file(out_path,
               [&](std::ostream& os) { write_sweep_json(os, full); });
    std::cout << "sweep of " << full.cells.size() << " cells -> " << out_path
              << "\n";
    return 0;
  }
  std::vector<std::size_t> cells;
  int journal_id = 0;
  if (!shard_arg.empty()) {
    const auto [number, count] = parse_shard(shard_arg);
    cells = lpt_partition(grid.sweep.cells, count)[number - 1];
    journal_id = number - 1;
  } else {
    cells = parse_cells(cells_arg, grid);
  }
  const ShardResult shard = run_shard(grid.sweep, std::move(cells), workers);
  write_file(out_path, [&](std::ostream& os) {
    write_journal_header(os, grid.sweep, journal_id);
    for (const JournalRecord& record : shard.records) {
      write_journal_record(os, record);
    }
  });
  std::cout << "shard of " << shard.records.size() << "/" << shard.total_cells
            << " cells -> " << out_path << "\n";
  return 0;
}

void write_poison_report(const std::string& path,
                         const std::vector<PoisonedCell>& poisoned) {
  write_file(path, [&](std::ostream& os) {
    os << "{\n  \"poisoned\": [";
    for (std::size_t i = 0; i < poisoned.size(); ++i) {
      os << (i == 0 ? "" : ",") << "\n    {\"index\": " << poisoned[i].index
         << ", \"attempts\": " << poisoned[i].attempts << ", \"error\": ";
      write_json_string(os, poisoned[i].last_error);
      os << "}";
    }
    os << "\n  ]\n}\n";
  });
}

// Orchestrated run: forked workers, journals, resume.
int cmd_orchestrate(const GridSource& source,
                    const OrchestratorOptions& options,
                    const std::string& out_path,
                    const std::string& poison_path) {
  const ResolvedGrid grid = resolve_grid(source);
  const OrchestrateOutcome outcome = orchestrate_sweep(grid.sweep, options);

  if (outcome.halted) {
    std::cerr << "sweep: halted after " << outcome.executed_cells
              << " cells (journals kept in " << options.journal_dir
              << "; re-run the same command to resume)\n";
    return 4;
  }
  if (!outcome.poisoned.empty()) {
    for (const PoisonedCell& cell : outcome.poisoned) {
      std::cerr << "sweep: cell " << cell.index << " poisoned after "
                << cell.attempts << " attempts: " << cell.last_error << "\n";
    }
    if (!poison_path.empty()) {
      write_poison_report(poison_path, outcome.poisoned);
      std::cerr << "sweep: poison report -> " << poison_path << "\n";
    }
    std::cerr << "sweep: sweep incomplete (" << outcome.poisoned.size()
              << " poisoned cells); completed cells stay journaled in "
              << options.journal_dir << "\n";
    return 3;
  }

  write_file(out_path,
             [&](std::ostream& os) { write_sweep_json(os, outcome.merged); });
  std::cout << "orchestrated " << grid.label << ": "
            << outcome.merged.cells.size() << " cells ("
            << outcome.resumed_cells << " resumed, " << outcome.executed_cells
            << " executed) -> " << out_path << "\n";
  return 0;
}

int cmd_merge(const GridSource& source, bool have_grid,
              const std::vector<std::string>& journal_paths,
              const std::string& out_path) {
  std::vector<ShardResult> shards;
  shards.reserve(journal_paths.size());
  for (const std::string& path : journal_paths) {
    // Strict read: merging a journal with a half-written tail would
    // silently bless a damaged file — recover it with `run --journal-dir`.
    shards.push_back(read_journal_file(path, /*allow_truncated_tail=*/false));
  }
  const SweepResult merged = merge_shards(std::move(shards));
  if (have_grid) verify_sweep_result(merged, resolve_grid(source).sweep);
  write_file(out_path,
             [&](std::ostream& os) { write_sweep_json(os, merged); });
  std::cout << "merged " << journal_paths.size() << " journals, "
            << merged.cells.size() << " cells -> " << out_path << "\n";
  return 0;
}

// Coverage of the journals in `journal_dir` plus any named ones.
int cmd_status(const GridSource& source, const std::string& journal_dir,
               const std::vector<std::string>& journal_paths) {
  const ResolvedGrid grid = resolve_grid(source);
  const std::uint64_t fingerprint = sweep_fingerprint(grid.sweep);
  const std::size_t total = grid.sweep.cells.size();
  std::vector<std::string> paths;
  if (!journal_dir.empty()) paths = list_journal_files(journal_dir);
  paths.insert(paths.end(), journal_paths.begin(), journal_paths.end());
  std::vector<bool> covered(total, false);
  TableWriter t({"Journal", "Cells", "Of", "Fingerprint", "State"});
  for (const std::string& path : paths) {
    const ShardResult scan =
        read_journal_file(path, /*allow_truncated_tail=*/true);
    const bool foreign =
        scan.sweep_fingerprint != fingerprint || scan.total_cells != total;
    if (!foreign) {
      for (const JournalRecord& record : scan.records) {
        covered[record.index] = true;
      }
    }
    std::string state = foreign ? "FOREIGN GRID" : "ok";
    if (scan.dropped_bytes > 0) {
      state += " (+" + std::to_string(scan.dropped_bytes) +
               "B half-written tail)";
    }
    t.row()
        .cell(path)
        .cell(static_cast<std::int64_t>(scan.records.size()))
        .cell(static_cast<std::int64_t>(scan.total_cells))
        .cell(std::to_string(scan.sweep_fingerprint))
        .cell(state);
  }
  t.print(std::cout);
  std::size_t done = 0;
  for (const bool c : covered) done += c ? 1 : 0;
  std::cout << "grid " << grid.label << ": " << done << "/" << total
            << " cells journaled, " << (total - done) << " remaining\n";
  return 0;
}

// Flags that only the orchestrated path (run --journal-dir) reads.
constexpr std::string_view kOrchestratorFlags[] = {
    "--max-attempts", "--retry-backoff", "--cell-timeout", "--poison-report",
    "--quiet",        "--metrics-out",   "--trace-out",    "--halt-after",
    "--crash-cell",   "--hang-cell"};

// Flags that only `sweep list` reads.
constexpr std::string_view kListFlags[] = {"--expand", "--shards",
                                           "--wall-clock"};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  GridSource source;
  ListViews views;
  OrchestratorOptions options;
  std::string shard_arg;
  std::string cells_arg;
  std::string out_path;
  std::string poison_path;
  std::string orchestrator_flag;  // first flag that needs --journal-dir
  std::string list_flag;          // first flag only `list` reads
  std::vector<std::string> positional;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw UsageError(arg + ": needs a value");
        return argv[++i];
      };
      const auto note = [&](const auto& flags, std::string& first) {
        if (first.empty() && std::find(std::begin(flags), std::end(flags),
                                       arg) != std::end(flags)) {
          first = arg;
        }
      };
      note(kOrchestratorFlags, orchestrator_flag);
      note(kListFlags, list_flag);
      if (arg == "--spec") source.spec_path = value();
      else if (arg == "--timeline") source.timeline = true;
      else if (arg == "--workers") {
        options.workers = cli::parse_int_at_least(arg, value(), 1);
      }
      else if (arg == "--shard") shard_arg = value();
      else if (arg == "--expand") views.expand = true;
      else if (arg == "--shards") {
        views.shards = cli::parse_int_at_least(arg, value(), 1);
      }
      else if (arg == "--wall-clock") views.wall_clock = true;
      else if (arg == "--cells") cells_arg = value();
      else if (arg == "--out") out_path = value();
      else if (arg == "--journal-dir") options.journal_dir = value();
      else if (arg == "--poison-report") poison_path = value();
      else if (arg == "--max-attempts") {
        options.max_attempts = cli::parse_int_at_least(arg, value(), 1);
      }
      else if (arg == "--retry-backoff") {
        options.retry_backoff_s = cli::parse_nonneg_double(arg, value());
      }
      else if (arg == "--cell-timeout") {
        options.cell_timeout_s = cli::parse_nonneg_double(arg, value());
      }
      else if (arg == "--quiet") options.progress = false;
      else if (arg == "--metrics-out") {
        // Telemetry implies runtime stamping: every journaled cell gains a
        // "runtime" field (wall seconds, peak RSS, attempt).  Remove it
        // with `sweep_report strip runtime` before byte-diffing against a
        // plain run.
        options.metrics_out = value();
      }
      else if (arg == "--trace-out") options.trace_out = value();
      else if (arg == "--halt-after") {
        options.halt_after_cells = static_cast<std::size_t>(
            cli::parse_int_at_least(arg, value(), 1));
      }
      else if (arg == "--crash-cell") {
        options.crash_cells.push_back(parse_fault(arg, value()));
      }
      else if (arg == "--hang-cell") {
        options.hang_cells.push_back(parse_fault(arg, value()));
      }
      else if (arg.rfind("--", 0) == 0) return usage();
      else positional.push_back(arg);
    }
    if (command != "list" && !list_flag.empty()) {
      throw UsageError(list_flag + ": only `sweep list` reads it");
    }
    const bool have_grid = !source.spec_path.empty();
    const bool journaled = !options.journal_dir.empty();
    if (journaled && (!shard_arg.empty() || !cells_arg.empty())) {
      const std::string flag = !shard_arg.empty() ? "--shard" : "--cells";
      throw UsageError(flag + ": cannot be combined with --journal-dir (the "
                       "orchestrator hands out cells itself)");
    }
    if (!journaled && !orchestrator_flag.empty()) {
      throw UsageError(orchestrator_flag + ": needs --journal-dir");
    }

    if (command == "list") {
      if (!have_grid || !positional.empty()) return usage();
      return cmd_list(source.spec_path, views, options.workers);
    }
    if (command == "run") {
      if (!have_grid || out_path.empty() || !positional.empty() ||
          (!shard_arg.empty() && !cells_arg.empty())) {
        return usage();
      }
      if (journaled) {
        return cmd_orchestrate(source, options, out_path, poison_path);
      }
      return cmd_run(source, shard_arg, cells_arg, out_path, options.workers);
    }
    if (command == "merge") {
      if (out_path.empty() || positional.empty()) return usage();
      return cmd_merge(source, have_grid, positional, out_path);
    }
    if (command == "status") {
      if (!have_grid || (!journaled && positional.empty())) return usage();
      return cmd_status(source, options.journal_dir, positional);
    }
    return usage();
  } catch (const UsageError& e) {
    std::cerr << "sweep: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "sweep: " << e.what() << "\n";
    return 1;
  }
}
