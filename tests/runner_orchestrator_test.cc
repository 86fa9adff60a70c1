// The fault-tolerant orchestrator's spine: orchestrated (crashed, hung,
// halted, resumed) == serial, byte for byte — plus the journal fault
// paths that keep a resume honest (truncated tails, duplicate records,
// foreign grids, poisoned cells), mirroring the merge_shards suite.
#include "runner/orchestrator.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "runner/scenario.h"
#include "util/table.h"

namespace sprout {
namespace {

namespace fs = std::filesystem;

ScenarioSpec short_cell(SchemeId scheme, const char* network, int seconds) {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.link = LinkSpec::preset(network, LinkDirection::kDownlink);
  spec.run_time = sec(seconds);
  spec.warmup = sec(2);
  return spec;
}

// Three cheap cells with unequal costs, so the longest-first queue and
// the retry machinery both have something to chew on.
SweepSpec tiny_grid() {
  SweepSpec sweep;
  sweep.cells.push_back(short_cell(SchemeId::kCubic, "Verizon LTE", 10));
  sweep.cells.push_back(short_cell(SchemeId::kVegas, "AT&T LTE", 6));
  sweep.cells.push_back(short_cell(SchemeId::kCubic, "AT&T LTE", 6));
  sweep.base_seed = 0xabad1dea;
  return sweep;
}

std::string sweep_bytes(const SweepResult& sweep) {
  std::ostringstream os;
  write_sweep_json(os, sweep);
  return os.str();
}

// A fresh journal dir per test; gtest's TempDir persists across tests in
// one binary run, so stale journals must be scrubbed, not assumed away.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "orch_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

OrchestratorOptions quiet_options(const std::string& dir) {
  OrchestratorOptions options;
  options.journal_dir = dir;
  options.workers = 2;
  options.retry_backoff_s = 0.0;
  options.progress = false;
  return options;
}

// The complete journal text a finished single-slot run would leave, its
// records in `order` (a work-stealing worker finishes cells out of index
// order).
std::string journal_text(const SweepSpec& grid,
                         const std::vector<std::size_t>& order = {0, 1, 2}) {
  const ShardResult shard = run_shard(grid, order, /*threads=*/1);
  std::ostringstream os;
  write_journal_header(os, grid, 0);
  for (const std::size_t i : order) {
    write_journal_record(os, shard.records.at(i));
  }
  return os.str();
}

TEST(Orchestrator, MatchesSerialByteForByte) {
  const SweepSpec grid = tiny_grid();
  const OrchestrateOutcome outcome =
      orchestrate_sweep(grid, quiet_options(fresh_dir("serial")));
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.executed_cells, 3u);
  EXPECT_EQ(outcome.resumed_cells, 0u);
  EXPECT_TRUE(outcome.poisoned.empty());
  EXPECT_EQ(sweep_bytes(outcome.merged), sweep_bytes(run_sweep(grid)));
}

TEST(Orchestrator, HaltThenResumeMatchesSerial) {
  const SweepSpec grid = tiny_grid();
  const std::string dir = fresh_dir("halt");
  OrchestratorOptions options = quiet_options(dir);
  options.halt_after_cells = 1;  // simulated kill -9 of the whole job
  const OrchestrateOutcome first = orchestrate_sweep(grid, options);
  EXPECT_TRUE(first.halted);
  EXPECT_FALSE(first.complete);

  const OrchestrateOutcome resumed =
      orchestrate_sweep(grid, quiet_options(dir));
  ASSERT_TRUE(resumed.complete);
  EXPECT_GE(resumed.resumed_cells, 1u);
  EXPECT_EQ(resumed.resumed_cells + resumed.executed_cells, 3u);
  EXPECT_EQ(sweep_bytes(resumed.merged), sweep_bytes(run_sweep(grid)));
}

TEST(Orchestrator, CrashedCellIsRetriedThenSucceeds) {
  const SweepSpec grid = tiny_grid();
  OrchestratorOptions options = quiet_options(fresh_dir("retry"));
  options.crash_cells = {{1, 1}};  // first attempt dies, second runs
  const OrchestrateOutcome outcome = orchestrate_sweep(grid, options);
  ASSERT_TRUE(outcome.complete);
  EXPECT_TRUE(outcome.poisoned.empty());
  EXPECT_EQ(sweep_bytes(outcome.merged), sweep_bytes(run_sweep(grid)));
}

TEST(Orchestrator, PoisonedCellIsQuarantinedNotFatal) {
  const SweepSpec grid = tiny_grid();
  const std::string dir = fresh_dir("poison");
  OrchestratorOptions options = quiet_options(dir);
  options.crash_cells = {{0, -1}};  // crashes on every attempt
  options.max_attempts = 2;
  const OrchestrateOutcome outcome = orchestrate_sweep(grid, options);
  // The sweep is incomplete but not sunk: the other cells finished and
  // the poisoned cell is reported with its attempt count.
  EXPECT_FALSE(outcome.complete);
  EXPECT_FALSE(outcome.halted);
  ASSERT_EQ(outcome.poisoned.size(), 1u);
  EXPECT_EQ(outcome.poisoned[0].index, 0u);
  EXPECT_EQ(outcome.poisoned[0].attempts, 2);
  EXPECT_FALSE(outcome.poisoned[0].last_error.empty());
  EXPECT_EQ(outcome.executed_cells, 2u);

  // With the "bug" fixed, the same journals resume to a full sweep.
  const OrchestrateOutcome resumed =
      orchestrate_sweep(grid, quiet_options(dir));
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_cells, 2u);
  EXPECT_EQ(sweep_bytes(resumed.merged), sweep_bytes(run_sweep(grid)));
}

TEST(Orchestrator, HungCellIsReclaimedByTimeout) {
  const SweepSpec grid = tiny_grid();
  OrchestratorOptions options = quiet_options(fresh_dir("hang"));
  options.hang_cells = {{2, 1}};  // hangs once, runs on retry
  options.cell_timeout_s = 1.0;
  const OrchestrateOutcome outcome = orchestrate_sweep(grid, options);
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(sweep_bytes(outcome.merged), sweep_bytes(run_sweep(grid)));
}

TEST(Orchestrator, RecordRuntimeStampsCellsWithoutPerturbingResults) {
  const SweepSpec grid = tiny_grid();
  const std::string dir = fresh_dir("runtime");
  OrchestratorOptions options = quiet_options(dir);
  options.metrics_out = dir + "/metrics.jsonl";
  options.trace_out = dir + "/trace.json";
  const OrchestrateOutcome outcome = orchestrate_sweep(grid, options);
  ASSERT_TRUE(outcome.complete);

  // Every merged cell carries an execution stamp (merge preserved it).
  for (const ScenarioResult& cell : outcome.merged.cells) {
    EXPECT_TRUE(cell.runtime.recorded);
    EXPECT_GE(cell.runtime.wall_s, 0.0);
    EXPECT_GT(cell.runtime.peak_rss_bytes, 0);
    EXPECT_GE(cell.runtime.attempt, 1);
  }
  // The stamp is the ONLY divergence from an untelemetered run: clearing
  // it restores the serial bytes exactly.
  SweepResult scrubbed = outcome.merged;
  for (ScenarioResult& cell : scrubbed.cells) cell.runtime = CellRuntime{};
  EXPECT_EQ(sweep_bytes(scrubbed), sweep_bytes(run_sweep(grid)));

  // The metrics feed: v1 header, one cell event per cell, a summary with
  // the registry snapshot.
  std::ifstream metrics(options.metrics_out);
  ASSERT_TRUE(metrics.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(metrics, line));
  const JsonValue header = JsonValue::parse(line);
  EXPECT_EQ(header.at("schema").as_string(), "sprout-metrics-v1");
  EXPECT_EQ(header.at("total_cells").as_number(), 3.0);
  std::size_t cell_events = 0;
  bool saw_summary = false;
  while (std::getline(metrics, line)) {
    const JsonValue v = JsonValue::parse(line);
    const std::string& event = v.at("event").as_string();
    if (event == "cell") {
      EXPECT_GE(v.at("wall_s").as_number(), 0.0);
      EXPECT_GT(v.at("peak_rss_bytes").as_number(), 0.0);
      ++cell_events;
    } else if (event == "summary") {
      EXPECT_EQ(v.at("completed").as_number(), 3.0);
      EXPECT_TRUE(v.at("registry").has("counters"));
      saw_summary = true;
    }
  }
  EXPECT_EQ(cell_events, 3u);
  EXPECT_TRUE(saw_summary);

  // The trace: parseable Chrome trace-event JSON with one span per cell.
  std::ifstream trace_in(options.trace_out);
  ASSERT_TRUE(trace_in.is_open());
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  const JsonValue trace = JsonValue::parse(trace_text.str());
  std::size_t spans = 0;
  for (const JsonValue& e : trace.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X") ++spans;
  }
  EXPECT_EQ(spans, 3u);

  // Resuming from these journals keeps the stamps: the runtime field
  // survives the journal write/read roundtrip even when the resuming run
  // records nothing itself.
  const OrchestrateOutcome resumed =
      orchestrate_sweep(grid, quiet_options(dir));
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_cells, 3u);
  for (const ScenarioResult& cell : resumed.merged.cells) {
    EXPECT_TRUE(cell.runtime.recorded);
  }
}

TEST(Orchestrator, RejectsBadOptions) {
  const SweepSpec grid = tiny_grid();
  OrchestratorOptions options = quiet_options(fresh_dir("badopts"));
  options.workers = -1;
  EXPECT_THROW((void)orchestrate_sweep(grid, options), std::invalid_argument);
  options = quiet_options(fresh_dir("badopts"));
  options.max_attempts = 0;
  EXPECT_THROW((void)orchestrate_sweep(grid, options), std::invalid_argument);
  options = quiet_options(fresh_dir("badopts"));
  options.journal_dir.clear();
  EXPECT_THROW((void)orchestrate_sweep(grid, options), std::invalid_argument);
}

// --- journal fault paths -------------------------------------------------

TEST(OrchestratorJournal, RoundTripsAndReplaysInGridOrder) {
  const SweepSpec grid = tiny_grid();
  const std::string text = journal_text(grid, {2, 0, 1});
  const ShardResult scan =
      read_journal(text, "j", /*allow_truncated_tail=*/false);
  EXPECT_EQ(scan.sweep_fingerprint, sweep_fingerprint(grid));
  EXPECT_EQ(scan.total_cells, 3u);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records.front().index, 2u);  // file order, as journaled
  EXPECT_EQ(scan.dropped_bytes, 0u);

  const SweepResult merged = merge_shards({scan});
  verify_sweep_result(merged, grid);
  EXPECT_EQ(sweep_bytes(merged), sweep_bytes(run_sweep(grid)));
}

TEST(OrchestratorJournal, TruncatedFinalRecordIsStrictErrorButRecoverable) {
  const SweepSpec grid = tiny_grid();
  const std::string text = journal_text(grid);
  // Cut mid-way through the last record — the wound a kill -9 leaves.
  const std::string cut = text.substr(0, text.size() - 25);
  try {
    (void)read_journal(cut, "j", /*allow_truncated_tail=*/false);
    FAIL() << "strict scan accepted a truncated journal";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated final record"),
              std::string::npos)
        << e.what();
  }
  const ShardResult recovered =
      read_journal(cut, "j", /*allow_truncated_tail=*/true);
  EXPECT_EQ(recovered.records.size(), 2u);
  EXPECT_GT(recovered.dropped_bytes, 0u);
  // Recovery only ever drops the unterminated tail, never a whole line.
  const std::size_t last_newline = cut.rfind('\n');
  EXPECT_EQ(recovered.dropped_bytes, cut.size() - (last_newline + 1));
}

TEST(OrchestratorJournal, CorruptMidFileRecordIsAlwaysFatal) {
  const SweepSpec grid = tiny_grid();
  std::string text = journal_text(grid);
  // Damage a byte INSIDE the second line: not a truncation, corruption.
  const std::size_t second_line = text.find('\n') + 10;
  text[second_line] = '\x01';
  EXPECT_THROW((void)read_journal(text, "j", /*allow_truncated_tail=*/false),
               std::runtime_error);
  EXPECT_THROW((void)read_journal(text, "j", /*allow_truncated_tail=*/true),
               std::runtime_error);

  // Well-formed JSON carrying an out-of-range integer is corrupt too: every
  // journal integer is read bounded, and the error names the line.
  const std::string good = journal_text(grid);
  const auto expect_line_error = [](const std::string& bad,
                                    const std::string& where) {
    for (const bool tolerant : {false, true}) {
      try {
        (void)read_journal(bad, "j", tolerant);
        ADD_FAILURE() << "accepted:\n" << bad.substr(0, 200);
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
            << e.what();
      }
    }
  };
  for (const std::string index : {"1e30", "1e400", "-1", "2.5"}) {
    std::string bad = good;
    const std::string from = "{\"index\": 0,";
    bad.replace(bad.find(from), from.size(), "{\"index\": " + index + ",");
    expect_line_error(bad, "j: line 2: ");
  }
  std::string bad_total = good;
  const std::string from = "\"total_cells\": 3";
  bad_total.replace(bad_total.find(from), from.size(),
                    "\"total_cells\": 1e30");
  expect_line_error(bad_total, "j: line 1: ");
}

TEST(OrchestratorJournal, DuplicateCellRecordInOneJournalIsRejected) {
  const SweepSpec grid = tiny_grid();
  std::string text = journal_text(grid);
  // Append a copy of the first record line: the same cell twice.
  const std::size_t first = text.find('\n') + 1;
  const std::size_t second = text.find('\n', first) + 1;
  text += text.substr(first, second - first);
  try {
    (void)read_journal(text, "j", /*allow_truncated_tail=*/true);
    FAIL() << "duplicate cell record accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("journaled twice"),
              std::string::npos)
        << e.what();
  }
}

TEST(OrchestratorJournal, MissingHeaderIsRejected) {
  EXPECT_THROW((void)read_journal("", "j", true), std::runtime_error);
  const SweepSpec grid = tiny_grid();
  std::string text = journal_text(grid);
  text.erase(0, text.find('\n') + 1);  // drop the header line
  EXPECT_THROW((void)read_journal(text, "j", true), std::runtime_error);
}

TEST(OrchestratorJournal, ForeignGridJournalRefusesResume) {
  const SweepSpec grid = tiny_grid();
  SweepSpec other = grid;
  other.base_seed = 1234;  // different content address, same shape
  const std::string dir = fresh_dir("foreign");
  {
    std::ofstream out(dir + "/" + journal_file_name(0), std::ios::binary);
    out << journal_text(other);
  }
  try {
    (void)orchestrate_sweep(grid, quiet_options(dir));
    FAIL() << "resumed from a foreign grid's journal";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different grid"),
              std::string::npos)
        << e.what();
  }
}

TEST(OrchestratorJournal, DuplicateCoverageAcrossJournalsRefusesResume) {
  const SweepSpec grid = tiny_grid();
  const std::string dir = fresh_dir("dup");
  // Two journal slots that both claim the whole grid: a cell covered
  // twice can't resume into a clean partition.
  const std::string text = journal_text(grid);
  for (int id : {0, 1}) {
    std::ofstream out(dir + "/" + journal_file_name(id), std::ios::binary);
    // Rewrite the header's journal id so only coverage differs.
    std::string copy = text;
    const std::string from = "\"journal\": 0";
    copy.replace(copy.find(from), from.size(),
                 "\"journal\": " + std::to_string(id));
    out << copy;
  }
  try {
    (void)orchestrate_sweep(grid, quiet_options(dir));
    FAIL() << "resumed duplicate cell coverage";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate coverage"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sprout
