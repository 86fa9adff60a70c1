// The sharded sweep subsystem's spine: serial == thread pool == N merged
// shards, bit for bit — plus the failure modes that keep a merge honest
// (overlap, gaps, foreign shards, corrupt journals), the LPT cut and the
// longest-first scheduling order.
#include "runner/shard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "runner/scenario.h"
#include "runner/sweep.h"

namespace sprout {
namespace {

// NaN-aware bitwise equality: jain_index is deliberately NaN for disjoint
// activity windows, and NaN != NaN under operator==.
void expect_same_bits(double a, double b) {
  std::uint64_t ab = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ab, &a, sizeof ab);
  std::memcpy(&bb, &b, sizeof bb);
  EXPECT_EQ(ab, bb) << a << " vs " << b;
}

void expect_bit_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    SCOPED_TRACE("flow " + std::to_string(f));
    EXPECT_EQ(a.flows[f].label, b.flows[f].label);
    EXPECT_EQ(a.flows[f].scheme, b.flows[f].scheme);
    expect_same_bits(a.flows[f].active_from_s, b.flows[f].active_from_s);
    expect_same_bits(a.flows[f].active_to_s, b.flows[f].active_to_s);
    expect_same_bits(a.flows[f].throughput_kbps, b.flows[f].throughput_kbps);
    expect_same_bits(a.flows[f].delay95_ms, b.flows[f].delay95_ms);
    expect_same_bits(a.flows[f].mean_delay_ms, b.flows[f].mean_delay_ms);
    expect_same_bits(a.flows[f].coactive_throughput_kbps,
                     b.flows[f].coactive_throughput_kbps);
    expect_same_bits(a.flows[f].capacity_share, b.flows[f].capacity_share);
    EXPECT_EQ(a.flows[f].delivered_bytes, b.flows[f].delivered_bytes);
  }
  expect_same_bits(a.capacity_kbps, b.capacity_kbps);
  expect_same_bits(a.aggregate_throughput_kbps, b.aggregate_throughput_kbps);
  expect_same_bits(a.aggregate_utilization, b.aggregate_utilization);
  expect_same_bits(a.jain_index, b.jain_index);
  expect_same_bits(a.coactive_from_s, b.coactive_from_s);
  expect_same_bits(a.coactive_to_s, b.coactive_to_s);
  expect_same_bits(a.coactive_capacity_kbps, b.coactive_capacity_kbps);
  expect_same_bits(a.max_delay95_ms, b.max_delay95_ms);
  expect_same_bits(a.omniscient_delay95_ms, b.omniscient_delay95_ms);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.link_drops, b.link_drops);
}

void expect_bit_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.cell_fingerprints, b.cell_fingerprints);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_bit_identical(a.cells[i], b.cells[i]);
  }
}

ScenarioSpec short_cell(SchemeId scheme, const char* network, int seconds) {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.link = LinkSpec::preset(network, LinkDirection::kDownlink);
  spec.run_time = sec(seconds);
  spec.warmup = sec(2);
  return spec;
}

// Mixed durations (6 s next to 18 s), mixed flow counts, a heterogeneous
// shared queue, and one early-stopping flow: the unbalanced shape the
// longest-first scheduler and the drain-tail ledger exist for.
SweepSpec mixed_grid() {
  SweepSpec sweep;
  sweep.cells.push_back(short_cell(SchemeId::kCubic, "Verizon LTE", 6));
  {
    ScenarioSpec cell = short_cell(SchemeId::kSprout, "Verizon LTE", 18);
    cell.topology = TopologySpec::heterogeneous_queue(
        {FlowSpec::of(SchemeId::kSprout), FlowSpec::of(SchemeId::kCubic),
         FlowSpec::of(SchemeId::kVegas)});
    sweep.cells.push_back(cell);
  }
  sweep.cells.push_back(short_cell(SchemeId::kSprout, "AT&T LTE", 6));
  {
    ScenarioSpec cell = short_cell(SchemeId::kSprout, "AT&T LTE", 12);
    cell.topology = TopologySpec::heterogeneous_queue(
        {FlowSpec::of(SchemeId::kSprout),
         FlowSpec::of(SchemeId::kCubic).active(sec(0), sec(6))});
    sweep.cells.push_back(cell);
  }
  sweep.cells.push_back(short_cell(SchemeId::kVegas, "Verizon LTE", 6));
  sweep.base_seed = 0xfeedbeef;
  return sweep;
}

// A slice as `sweep run --shard` writes it: journal header, then records.
std::string journal_of(const SweepSpec& grid, const ShardResult& shard) {
  std::ostringstream os;
  write_journal_header(os, grid, /*journal_id=*/0);
  for (const JournalRecord& record : shard.records) {
    write_journal_record(os, record);
  }
  return os.str();
}

TEST(Shard, SerialPoolAndThreeShardMergeAreBitIdentical) {
  const SweepSpec grid = mixed_grid();

  const SweepResult serial = run_sweep(grid, /*threads=*/1);
  const SweepResult pooled = run_sweep(grid, /*threads=*/8);

  std::vector<ShardResult> shards;
  for (const std::vector<std::size_t>& cells : lpt_partition(grid.cells, 3)) {
    shards.push_back(run_shard(grid, cells, /*threads=*/2));
  }
  const SweepResult merged = merge_shards(shards);

  expect_bit_identical(serial, pooled);
  expect_bit_identical(serial, merged);
  verify_sweep_result(merged, grid);
}

TEST(Shard, MergedJsonRoundTripsBitwise) {
  const SweepSpec grid = mixed_grid();
  std::vector<ShardResult> shards;
  for (const std::vector<std::size_t>& cells : lpt_partition(grid.cells, 2)) {
    shards.push_back(run_shard(grid, cells, /*threads=*/4));

    // The slice's journal must round-trip exactly, NaN fairness included.
    const ShardResult reread =
        read_journal(journal_of(grid, shards.back()), "shard",
                     /*allow_truncated_tail=*/false);
    EXPECT_EQ(reread.sweep_fingerprint, shards.back().sweep_fingerprint);
    EXPECT_EQ(reread.total_cells, shards.back().total_cells);
    ASSERT_EQ(reread.records.size(), shards.back().records.size());
    for (std::size_t k = 0; k < reread.records.size(); ++k) {
      EXPECT_EQ(reread.records[k].index, shards.back().records[k].index);
      EXPECT_EQ(reread.records[k].fingerprint,
                shards.back().records[k].fingerprint);
      expect_bit_identical(reread.records[k].result,
                           shards.back().records[k].result);
    }
  }

  const SweepResult merged = merge_shards(shards);
  std::ostringstream merged_os;
  write_sweep_json(merged_os, merged);
  const SweepResult reread = read_sweep_json(merged_os.str());
  expect_bit_identical(merged, reread);

  // Byte-level determinism: serializing the reread result reproduces the
  // file, which is what lets CI diff a merged file against a full run.
  std::ostringstream again;
  write_sweep_json(again, reread);
  EXPECT_EQ(merged_os.str(), again.str());
}

TEST(Shard, ShardCellIndicesDealRoundRobin) {
  // On a grid of equal-cost cells the LPT cut is a round-robin deal: cell
  // i goes to shard i mod N, for every grid size and shard count.
  const ScenarioSpec cell = short_cell(SchemeId::kCubic, "Verizon LTE", 6);
  for (std::size_t total = 0; total <= 40; ++total) {
    const std::vector<ScenarioSpec> cells(total, cell);
    for (int n = 1; n <= 9; ++n) {
      std::vector<std::vector<std::size_t>> round_robin(
          static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < total; ++i) {
        round_robin[i % static_cast<std::size_t>(n)].push_back(i);
      }
      EXPECT_EQ(lpt_partition(cells, n), round_robin)
          << total << " cells, " << n << " shards";
    }
  }
  const std::vector<ScenarioSpec> seven(7, cell);
  EXPECT_EQ(lpt_partition(seven, 3),
            (std::vector<std::vector<std::size_t>>{{0, 3, 6}, {1, 4}, {2, 5}}));
  // An index list (the orchestrator's remaining cells) is cut the same
  // way, whatever order it is listed in.
  EXPECT_EQ(lpt_partition(seven, {6, 2, 5, 0}, 2),
            (std::vector<std::vector<std::size_t>>{{0, 5}, {2, 6}}));
  // More shards than cells: the surplus shards are legitimately empty.
  EXPECT_TRUE(lpt_partition({cell, cell}, 3)[2].empty());
  EXPECT_THROW((void)lpt_partition(seven, 0), std::invalid_argument);
  EXPECT_THROW((void)lpt_partition(seven, -1), std::invalid_argument);
}

TEST(Shard, RunShardRejectsBadCellLists) {
  const SweepSpec grid = mixed_grid();
  EXPECT_THROW((void)run_shard(grid, {0, 99}), std::invalid_argument);
  EXPECT_THROW((void)run_shard(grid, {1, 1}), std::invalid_argument);
}

// --- merge failure modes -------------------------------------------------

// A tiny grid the failure-mode tests can afford to run repeatedly.
SweepSpec tiny_grid() {
  SweepSpec sweep;
  sweep.cells.push_back(short_cell(SchemeId::kCubic, "Verizon LTE", 6));
  sweep.cells.push_back(short_cell(SchemeId::kVegas, "Verizon LTE", 6));
  sweep.cells.push_back(short_cell(SchemeId::kCubic, "AT&T LTE", 6));
  return sweep;
}

class ShardMerge : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    grid_ = new SweepSpec(tiny_grid());
    shards_ = new std::vector<ShardResult>();
    for (int s = 0; s < 3; ++s) {
      shards_->push_back(run_shard(*grid_, {static_cast<std::size_t>(s)}));
    }
  }
  static void TearDownTestSuite() {
    delete grid_;
    delete shards_;
    grid_ = nullptr;
    shards_ = nullptr;
  }

  static SweepSpec* grid_;
  static std::vector<ShardResult>* shards_;
};

SweepSpec* ShardMerge::grid_ = nullptr;
std::vector<ShardResult>* ShardMerge::shards_ = nullptr;

void expect_merge_error(const std::vector<ShardResult>& shards,
                        const std::string& needle) {
  try {
    (void)merge_shards(shards);
    FAIL() << "merge accepted a bad shard set";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST_F(ShardMerge, CleanPartitionMerges) {
  const SweepResult merged = merge_shards(*shards_);
  EXPECT_EQ(merged.cells.size(), 3u);
  verify_sweep_result(merged, *grid_);
}

TEST_F(ShardMerge, OverlappingShardsAreRejected) {
  std::vector<ShardResult> shards = *shards_;
  shards.push_back((*shards_)[1]);  // cell 1 delivered twice
  expect_merge_error(shards, "more than one shard");
}

TEST_F(ShardMerge, MissingCellsAreRejected) {
  std::vector<ShardResult> shards = {(*shards_)[0], (*shards_)[2]};
  expect_merge_error(shards, "covered by no shard");
}

TEST_F(ShardMerge, ForeignShardIsRejected) {
  std::vector<ShardResult> shards = *shards_;
  shards[2].sweep_fingerprint ^= 1;  // cut from "a different grid"
  expect_merge_error(shards, "not cut from the same grid");
}

TEST_F(ShardMerge, DisagreeingTotalsAreRejected) {
  std::vector<ShardResult> shards = *shards_;
  shards[1].total_cells = 7;
  expect_merge_error(shards, "totals disagree");
}

TEST_F(ShardMerge, OutOfRangeCellIndexIsRejected) {
  std::vector<ShardResult> shards = *shards_;
  shards[0].records[0].index = 5;
  expect_merge_error(shards, "only");
}

TEST_F(ShardMerge, EmptyMergeIsRejected) {
  expect_merge_error({}, "zero shards");
}

TEST_F(ShardMerge, VerifyCatchesCellSubstitution) {
  // Shards that merge cleanly but whose cells are not this grid's cells:
  // per-cell fingerprints are the last line of defense.
  std::vector<ShardResult> shards = *shards_;
  shards[1].records[0].fingerprint ^= 1;
  const SweepResult merged = merge_shards(shards);
  EXPECT_THROW(verify_sweep_result(merged, *grid_), std::runtime_error);
}

// A shard's JSON is its journal (JSON Lines, runner/shard.h); merge reads
// it strictly.

TEST_F(ShardMerge, TruncatedShardJsonIsRejected) {
  const std::string whole = journal_of(*grid_, (*shards_)[0]);
  // A truncated file (half-written by a dying process) must never parse
  // strictly, at ANY cut point inside a line — not just convenient ones.
  for (const double frac : {0.25, 0.5, 0.9, 0.99}) {
    const std::string cut =
        whole.substr(0, static_cast<std::size_t>(whole.size() * frac));
    ASSERT_NE(cut.back(), '\n') << frac;
    EXPECT_THROW((void)read_journal(cut, "j", /*allow_truncated_tail=*/false),
                 std::runtime_error)
        << frac;
  }
}

TEST_F(ShardMerge, CorruptShardJsonIsRejected) {
  const std::string whole = journal_of(*grid_, (*shards_)[0]);
  const auto read = [](const std::string& text) {
    return read_journal(text, "j", /*allow_truncated_tail=*/false);
  };

  std::string garbage = whole;
  garbage[whole.find("sweep_fingerprint") + 25] = 'x';  // inside the number
  EXPECT_THROW((void)read(garbage), std::runtime_error);

  EXPECT_THROW((void)read("not json at all\n"), std::runtime_error);
  EXPECT_THROW((void)read(""), std::runtime_error);
  EXPECT_THROW((void)read(whole + "trailing"), std::runtime_error);
  // A garbage line is corruption, not a kill -9 wound, even to a
  // recovery read.
  EXPECT_THROW((void)read_journal(whole + "trailing\n", "j",
                                  /*allow_truncated_tail=*/true),
               std::runtime_error);

  // Wrong schema tag: a sweep file is not a journal, and vice versa.
  std::string foreign = whole;
  const std::string tag = "sprout-journal-v1";
  foreign.replace(foreign.find(tag), tag.size(), "sprout-sweep-v1");
  EXPECT_THROW((void)read(foreign), std::runtime_error);
  const SweepResult merged = merge_shards(*shards_);
  std::ostringstream sweep_os;
  write_sweep_json(sweep_os, merged);
  EXPECT_THROW((void)read(sweep_os.str()), std::runtime_error);
  EXPECT_THROW((void)read_sweep_json(whole), std::runtime_error);

  // The legacy per-bin series members are written empty and must stay so;
  // the reader names the member it refuses.
  for (const std::string member : {"series", "capacity_series"}) {
    const std::string empty = "\"" + member + "\": []";
    std::string legacy = whole;
    const std::size_t at = legacy.find(empty);
    ASSERT_NE(at, std::string::npos) << member;
    legacy.replace(at, empty.size(), "\"" + member + "\": [[0, 1, 2, 3]]");
    try {
      (void)read(legacy);
      ADD_FAILURE() << "non-empty " << member << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + member + "\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ShardMerge, CounterBeyondDoubleExactRangeIsRejected) {
  // Integer counters ride as JSON numbers, exact only up to 2^53; a value
  // past that would round silently in the parse, so the reader refuses it.
  std::string text = journal_of(*grid_, (*shards_)[0]);
  const std::string key = "\"packets_delivered\": ";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t digits_at = at + key.size();
  const std::size_t digits_end = text.find_first_not_of("0123456789", digits_at);
  text.replace(digits_at, digits_end - digits_at, "9007199254740994");
  EXPECT_THROW((void)read_journal(text, "j", /*allow_truncated_tail=*/false),
               std::runtime_error);
}

TEST_F(ShardMerge, ForgedCellTotalSizesNothing) {
  // A header may claim any total up to 2^53.  The reader bounds indices by
  // it and the merge reports the first gap, but neither sizes anything by
  // the claim: a 2^53 total would be a petabyte bitmap.
  std::string text = journal_of(*grid_, (*shards_)[0]);
  const std::string key = "\"total_cells\": 3,";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, key.size(), "\"total_cells\": 9007199254740992,");
  const ShardResult forged =
      read_journal(text, "j", /*allow_truncated_tail=*/false);
  EXPECT_EQ(forged.total_cells, std::size_t{1} << 53);
  ASSERT_EQ(forged.records.size(), 1u);
  EXPECT_EQ(forged.records[0].index, 0u);
  expect_merge_error({forged}, "cell 1 is covered by no shard");
}

// The journal with its first histogram member (cell 0's first flow, on
// line 2) replaced by `hist`.
std::string with_first_hist(const std::string& journal,
                            const std::string& hist) {
  const std::string key = "\"delay_hist\": ";
  const std::size_t from = journal.find(key) + key.size();
  const std::size_t to = journal.find('}', from) + 1;  // a flat object
  std::string out = journal;
  out.replace(from, to - from, hist);
  return out;
}

TEST_F(ShardMerge, ForgedHistogramIsRejectedNamingItsLine) {
  // Nothing is sized by a histogram's claimed geometry, and bins must
  // strictly increase: a repeated bin used to overwrite the first count.
  const std::string whole = journal_of(*grid_, (*shards_)[0]);
  ASSERT_NE(whole.find(R"("delay_hist": {"bin_ms": 5, "max_ms": 20000,)"),
            std::string::npos);
  constexpr const char* kGeometry = R"("bin_ms": 5, "max_ms": 20000)";
  const struct {
    const char* geometry;
    const char* counts;
    const char* error;
  } forged[] = {
      {R"("bin_ms": 1e-6, "max_ms": 1e9)", "[[4,7]]",
       "more bins than a bin index can hold"},
      {R"("bin_ms": 1, "max_ms": 1e300)", "[[4,7]]",
       "more bins than a bin index can hold"},
      {R"("bin_ms": 5, "max_ms": "inf")", "[[4,7]]",
       "more bins than a bin index can hold"},
      {R"("bin_ms": 5, "max_ms": 1)", "[[4,7]]",
       "malformed histogram geometry"},
      {kGeometry, "[[4,7],[4,9000]]", "bins do not strictly increase"},
      {kGeometry, "[[5,1],[4,7]]", "bins do not strictly increase"},
      // 4000 is the overflow bin.
      {kGeometry, "[[4000,1],[4001,1]]", "bin 4001 out of range"},
      {kGeometry, "[[4294967296,1]]", "bin out of range"},
      {kGeometry, "[[4,-7]]", "negative histogram count"},
  };
  for (const auto& f : forged) {
    const std::string hist = std::string("{") + f.geometry +
                             R"(, "sum_ms": 28, "counts": )" + f.counts +
                             "}";
    try {
      (void)read_journal(with_first_hist(whole, hist), "j",
                         /*allow_truncated_tail=*/false);
      ADD_FAILURE() << "accepted " << hist;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("j: line 2: JSON: ", 0), 0u) << what;
      EXPECT_NE(what.find(f.error), std::string::npos) << what;
    }
  }
}

TEST_F(ShardMerge, ZeroCountHistogramPairsAreDropped) {
  const std::string text = with_first_hist(
      journal_of(*grid_, (*shards_)[0]),
      R"({"bin_ms": 5, "max_ms": 20000, "sum_ms": 84, )"
      R"("counts": [[3,0],[8,2],[4000,0]]})");
  const ShardResult read =
      read_journal(text, "j", /*allow_truncated_tail=*/false);
  const DelayHistogram& h = read.records.at(0).result.flows.at(0).delay_hist;
  EXPECT_EQ(h.bins(), (std::vector<DelayHistogram::Bin>{{8, 2}}));
  EXPECT_EQ(h.samples(), 2);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 42.0);
  std::ostringstream os;
  write_journal_record(os, read.records[0]);
  EXPECT_NE(os.str().find(R"("counts": [[8,2]]})"), std::string::npos);
}

// --- fingerprints and scheduling ----------------------------------------

TEST(Shard, SweepFingerprintCoversEveryCellAndTheSeed) {
  const SweepSpec grid = tiny_grid();
  const std::uint64_t fp = sweep_fingerprint(grid);

  SweepSpec reordered = grid;
  std::swap(reordered.cells[0], reordered.cells[1]);
  EXPECT_NE(fp, sweep_fingerprint(reordered));  // cells are index-addressed

  SweepSpec cell_changed = grid;
  cell_changed.cells[2].seed += 1;
  EXPECT_NE(fp, sweep_fingerprint(cell_changed));

  SweepSpec seeded = grid;
  seeded.base_seed = 7;
  EXPECT_NE(fp, sweep_fingerprint(seeded));

  EXPECT_EQ(fp, sweep_fingerprint(tiny_grid()));  // pure function of content
}

TEST(Shard, EstimatedCostScalesWithDurationFlowsAndSchemeWeight) {
  // Cost = seconds x summed scheme weight (Cubic == 1), so a Sprout cell
  // outweighs an equal-duration Cubic cell by its calibrated factor.
  const double w_sprout = scheme_cost_weight(SchemeId::kSprout);
  const double w_cubic = scheme_cost_weight(SchemeId::kCubic);
  EXPECT_DOUBLE_EQ(w_cubic, 1.0);  // the normalization anchor
  EXPECT_GT(w_sprout, w_cubic);

  ScenarioSpec single = short_cell(SchemeId::kSprout, "Verizon LTE", 10);
  EXPECT_DOUBLE_EQ(estimated_cost(single), 10.0 * w_sprout);

  ScenarioSpec shared = single;
  shared.topology = TopologySpec::shared_queue(4);
  EXPECT_DOUBLE_EQ(estimated_cost(shared), 40.0 * w_sprout);

  ScenarioSpec hetero = single;
  hetero.topology = TopologySpec::heterogeneous_queue(
      {FlowSpec::of(SchemeId::kSprout), FlowSpec::of(SchemeId::kCubic)});
  EXPECT_DOUBLE_EQ(estimated_cost(hetero), 10.0 * (w_sprout + w_cubic));

  // The tunnel always runs Cubic + Skype; riding SproutTunnel adds the
  // forecaster at a Sprout flow's weight.
  ScenarioSpec tunnel = single;
  tunnel.topology = TopologySpec::tunnel_contention(false);
  const double direct = estimated_cost(tunnel);
  EXPECT_DOUBLE_EQ(direct,
                   10.0 * (w_cubic + scheme_cost_weight(SchemeId::kSkype)));
  tunnel.topology = TopologySpec::tunnel_contention(true);
  EXPECT_DOUBLE_EQ(estimated_cost(tunnel), direct + 10.0 * w_sprout);
}

TEST(Shard, LongestFirstOrderIsDescendingAndStable) {
  const SweepSpec grid = mixed_grid();
  // Indices handed over in reverse: the order is a function of the cells,
  // never of the caller's list order.
  std::vector<std::size_t> reversed(grid.cells.size());
  std::iota(reversed.rbegin(), reversed.rend(), std::size_t{0});
  const std::vector<std::size_t> order =
      longest_first_order(grid.cells, reversed);
  ASSERT_EQ(order.size(), grid.cells.size());
  for (std::size_t k = 1; k < order.size(); ++k) {
    const double prev = estimated_cost(grid.cells[order[k - 1]]);
    const double cur = estimated_cost(grid.cells[order[k]]);
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(order[k - 1], order[k]);  // stable ties
    }
  }
  // The 18 s three-flow cell (index 1) must be dispatched first.
  EXPECT_EQ(order.front(), 1u);
}


// --- erase_result_field ---------------------------------------------------

std::string sweep_text(const SweepResult& sweep) {
  std::ostringstream os;
  write_sweep_json(os, sweep);
  return os.str();
}

// A real recorded sweep: timelines on every flow and runtime stamps on
// every cell, as an orchestrated --timeline --metrics-out run writes them.
class EraseResultField : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SweepSpec grid = tiny_grid();
    grid.cells.resize(2);
    plain_ = new std::string(sweep_text(run_sweep(grid, /*threads=*/1)));
    for (ScenarioSpec& cell : grid.cells) cell.record_timeline = true;
    SweepResult recorded = run_sweep(grid, /*threads=*/1);
    for (ScenarioResult& cell : recorded.cells) {
      cell.runtime = {true, 1.25, 4096, 2};
    }
    recorded_ = new std::string(sweep_text(recorded));
  }
  static void TearDownTestSuite() {
    delete plain_;
    delete recorded_;
    plain_ = recorded_ = nullptr;
  }

  static std::string* plain_;
  static std::string* recorded_;
};

std::string* EraseResultField::plain_ = nullptr;
std::string* EraseResultField::recorded_ = nullptr;

TEST_F(EraseResultField, ErasingBothFieldsRestoresThePlainBytes) {
  ASSERT_NE(*recorded_, *plain_);
  std::string text = *recorded_;
  EXPECT_EQ(erase_result_field(text, "runtime"), 2u);
  EXPECT_EQ(erase_result_field(text, "timeline"), 2u);
  EXPECT_EQ(text, *plain_);
}

TEST_F(EraseResultField, ErasingAnAbsentFieldIsAByteNoOp) {
  std::string text = *plain_;
  EXPECT_EQ(erase_result_field(text, "runtime"), 0u);
  EXPECT_EQ(erase_result_field(text, "timeline"), 0u);
  EXPECT_EQ(text, *plain_);
}

TEST_F(EraseResultField, RejectsUnknownNamesAndTruncatedMembers) {
  std::string text = *recorded_;
  EXPECT_THROW((void)erase_result_field(text, "flows"), std::invalid_argument);
  EXPECT_THROW((void)erase_result_field(text, "delay_hist"),
               std::invalid_argument);
  EXPECT_EQ(text, *recorded_);

  // Cut the file inside the first runtime member.
  const std::size_t at = recorded_->find("\"runtime\": {");
  ASSERT_NE(at, std::string::npos);
  std::string truncated = recorded_->substr(0, at + 20);
  EXPECT_THROW((void)erase_result_field(truncated, "runtime"),
               std::runtime_error);
}

}  // namespace
}  // namespace sprout
