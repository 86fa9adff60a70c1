// Tests for the caller-supplied-trace link sources (LinkSpec::traces and
// LinkSpec::trace_files): the drop-in path for real captures, PF-cell
// output, or hand-built fixtures with known-by-construction metrics.
#include <gtest/gtest.h>

#include <cstdio>

#include "link/tower_cell.h"
#include "runner/scenario.h"
#include "trace/presets.h"
#include "trace/trace.h"

namespace sprout {
namespace {

// One opportunity every `gap_ms` for `seconds` — a constant-rate link.
Trace isochronous(std::int64_t gap_ms, int seconds) {
  std::vector<TimePoint> opp;
  for (std::int64_t t = 0; t < seconds * 1000; t += gap_ms) {
    opp.push_back(TimePoint{} + msec(t));
  }
  return Trace(std::move(opp), sec(seconds));
}

ScenarioSpec base_spec(SchemeId scheme) {
  ScenarioSpec c;
  c.scheme = scheme;
  // 500 pkt/s = 6 Mbit/s each way.
  c.link = LinkSpec::traces(isochronous(2, 45), isochronous(2, 45));
  c.run_time = sec(40);
  c.warmup = sec(10);
  return c;
}

TEST(FileTraces, OmniscientSaturatesAConstantLink) {
  const ScenarioResult r = run_scenario(base_spec(SchemeId::kOmniscient));
  EXPECT_GT(r.utilization(), 0.97);
  EXPECT_NEAR(r.capacity_kbps, 6000.0, 60.0);
  EXPECT_NEAR(r.self_inflicted_delay_ms(), 0.0, 5.0);
}

TEST(FileTraces, SproutNearlySaturatesAConstantLink) {
  // On a steady link the cautious forecast converges close to the true
  // rate: most of the caution cost comes from rate *variation*.
  const ScenarioResult r = run_scenario(base_spec(SchemeId::kSprout));
  EXPECT_GT(r.utilization(), 0.6);
  EXPECT_LT(r.self_inflicted_delay_ms(), 200.0);
}

TEST(FileTraces, CubicFillsTheUnboundedQueue) {
  const ScenarioResult r = run_scenario(base_spec(SchemeId::kCubic));
  EXPECT_GT(r.utilization(), 0.9);
  EXPECT_GT(r.self_inflicted_delay_ms(), 500.0);
}

TEST(FileTraces, MatchesPresetPathForIdenticalTraces) {
  // The preset link source must be exactly the trace link source + preset
  // traces: same seed, same result.
  const LinkPreset& down =
      find_link_preset("Verizon LTE", LinkDirection::kDownlink);
  ScenarioSpec preset;
  preset.scheme = SchemeId::kSproutEwma;
  preset.link = LinkSpec::preset(down);
  preset.run_time = sec(30);
  preset.warmup = sec(10);
  const ScenarioResult via_preset = run_scenario(preset);

  ScenarioSpec file = preset;
  file.link = LinkSpec::traces(
      preset_trace(down, preset.run_time + sec(2)),
      preset_trace(find_link_preset("Verizon LTE", LinkDirection::kUplink),
                   preset.run_time + sec(2)));
  const ScenarioResult via_file = run_scenario(file);

  EXPECT_DOUBLE_EQ(via_preset.throughput_kbps(), via_file.throughput_kbps());
  EXPECT_DOUBLE_EQ(via_preset.delay95_ms(), via_file.delay95_ms());
}

TEST(FileTraces, SurvivesTraceFileRoundTrip) {
  // write_trace_file -> LinkSpec::trace_files (ms quantization) must
  // preserve the experiment's results exactly for ms-aligned traces.
  const std::string fwd_path = "/tmp/sprout_filetrace_test_fwd.trace";
  const std::string rev_path = "/tmp/sprout_filetrace_test_rev.trace";
  write_trace_file(isochronous(5, 45), fwd_path);
  write_trace_file(isochronous(2, 45), rev_path);

  ScenarioSpec a = base_spec(SchemeId::kSprout);
  a.link = LinkSpec::traces(read_trace_file(fwd_path),
                            read_trace_file(rev_path));
  ScenarioSpec b = base_spec(SchemeId::kSprout);
  b.link = LinkSpec::trace_files(fwd_path, rev_path);

  const ScenarioResult ra = run_scenario(a);
  const ScenarioResult rb = run_scenario(b);
  std::remove(fwd_path.c_str());
  std::remove(rev_path.c_str());
  EXPECT_DOUBLE_EQ(ra.throughput_kbps(), rb.throughput_kbps());
  EXPECT_DOUBLE_EQ(ra.delay95_ms(), rb.delay95_ms());
}

TEST(FileTraces, PfCellTracesDriveTheFullStack) {
  // Two fading users share a 1 ms-slot PF cell; user 1's trace carries
  // the data, user 2's the feedback.
  TowerCellParams params;
  params.slot = msec(1);
  TowerCell cell(params);
  cell.add_user(1, make_fading_channel(5.0, 5));
  cell.add_user(2, make_fading_channel(5.0, 6));
  while (cell.now() < TimePoint{} + sec(45)) cell.step();
  ScenarioSpec c;
  c.scheme = SchemeId::kSprout;
  c.link = LinkSpec::traces(Trace(cell.remove_user(1), sec(45)),
                            Trace(cell.remove_user(2), sec(45)));
  c.run_time = sec(40);
  c.warmup = sec(10);
  const ScenarioResult r = run_scenario(c);
  EXPECT_GT(r.packets_delivered, 0);
  EXPECT_GE(r.self_inflicted_delay_ms(), 0.0);
  EXPECT_LE(r.throughput_kbps(), r.capacity_kbps * 1.001);
}

}  // namespace
}  // namespace sprout
