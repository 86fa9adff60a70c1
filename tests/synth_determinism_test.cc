// The synthesis subsystem's seed contract, locked four ways:
//
//   1. generate_synth_trace is a pure function of (spec, duration) —
//      repeated generation is identical, in any process.
//   2. A sweep over synth links is bit-identical serial vs thread pool vs
//      shard-merged (the cross-PROCESS leg is the synth_roundtrip ctest
//      target, which diffs `sweep` output files).
//   3. The canonical synth_key distinguishes every parameter, so the trace
//      cache and scenario fingerprints cannot conflate two channels.
//   4. One MMPP trace is golden-locked to a checked-in mahimahi file —
//      byte-identical output, regenerate after an INTENDED generator
//      change with:
//        SPROUT_UPDATE_GOLDEN=1 ./sprout_tests --gtest_filter='SynthGolden.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "runner/shard.h"
#include "spec/synth_io.h"
#include "synth/synth.h"

namespace sprout {
namespace {

SynthSpec busy_channel() {
  BrownianModelParams p;
  p.init_rate_pps = 300.0;
  return SynthSpec::brownian_model(p, 7)
      .with_op(SynthOp::sawtooth(4.0, 0.6, 1.0))
      .with_op(SynthOp::jitter(0.002));
}

TEST(SynthDeterminism, RepeatedGenerationIsByteIdentical) {
  const SynthSpec spec = busy_channel();
  const Trace a = generate_synth_trace(spec, sec(20));
  const Trace b = generate_synth_trace(spec, sec(20));
  EXPECT_EQ(a.opportunities(), b.opportunities());
  EXPECT_EQ(a.duration(), b.duration());
}

TEST(SynthDeterminism, SeedAndParamsChangeTheTrace) {
  const SynthSpec spec = busy_channel();
  const Trace base = generate_synth_trace(spec, sec(20));
  const Trace reseeded = generate_synth_trace(spec.with_seed(8), sec(20));
  EXPECT_NE(base.opportunities(), reseeded.opportunities());
  SynthSpec calmer = spec;
  calmer.brownian.sigma_pps_per_sqrt_s = 50.0;
  const Trace reshaped = generate_synth_trace(calmer, sec(20));
  EXPECT_NE(base.opportunities(), reshaped.opportunities());
}

// The grid every sweep-level check below shares: four synth cells over two
// channels x two schemes, content-derived seeds.
SweepSpec synth_grid() {
  SweepSpec sweep;
  for (const SynthSpec& forward :
       {busy_channel(), SynthSpec::markov_model({}, 11)}) {
    for (const SchemeId scheme : {SchemeId::kCubic, SchemeId::kVegas}) {
      ScenarioSpec cell;
      cell.scheme = scheme;
      cell.link = LinkSpec::synth(forward, SynthSpec{}.with_seed(2));
      cell.run_time = sec(8);
      cell.warmup = sec(2);
      sweep.cells.push_back(cell);
    }
  }
  sweep.base_seed = 42;
  return sweep;
}

std::string sweep_bytes(const SweepResult& result) {
  std::ostringstream os;
  write_sweep_json(os, result);
  return os.str();
}

TEST(SynthDeterminism, SerialThreadPoolAndShardMergeAreByteIdentical) {
  const SweepSpec grid = synth_grid();
  const std::string serial = sweep_bytes(run_sweep(grid, /*threads=*/1));
  const std::string pooled = sweep_bytes(run_sweep(grid, /*threads=*/4));
  EXPECT_EQ(serial, pooled);

  const ShardResult even = run_shard(grid, {0, 2}, /*threads=*/2);
  const ShardResult odd = run_shard(grid, {1, 3}, /*threads=*/2);
  const std::string merged = sweep_bytes(merge_shards({even, odd}));
  EXPECT_EQ(serial, merged);
}

TEST(SynthDeterminism, SweepCacheMaterializesEachChannelOnce) {
  const SweepSpec grid = synth_grid();
  // Trace-cache tallies live in the process-global obs registry; the
  // run's cache is fresh, so deltas around this run are exact.
  auto& reg = obs::Registry::instance();
  const std::int64_t misses_before =
      reg.counter("cache.traces.misses").value();
  const std::int64_t hits_before = reg.counter("cache.traces.hits").value();
  (void)run_sweep(grid, /*threads=*/0);
  // 4 cells x 2 directions = 8 trace lookups over 3 distinct channels
  // (two forwards + the shared reverse).
  EXPECT_EQ(reg.counter("cache.traces.misses").value() - misses_before, 3);
  EXPECT_EQ(reg.counter("cache.traces.hits").value() - hits_before, 5);
}

TEST(SynthKey, DistinguishesEveryKnob) {
  const SynthSpec spec = busy_channel();
  const std::string base = synth_key(spec, sec(10));
  EXPECT_NE(base, synth_key(spec, sec(11)));
  EXPECT_NE(base, synth_key(spec.with_seed(8), sec(10)));
  EXPECT_NE(base, synth_key(spec.with_op(SynthOp::scale(0.9)), sec(10)));
  SynthSpec tweaked = spec;
  tweaked.brownian.outage_escape_rate_per_s += 0.25;
  EXPECT_NE(base, synth_key(tweaked, sec(10)));
  SynthSpec op_tweaked = spec;
  op_tweaked.ops[0].depth += 0.1;
  EXPECT_NE(base, synth_key(op_tweaked, sec(10)));
  // And the scenario fingerprint hashes the key, so cells differ too.
  ScenarioSpec a;
  a.link = LinkSpec::synth(spec, SynthSpec{}.with_seed(2));
  ScenarioSpec b = a;
  b.link.forward_synth = tweaked;
  EXPECT_NE(scenario_fingerprint(a), scenario_fingerprint(b));
}

#ifndef SPROUT_SOURCE_DIR
#error "SPROUT_SOURCE_DIR must name the repo root (set by CMakeLists.txt)"
#endif

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(SynthGolden, MmppTraceMatchesCheckedInFile) {
  // The locked channel: a two-regime MMPP, fixed seed, 20 s.
  MarkovModelParams params;
  params.states = {{30.0, 2.0}, {120.0, 4.0}};
  const SynthSpec spec = SynthSpec::markov_model(params, 3);
  const Trace trace = generate_synth_trace(spec, sec(20));

  const std::string golden_path =
      std::string(SPROUT_SOURCE_DIR) + "/tests/golden/mmpp_trace.tr";
  const std::string generated_path =
      testing::TempDir() + "/mmpp_trace_generated.tr";
  write_trace_file(trace, generated_path);

  if (std::getenv("SPROUT_UPDATE_GOLDEN") != nullptr) {
    write_trace_file(trace, golden_path);
    GTEST_SKIP() << "golden MMPP trace regenerated at " << golden_path;
  }

  const std::string expected = read_bytes(golden_path);
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << golden_path
      << " — generate it with SPROUT_UPDATE_GOLDEN=1";
  EXPECT_EQ(read_bytes(generated_path), expected)
      << "generated MMPP trace drifted from the golden lock; if the change "
         "is intended, regenerate with SPROUT_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace sprout
