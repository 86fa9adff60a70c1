// Heterogeneous shared-queue topologies: per-flow schemes, SproutParams
// overrides and staggered activity windows commingled in ONE queue.
// Covers spec validation, conservation invariants with unequal flows,
// equivalence of the homogeneous forms, and bit-identical mixed-scheme
// determinism under run_sweep's thread pool.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "runner/scenario.h"
#include "runner/shard.h"

namespace sprout {
namespace {

const LinkPreset& verizon() {
  return find_link_preset("Verizon LTE", LinkDirection::kDownlink);
}

// Short runs throughout: these tests probe wiring, windows and
// determinism, not steady-state metrics.
ScenarioSpec short_times(ScenarioSpec spec) {
  spec.run_time = sec(12);
  spec.warmup = sec(3);
  return spec;
}

ScenarioSpec mixed_spec(SchemeId rival) {
  return short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout), FlowSpec::of(rival)}, verizon()));
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].label, b.flows[f].label);
    EXPECT_DOUBLE_EQ(a.flows[f].throughput_kbps, b.flows[f].throughput_kbps);
    EXPECT_DOUBLE_EQ(a.flows[f].delay95_ms, b.flows[f].delay95_ms);
    EXPECT_DOUBLE_EQ(a.flows[f].mean_delay_ms, b.flows[f].mean_delay_ms);
    EXPECT_DOUBLE_EQ(a.flows[f].coactive_throughput_kbps,
                     b.flows[f].coactive_throughput_kbps);
    EXPECT_DOUBLE_EQ(a.flows[f].capacity_share, b.flows[f].capacity_share);
  }
  EXPECT_DOUBLE_EQ(a.jain_index, b.jain_index);
  EXPECT_DOUBLE_EQ(a.capacity_kbps, b.capacity_kbps);
  EXPECT_DOUBLE_EQ(a.aggregate_throughput_kbps, b.aggregate_throughput_kbps);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.link_drops, b.link_drops);
}

TEST(Heterogeneous, SproutVsCubicReportsPerFlowMetricsAndFairness) {
  const ScenarioSpec spec = mixed_spec(SchemeId::kCubic);
  const ScenarioResult r = run_scenario(spec);

  ASSERT_EQ(r.flows.size(), 2u);
  EXPECT_EQ(r.flows[0].label, "Sprout");
  EXPECT_EQ(r.flows[0].scheme, SchemeId::kSprout);
  EXPECT_EQ(r.flows[1].label, "Cubic");
  EXPECT_EQ(r.flows[1].scheme, SchemeId::kCubic);

  // Both flows ran the whole time: the co-active window is the
  // measurement window.
  EXPECT_DOUBLE_EQ(r.coactive_from_s, 3.0);
  EXPECT_DOUBLE_EQ(r.coactive_to_s, 12.0);
  for (const FlowResult& f : r.flows) {
    EXPECT_DOUBLE_EQ(f.active_from_s, 3.0);
    EXPECT_DOUBLE_EQ(f.active_to_s, 12.0);
    EXPECT_GT(f.throughput_kbps, 0.0);
    EXPECT_DOUBLE_EQ(f.coactive_throughput_kbps, f.throughput_kbps);
    EXPECT_GE(f.capacity_share, 0.0);
  }
  EXPECT_GT(r.jain_index, 0.0);
  EXPECT_LE(r.jain_index, 1.0 + 1e-12);
}

TEST(Heterogeneous, ConservationInvariantsWithUnequalFlows) {
  // A cautious Sprout against queue-filling Cubic: shares are unequal but
  // physics still holds — nothing arrives that the link could not carry.
  const ScenarioResult r = run_scenario(mixed_spec(SchemeId::kCubic));

  EXPECT_GT(r.capacity_kbps, 0.0);
  EXPECT_GT(r.packets_delivered, 0);
  EXPECT_GE(r.link_drops, 0);
  // Arrivals ride delivery opportunities: aggregate throughput cannot
  // exceed link capacity over the same window, nor can the co-active
  // capacity shares sum past one.
  EXPECT_LE(r.aggregate_throughput_kbps, r.capacity_kbps * (1.0 + 1e-9));
  double share_sum = 0.0;
  for (const FlowResult& f : r.flows) share_sum += f.capacity_share;
  EXPECT_LE(share_sum, 1.0 + 1e-9);
  // Jain's index over n flows lives in [1/n, 1].
  EXPECT_GE(r.jain_index, 1.0 / static_cast<double>(r.flows.size()) - 1e-12);
  EXPECT_LE(r.jain_index, 1.0 + 1e-12);
}

TEST(Heterogeneous, ExplicitFlowListMatchesHomogeneousFormBitForBit) {
  // N identical FlowSpecs must be THE SAME scenario as the num_flows
  // shorthand: same wiring order, same seeds, same results.
  ScenarioSpec shorthand =
      short_times(shared_queue_scenario(SchemeId::kSprout, 2, verizon()));
  ScenarioSpec explicit_list = short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout), FlowSpec::of(SchemeId::kSprout)},
      verizon()));
  expect_identical(run_scenario(shorthand), run_scenario(explicit_list));
}

TEST(Heterogeneous, StaggeredWindowsClipMetricsAndCoactiveWindow) {
  FlowSpec late_cubic = FlowSpec::of(SchemeId::kCubic);
  late_cubic.start = sec(6);
  late_cubic.stop = sec(9);
  const ScenarioSpec spec = short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout), late_cubic}, verizon()));
  const ScenarioResult r = run_scenario(spec);

  ASSERT_EQ(r.flows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.flows[0].active_from_s, 3.0);
  EXPECT_DOUBLE_EQ(r.flows[0].active_to_s, 12.0);
  EXPECT_DOUBLE_EQ(r.flows[1].active_from_s, 6.0);
  EXPECT_DOUBLE_EQ(r.flows[1].active_to_s, 9.0);
  // Co-active window = the overlap of everyone's activity.
  EXPECT_DOUBLE_EQ(r.coactive_from_s, 6.0);
  EXPECT_DOUBLE_EQ(r.coactive_to_s, 9.0);
  // The late joiner genuinely ran inside its window.
  EXPECT_GT(r.flows[1].throughput_kbps, 0.0);
  // And the full-time flow's co-active share reflects only [6 s, 9 s).
  EXPECT_GT(r.coactive_capacity_kbps, 0.0);
  EXPECT_GT(r.flows[0].coactive_throughput_kbps, 0.0);
  // Conservation holds even with unequal windows: the aggregate weights
  // each flow's rate by its own activity, so utilization stays a true
  // fraction of the link capacity.
  EXPECT_LE(r.aggregate_throughput_kbps, r.capacity_kbps * (1.0 + 1e-9));
  EXPECT_LE(r.aggregate_utilization, 1.0 + 1e-9);
}

TEST(Heterogeneous, PerFlowSproutParamsOverrideTakesEffect) {
  // Flow 1 forecasts at 25% confidence instead of the spec default 95%:
  // a materially more aggressive window must change its outcome.
  ScenarioSpec defaults = short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout), FlowSpec::of(SchemeId::kSprout)},
      verizon()));
  ScenarioSpec overridden = defaults;
  SproutParams aggressive;
  aggressive.confidence_percent = 25.0;
  overridden.topology.flows[1].sprout_params = aggressive;

  const ScenarioResult a = run_scenario(defaults);
  const ScenarioResult b = run_scenario(overridden);
  EXPECT_NE(a.flows[1].throughput_kbps, b.flows[1].throughput_kbps);
  // Flow 0 keeps the scenario defaults in both runs (its own dynamics
  // still shift through the shared queue, so only flow 1 is asserted).
  EXPECT_NE(a.flows[1].delay95_ms + a.flows[1].throughput_kbps,
            b.flows[1].delay95_ms + b.flows[1].throughput_kbps);
}

TEST(Heterogeneous, MixedSchemeSweepIsBitIdenticalSerialVsParallel) {
  std::vector<ScenarioSpec> specs;
  for (const SchemeId rival :
       {SchemeId::kCubic, SchemeId::kVegas, SchemeId::kGcc}) {
    for (const std::uint64_t seed : {42ull, 7ull}) {
      ScenarioSpec spec = mixed_spec(rival);
      spec.seed = seed;
      specs.push_back(spec);
    }
  }
  // One staggered cell in the mix.
  FlowSpec late = FlowSpec::of(SchemeId::kCubic);
  late.start = sec(5);
  specs.push_back(short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout), late}, verizon())));

  const SweepSpec grid{specs, std::nullopt};
  const std::vector<ScenarioResult> a = run_sweep(grid, /*threads=*/1).cells;
  const std::vector<ScenarioResult> b = run_sweep(grid, /*threads=*/8).cells;
  ASSERT_EQ(a.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
}

// --- spec validation ----------------------------------------------------

TEST(HeterogeneousValidation, EmptyFlowListIsRejected) {
  EXPECT_THROW((void)TopologySpec::heterogeneous_queue({}),
               std::invalid_argument);
}

TEST(HeterogeneousValidation, StopNotAfterStartIsRejected) {
  FlowSpec bad = FlowSpec::of(SchemeId::kCubic);
  bad.start = sec(5);
  bad.stop = sec(5);
  const ScenarioSpec spec = short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout), bad}, verizon()));
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(HeterogeneousValidation, StartBeyondRunTimeIsRejected) {
  FlowSpec bad = FlowSpec::of(SchemeId::kCubic);
  bad.start = sec(30);  // run_time is 12 s
  const ScenarioSpec spec = short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout), bad}, verizon()));
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(HeterogeneousValidation, WindowInsideWarmupIsRejected) {
  // Active only during the skipped first 3 s: never measured.
  FlowSpec bad = FlowSpec::of(SchemeId::kCubic);
  bad.start = sec(1);
  bad.stop = sec(2);
  const ScenarioSpec spec = short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout), bad}, verizon()));
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(HeterogeneousValidation, OmniscientCannotShareAQueue) {
  const ScenarioSpec spec = mixed_spec(SchemeId::kOmniscient);
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(HeterogeneousValidation, ConflictingLinkAqmPoliciesAreRejected) {
  // Cubic-CoDel and Cubic-PIE each request a different in-network queue
  // policy; one shared queue cannot honor both.
  const ScenarioSpec spec = short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kCubicCodel), FlowSpec::of(SchemeId::kCubicPie)},
      verizon()));
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(HeterogeneousValidation, SharedAqmMixIsAllowed) {
  // Sprout next to Cubic-CoDel: exactly one scheme requests an AQM, so the
  // link runs CoDel and the scenario is valid.
  const ScenarioSpec spec = mixed_spec(SchemeId::kCubicCodel);
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.flows.size(), 2u);
}

TEST(LinkAqmField, ExplicitPolicyPairsAnySchemeWithAnyDiscipline) {
  // Plain Cubic over an explicitly CoDel'd link: no scheme requests a
  // policy, the spec names one, and the run must differ from DropTail
  // (CoDel drops head-of-line packets a DropTail queue would deliver).
  ScenarioSpec droptail = mixed_spec(SchemeId::kCubic);
  ScenarioSpec codel = droptail;
  codel.link_aqm = LinkAqm::kCoDel;
  const ScenarioResult plain = run_scenario(droptail);
  const ScenarioResult managed = run_scenario(codel);
  ASSERT_EQ(managed.flows.size(), 2u);
  EXPECT_NE(plain.packets_delivered, managed.packets_delivered);
}

TEST(LinkAqmField, ExplicitDropTailMatchesTheAutoDefault) {
  // For a mix with no AQM requests, kAuto infers DropTail — so naming
  // DropTail explicitly must change nothing about the simulation.
  ScenarioSpec auto_spec = mixed_spec(SchemeId::kCubic);
  ScenarioSpec explicit_spec = auto_spec;
  explicit_spec.link_aqm = LinkAqm::kDropTail;
  expect_identical(run_scenario(auto_spec), run_scenario(explicit_spec));
}

TEST(LinkAqmField, ExplicitPolicyMatchingTheRequestIsValid) {
  ScenarioSpec spec = mixed_spec(SchemeId::kCubicCodel);
  spec.link_aqm = LinkAqm::kCoDel;  // agrees with Cubic-CoDel's request
  const ScenarioResult r = run_scenario(spec);
  EXPECT_EQ(r.flows.size(), 2u);
}

TEST(LinkAqmField, ExplicitPolicyContradictingARequestIsRejected) {
  // Cubic-CoDel's identity IS its queue policy: forcing PIE (or plain
  // DropTail) under it would silently redefine the scheme.
  ScenarioSpec spec = mixed_spec(SchemeId::kCubicCodel);
  spec.link_aqm = LinkAqm::kPie;
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
  spec.link_aqm = LinkAqm::kDropTail;
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(LinkAqmField, ExplicitPolicyIsCoveredByTheFingerprint) {
  // Two specs that simulate differently must derive different seeds; the
  // kAuto default hashes like the field never existed, so every
  // pre-existing spec keeps its derived seed.
  const ScenarioSpec auto_spec = mixed_spec(SchemeId::kCubic);
  ScenarioSpec pie = auto_spec;
  pie.link_aqm = LinkAqm::kPie;
  EXPECT_NE(scenario_fingerprint(auto_spec), scenario_fingerprint(pie));
  ScenarioSpec droptail = auto_spec;
  droptail.link_aqm = LinkAqm::kDropTail;
  EXPECT_NE(scenario_fingerprint(droptail), scenario_fingerprint(pie));
}

TEST(DrainTail, StoppedFlowsDrainedBytesLandInItsOwnLedger) {
  // Flow 1 (Cubic, the queue-builder) leaves at t = 6 s with a standing
  // queue behind the link; run with NO warmup so the measurement window
  // [0, 6) covers everything except the drain tail.  The windowed metrics
  // ignore bytes delivered after the stop; delivered_bytes must not.
  ScenarioSpec spec = short_times(heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout),
       FlowSpec::of(SchemeId::kCubic).active(sec(0), sec(6))},
      verizon()));
  spec.warmup = sec(0);
  const ScenarioResult r = run_scenario(spec);
  ASSERT_EQ(r.flows.size(), 2u);
  const FlowResult& cubic = r.flows[1];

  // Bytes the windowed throughput accounts for: rate * window length.
  const double window_s = cubic.active_to_s - cubic.active_from_s;
  const double window_bytes = cubic.throughput_kbps * 1000.0 / 8.0 * window_s;
  EXPECT_GT(cubic.delivered_bytes, 0);
  // The drain tail is real for a loss-based flow on an LTE trace: strictly
  // more bytes reached the receiver than the measurement window credits.
  EXPECT_GT(static_cast<double>(cubic.delivered_bytes),
            window_bytes + 0.5 * kMtuBytes);

  // The Sprout flow never stops: its ledger and its window agree (to
  // formatting noise), so the gap above is the tail, not a bookkeeping
  // artifact.
  const FlowResult& sprout_flow = r.flows[0];
  const double sprout_window_bytes = sprout_flow.throughput_kbps * 1000.0 /
                                     8.0 *
                                     (sprout_flow.active_to_s -
                                      sprout_flow.active_from_s);
  EXPECT_NEAR(static_cast<double>(sprout_flow.delivered_bytes),
              sprout_window_bytes, 1.0);
}

TEST(HeterogeneousValidation, FlowListOnNonSharedQueueKindIsRejected) {
  // Hand-built malformed topology: a single-flow kind carrying a flow
  // list.  Silently dropping the list would diverge from the fingerprint.
  ScenarioSpec spec = mixed_spec(SchemeId::kCubic);
  spec.topology.kind = TopologySpec::Kind::kSingleFlow;
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(HeterogeneousValidation, NumFlowsDisagreeingWithFlowListIsRejected) {
  ScenarioSpec spec = mixed_spec(SchemeId::kCubic);
  spec.topology.num_flows = 5;  // list has 2
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(Heterogeneous, DisjointActivityWindowsYieldNaNFairness) {
  // Flow A hands the link to flow B at t = 7 s: both are measured over
  // their own windows, but there is no instant where every flow was live,
  // so no fairness number exists.
  FlowSpec first = FlowSpec::of(SchemeId::kSprout);
  first.stop = sec(7);
  FlowSpec second = FlowSpec::of(SchemeId::kCubic);
  second.start = sec(7);
  const ScenarioSpec spec =
      short_times(heterogeneous_scenario({first, second}, verizon()));
  const ScenarioResult r = run_scenario(spec);
  EXPECT_TRUE(std::isnan(r.jain_index));
  EXPECT_DOUBLE_EQ(r.coactive_from_s, 0.0);
  EXPECT_DOUBLE_EQ(r.coactive_to_s, 0.0);
  EXPECT_DOUBLE_EQ(r.coactive_capacity_kbps, 0.0);
  // Per-flow metrics are still real: each flow ran inside its own window.
  EXPECT_GT(r.flows[0].throughput_kbps, 0.0);
  EXPECT_GT(r.flows[1].throughput_kbps, 0.0);
}

}  // namespace
}  // namespace sprout
