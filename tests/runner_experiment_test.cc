#include "runner/scenario.h"

#include "runner/schemes.h"
#include "trace/presets.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "obs/metrics.h"
#include "runner/sweep.h"

namespace sprout {
namespace {

ScenarioSpec quick(SchemeId scheme) {
  ScenarioSpec c;
  c.scheme = scheme;
  c.link = LinkSpec::preset("Verizon LTE", LinkDirection::kDownlink);
  c.run_time = sec(40);
  c.warmup = sec(10);
  return c;
}

TEST(Schemes, NamesAreUnique) {
  std::set<std::string> names;
  for (SchemeId s : figure7_schemes()) names.insert(to_string(s));
  EXPECT_EQ(names.size(), figure7_schemes().size());
  EXPECT_EQ(to_string(SchemeId::kCubicCodel), "Cubic-CoDel");
}

TEST(Experiment, ResultsAreDeterministicForSeed) {
  const ScenarioResult a = run_scenario(quick(SchemeId::kSprout));
  const ScenarioResult b = run_scenario(quick(SchemeId::kSprout));
  EXPECT_DOUBLE_EQ(a.throughput_kbps(), b.throughput_kbps());
  EXPECT_DOUBLE_EQ(a.delay95_ms(), b.delay95_ms());
}

TEST(Experiment, MetricsAreInternallyConsistent) {
  const ScenarioResult r = run_scenario(quick(SchemeId::kSprout));
  EXPECT_GT(r.throughput_kbps(), 0.0);
  EXPECT_GT(r.capacity_kbps, r.throughput_kbps() * 0.9);
  EXPECT_NEAR(r.utilization(), r.throughput_kbps() / r.capacity_kbps, 1e-9);
  EXPECT_GE(r.delay95_ms(), r.omniscient_delay95_ms - 1e-6);
  EXPECT_NEAR(r.self_inflicted_delay_ms(),
              r.delay95_ms() - r.omniscient_delay95_ms, 1e-6);
  EXPECT_GT(r.packets_delivered, 0);
}

TEST(Experiment, BandedInferenceMatchesDenseReferenceEndToEnd) {
  // The banded evolve kernel perturbs the model by at most ε = 1e-12 per
  // tick; over a full closed-loop run on BOTH a recorded preset and a
  // synthetic link, the headline metrics must stay within the golden lock's
  // tolerance of the exact reference (ε = 0, bit-identical to dense).
  SproutParams dense;
  dense.band_epsilon = 0.0;
  std::vector<ScenarioSpec> cells;
  {
    ScenarioSpec preset = quick(SchemeId::kSprout);
    preset.run_time = sec(30);
    preset.warmup = sec(5);
    cells.push_back(preset);
  }
  {
    ScenarioSpec synth;
    synth.scheme = SchemeId::kSprout;
    synth.link = LinkSpec::synthetic({}, {}, /*forward_seed=*/21,
                                     /*reverse_seed=*/22);
    synth.run_time = sec(30);
    synth.warmup = sec(5);
    cells.push_back(synth);
  }
  for (ScenarioSpec& cell : cells) {
    // Both runs use the identical explicit-flow topology so the only
    // difference is the evolve path.
    ScenarioSpec banded_cell = cell;
    banded_cell.topology = TopologySpec::heterogeneous_queue(
        {FlowSpec::of(SchemeId::kSprout)});
    const ScenarioResult banded = run_scenario(banded_cell);
    ScenarioSpec dense_cell = cell;
    dense_cell.topology = TopologySpec::heterogeneous_queue(
        {FlowSpec::of(SchemeId::kSprout).with_params(dense)});
    const ScenarioResult exact = run_scenario(dense_cell);
    EXPECT_NEAR(banded.throughput_kbps(), exact.throughput_kbps(),
                5e-4 * exact.throughput_kbps() + 1e-9);
    EXPECT_NEAR(banded.delay95_ms(), exact.delay95_ms(),
                5e-4 * exact.delay95_ms() + 1e-9);
  }
}

TEST(Experiment, OmniscientSchemeHasZeroSelfInflictedDelay) {
  const ScenarioResult r = run_scenario(quick(SchemeId::kOmniscient));
  EXPECT_NEAR(r.self_inflicted_delay_ms(), 0.0, 3.0);
  EXPECT_GT(r.utilization(), 0.97);
}

TEST(Experiment, SeriesCaptureProducesAlignedSeries) {
  // Figure 1's series come from the flight recorder: one point per bin from
  // t = 0, each carrying the link capacity beside the flow's throughput.
  ScenarioSpec c = quick(SchemeId::kSproutEwma);
  c.record_timeline = true;
  const ScenarioResult r = run_scenario(c);
  const std::vector<TimelinePoint>& points = r.flows.front().timeline.points;
  ASSERT_EQ(points.size(),
            static_cast<std::size_t>(c.run_time / c.timeline_bin));
  EXPECT_DOUBLE_EQ(points.back().time_s,
                   to_seconds(c.run_time - c.timeline_bin));
  double throughput_sum = 0.0;
  double capacity_sum = 0.0;
  for (const TimelinePoint& p : points) {
    throughput_sum += p.throughput_kbps;
    capacity_sum += p.capacity_kbps;
  }
  EXPECT_GT(throughput_sum, 0.0);
  EXPECT_GT(capacity_sum, 0.0);
}

TEST(Experiment, LossConfigReducesThroughput) {
  ScenarioSpec clean = quick(SchemeId::kSprout);
  ScenarioSpec lossy = clean;
  lossy.set_loss_rate(0.10);
  const double t_clean = run_scenario(clean).throughput_kbps();
  const double t_lossy = run_scenario(lossy).throughput_kbps();
  EXPECT_LT(t_lossy, t_clean);
  EXPECT_GT(t_lossy, 0.05 * t_clean);  // degraded, not dead (§5.6)
}

TEST(Experiment, AsymmetricLossSplitsByDirection) {
  // Feedback-only loss must be a different experiment than data-only loss:
  // both fields feed their own Cellsim direction, so fingerprints (and the
  // seeds a sweep derives from them) must distinguish the two.
  ScenarioSpec data_lossy = quick(SchemeId::kSprout);
  data_lossy.loss_rate_fwd = 0.10;
  ScenarioSpec feedback_lossy = quick(SchemeId::kSprout);
  feedback_lossy.loss_rate_rev = 0.10;
  EXPECT_NE(scenario_fingerprint(data_lossy),
            scenario_fingerprint(feedback_lossy));

  // Data-direction loss starves the measured flow directly; feedback loss
  // only slows its control loop.  Both hurt, data loss hurts more.
  const double clean = run_scenario(quick(SchemeId::kSprout)).throughput_kbps();
  const double fwd = run_scenario(data_lossy).throughput_kbps();
  const double rev = run_scenario(feedback_lossy).throughput_kbps();
  EXPECT_LT(fwd, clean);
  EXPECT_GT(rev, fwd);
}

TEST(Experiment, LegacyLossSetterKeepsSymmetricFingerprint) {
  // set_loss_rate() is the pre-split "each-way loss" spelling; a symmetric
  // split hashes exactly one loss field, so specs written before the split
  // keep their content addresses.
  ScenarioSpec symmetric = quick(SchemeId::kSprout);
  symmetric.set_loss_rate(0.05);
  EXPECT_DOUBLE_EQ(symmetric.loss_rate_fwd, 0.05);
  EXPECT_DOUBLE_EQ(symmetric.loss_rate_rev, 0.05);
  ScenarioSpec by_hand = quick(SchemeId::kSprout);
  by_hand.loss_rate_fwd = 0.05;
  by_hand.loss_rate_rev = 0.05;
  EXPECT_EQ(scenario_fingerprint(symmetric), scenario_fingerprint(by_hand));
}

TEST(Experiment, ConfidenceSweepTradesDelayForThroughput) {
  ScenarioSpec cautious = quick(SchemeId::kSprout);
  cautious.link =
      LinkSpec::preset("T-Mobile 3G (UMTS)", LinkDirection::kUplink);
  ScenarioSpec aggressive = cautious;
  aggressive.sprout_confidence = 5.0;
  const ScenarioResult r95 = run_scenario(cautious);
  const ScenarioResult r5 = run_scenario(aggressive);
  // Figure 9: lower confidence => more throughput, more delay.
  EXPECT_GE(r5.throughput_kbps(), r95.throughput_kbps() * 0.95);
  EXPECT_GE(r5.delay95_ms(), r95.delay95_ms() * 0.8);
}

TEST(Experiment, UplinkAndDownlinkAreDistinct) {
  ScenarioSpec down = quick(SchemeId::kCubic);
  ScenarioSpec up = down;
  up.link = LinkSpec::preset("Verizon LTE", LinkDirection::kUplink);
  const ScenarioResult rd = run_scenario(down);
  const ScenarioResult ru = run_scenario(up);
  EXPECT_NE(rd.capacity_kbps, ru.capacity_kbps);
}

TEST(Experiment, ValidateTopologyRejectsContradictions) {
  // The builders and run_scenario share ONE validator; contradictions are
  // rejected, never silently resolved.
  EXPECT_THROW((void)TopologySpec::shared_queue(0), std::invalid_argument);
  TopologySpec contradicted = TopologySpec::heterogeneous_queue(
      {FlowSpec::of(SchemeId::kSprout), FlowSpec::of(SchemeId::kCubic)});
  contradicted.num_flows = 3;  // disagrees with the 2-entry flow list
  EXPECT_THROW(validate_topology(contradicted), std::invalid_argument);
  TopologySpec stray_tunnel = TopologySpec::single_flow();
  stray_tunnel.via_tunnel = true;  // only tunnel topologies take this
  EXPECT_THROW(validate_topology(stray_tunnel), std::invalid_argument);
  TopologySpec stray_flows = TopologySpec::single_flow();
  stray_flows.flows = {FlowSpec::of(SchemeId::kSprout)};
  EXPECT_THROW(validate_topology(stray_flows), std::invalid_argument);
}

// --- extension schemes (GCC / FAST / Cubic-PIE), evaluated end-to-end ---

TEST(ExtensionSchemes, GccMovesTrafficWithBoundedDelay) {
  const ScenarioResult r = run_scenario(quick(SchemeId::kGcc));
  // GCC is reactive (delay-gradient): it should move real traffic but is
  // expected to trail Sprout on both axes over a fast-varying link.
  EXPECT_GT(r.throughput_kbps(), 100.0);
  EXPECT_LT(r.self_inflicted_delay_ms(), 10'000.0);
}

TEST(ExtensionSchemes, GccTrailsSproutOnDelay) {
  const ScenarioResult gcc = run_scenario(quick(SchemeId::kGcc));
  const ScenarioResult sprout = run_scenario(quick(SchemeId::kSprout));
  EXPECT_GT(gcc.self_inflicted_delay_ms(), sprout.self_inflicted_delay_ms());
}

TEST(ExtensionSchemes, FastSaturatesTheLink) {
  const ScenarioResult r = run_scenario(quick(SchemeId::kFast));
  EXPECT_GT(r.utilization(), 0.7);
  // Delay-based: far below Cubic's tens of seconds.
  EXPECT_LT(r.self_inflicted_delay_ms(), 5'000.0);
}

TEST(ExtensionSchemes, PieControlsCubicDelayLikeCodel) {
  const ScenarioResult cubic = run_scenario(quick(SchemeId::kCubic));
  const ScenarioResult pie = run_scenario(quick(SchemeId::kCubicPie));
  // In-network delay control: PIE must cut Cubic's delay by a large factor
  // (the §5.4 story, with PIE standing in for CoDel).
  EXPECT_LT(pie.self_inflicted_delay_ms(), cubic.self_inflicted_delay_ms() / 4.0);
  EXPECT_GT(pie.throughput_kbps(), cubic.throughput_kbps() * 0.3);
}

TEST(ExtensionSchemes, AllExtensionSchemesAreDeterministic) {
  for (const SchemeId s : extension_schemes()) {
    ScenarioSpec c = quick(s);
    c.run_time = sec(20);
    c.warmup = sec(5);
    const ScenarioResult a = run_scenario(c);
    const ScenarioResult b = run_scenario(c);
    EXPECT_DOUBLE_EQ(a.throughput_kbps(), b.throughput_kbps())
        << to_string(s);
    EXPECT_DOUBLE_EQ(a.delay95_ms(), b.delay95_ms()) << to_string(s);
  }
}

// --- §7 extension: multiple flows sharing one queue ---

ScenarioSpec shared_quick(SchemeId scheme, int flows) {
  ScenarioSpec c = shared_queue_scenario(
      scheme, flows, find_link_preset("Verizon LTE", LinkDirection::kDownlink));
  c.run_time = sec(40);
  c.warmup = sec(10);
  return c;
}

TEST(SharedQueue, SingleFlowMatchesShapeOfDedicatedRun) {
  const ScenarioResult shared =
      run_scenario(shared_quick(SchemeId::kSprout, 1));
  ASSERT_EQ(shared.flows.size(), 1u);
  EXPECT_GT(shared.flows[0].throughput_kbps, 100.0);
  EXPECT_NEAR(shared.jain_index, 1.0, 1e-9);
}

TEST(SharedQueue, SymmetricSproutsShareFairly) {
  const ScenarioResult r = run_scenario(shared_quick(SchemeId::kSprout, 4));
  ASSERT_EQ(r.flows.size(), 4u);
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    EXPECT_GT(r.flows[i].throughput_kbps, 0.0);
  }
  EXPECT_GT(r.jain_index, 0.75);
}

TEST(SharedQueue, SproutsKeepDelayFarBelowCubics) {
  const ScenarioResult sprouts =
      run_scenario(shared_quick(SchemeId::kSprout, 2));
  const ScenarioResult cubics =
      run_scenario(shared_quick(SchemeId::kCubic, 2));
  EXPECT_LT(sprouts.max_delay95_ms, cubics.max_delay95_ms / 4.0);
}

TEST(SharedQueue, AggregateNeverExceedsCapacity) {
  for (const int n : {1, 2, 4}) {
    const ScenarioResult r =
        run_scenario(shared_quick(SchemeId::kSproutEwma, n));
    EXPECT_LE(r.aggregate_utilization, 1.02) << n << " flows";
  }
}

TEST(SharedQueue, DeterministicForSeed) {
  const ScenarioResult a = run_scenario(shared_quick(SchemeId::kSprout, 2));
  const ScenarioResult b = run_scenario(shared_quick(SchemeId::kSprout, 2));
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].throughput_kbps, b.flows[i].throughput_kbps);
  }
}

TEST(SharedQueue, RejectsInvalidConfigs) {
  EXPECT_THROW((void)run_scenario(shared_quick(SchemeId::kSprout, 0)),
               std::invalid_argument);
  EXPECT_THROW((void)run_scenario(shared_quick(SchemeId::kOmniscient, 2)),
               std::invalid_argument);
  // A measurement window that ends before it starts leaves every flow
  // unmeasured; the tunnel pair is rejected like any other flow list,
  // direct or tunneled.
  for (const bool via : {false, true}) {
    ScenarioSpec empty_window = tunnel_scenario("Verizon LTE", via);
    empty_window.run_time = sec(10);
    empty_window.warmup = sec(12);
    EXPECT_THROW((void)run_scenario(empty_window), std::invalid_argument)
        << "via_tunnel=" << via;
  }
}

TEST(SproutSession, OneWayCellRunsOneFilter) {
  // Only the direction that carries data forecasts.  A single Sprout flow
  // infers its forward link at rx; tx's peer sends only heartbeats, so tx
  // runs no receiver.  The tunnel carries data both ways, so both of its
  // endpoints keep theirs.  Each receiver tick is one banded evolve and one
  // forecast, counted through the obs tallies.
  auto counter = [](const char* name) {
    return obs::Registry::instance().counter(name).value();
  };
  auto tally = [&](const ScenarioSpec& spec) {
    const std::int64_t evolves = counter("filter.evolve.banded");
    const std::int64_t forecasts = counter("forecast.single");
    (void)run_scenario(spec);
    return std::pair{counter("filter.evolve.banded") - evolves,
                     counter("forecast.single") - forecasts};
  };
  ScenarioSpec single = quick(SchemeId::kSprout);
  single.run_time = sec(10);
  single.warmup = sec(2);
  ScenarioSpec tunneled = tunnel_scenario("Verizon LTE", true);
  tunneled.run_time = sec(10);
  tunneled.warmup = sec(2);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto [single_evolves, single_forecasts] = tally(single);
  const auto [tunnel_evolves, tunnel_forecasts] = tally(tunneled);
  obs::set_enabled(was_enabled);
  // An endpoint ticks every 20 ms from one tick past its phase, through the
  // run's last instant: rx (phase 7 ms) ticks at 27, 47, ..., 9987 ms, 499
  // times; each tunnel endpoint (phase 0) at 20, 40, ..., 10000 ms, 500.
  EXPECT_EQ(single_evolves, 499);
  EXPECT_EQ(single_forecasts, 499);
  EXPECT_EQ(tunnel_evolves, 2 * 500);
  EXPECT_EQ(tunnel_forecasts, 2 * 500);
}

TEST(TunnelContention, RunsBothModes) {
  ScenarioSpec direct = tunnel_scenario("Verizon LTE", false);
  direct.run_time = sec(40);
  direct.warmup = sec(10);
  // flows[0] is the Cubic download, flows[1] the Skype call.
  const ScenarioResult d = run_scenario(direct);
  EXPECT_GT(d.flows.at(0).throughput_kbps, 0.0);
  EXPECT_GT(d.flows.at(1).throughput_kbps, 0.0);

  ScenarioSpec tunneled = direct;
  tunneled.topology.via_tunnel = true;
  const ScenarioResult t = run_scenario(tunneled);
  EXPECT_GT(t.flows.at(0).throughput_kbps, 0.0);
  EXPECT_GT(t.flows.at(1).throughput_kbps, 0.0);
}

}  // namespace
}  // namespace sprout
