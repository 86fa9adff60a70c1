#include "spec/scenario_io.h"

#include <gtest/gtest.h>

#include "runner/sweep.h"
#include "spec_test_util.h"
#include "trace/presets.h"

namespace sprout::spec {
namespace {

// The round-trip invariant: write -> parse preserves the content
// fingerprint, which hashes every field that can affect a simulation.
void expect_roundtrip(const ScenarioSpec& spec) {
  const std::string json = scenario_to_json(spec);
  ScenarioSpec back;
  ASSERT_NO_THROW(back = parse_scenario_json(json)) << json;
  EXPECT_EQ(scenario_fingerprint(back), scenario_fingerprint(spec)) << json;
  // And the writer is a fixed point: write(parse(write(x))) == write(x).
  EXPECT_EQ(scenario_to_json(back), json);
}

TEST(SpecScenarioIo, DefaultSpecRoundTrips) { expect_roundtrip(ScenarioSpec{}); }

TEST(SpecScenarioIo, PresetLinksAndSchemesRoundTrip) {
  for (const SchemeId scheme :
       {SchemeId::kSprout, SchemeId::kCubicCodel, SchemeId::kGcc,
        SchemeId::kReno, SchemeId::kSproutAdaptive}) {
    ScenarioSpec spec = single_flow_scenario(
        scheme, find_link_preset("T-Mobile 3G (UMTS)", LinkDirection::kUplink));
    spec.run_time = sec(77);
    spec.warmup = sec(11);
    spec.seed = 1234567;
    expect_roundtrip(spec);
  }
}

TEST(SpecScenarioIo, HeterogeneousTopologyRoundTrips) {
  SproutParams cautious;
  cautious.confidence_percent = 75.0;
  cautious.forecast_horizon_ticks = 12;
  ScenarioSpec spec = heterogeneous_scenario(
      {FlowSpec::of(SchemeId::kSprout).with_params(cautious),
       FlowSpec::of(SchemeId::kCubic).active(sec(5), sec(40)),
       FlowSpec::of(SchemeId::kVegas).active(sec(1))},
      find_link_preset("Verizon LTE", LinkDirection::kDownlink));
  spec.run_time = sec(60);
  spec.warmup = sec(4);
  expect_roundtrip(spec);

  ScenarioSpec homogeneous = shared_queue_scenario(
      SchemeId::kLedbat, 4,
      find_link_preset("AT&T LTE", LinkDirection::kDownlink));
  expect_roundtrip(homogeneous);
}

TEST(SpecScenarioIo, TunnelSyntheticAqmLossAndSeriesRoundTrip) {
  ScenarioSpec tunnel = tunnel_scenario("Verizon LTE", true);
  tunnel.link_aqm = LinkAqm::kCoDel;
  expect_roundtrip(tunnel);

  CellProcessParams fast;
  fast.mean_rate_pps = 900.0;
  fast.outage_hazard_per_s = 0.0;
  CellProcessParams slow;
  slow.mean_rate_pps = 120.0;
  slow.step = msec(10);
  ScenarioSpec synthetic;
  synthetic.link = LinkSpec::synthetic(fast, slow, 11, 22);
  synthetic.loss_rate_fwd = 0.05;
  synthetic.loss_rate_rev = 0.01;  // asymmetric split must survive
  synthetic.record_timeline = true;
  synthetic.timeline_bin = msec(250);
  synthetic.seed = (1ull << 60) + 3;  // exceeds 2^53: travels as a string
  expect_roundtrip(synthetic);

  ScenarioSpec files;
  files.link = LinkSpec::trace_files("fwd.trace", "rev.trace");
  files.set_loss_rate(0.02);
  expect_roundtrip(files);
}

TEST(SpecScenarioIo, SynthLinksRoundTrip) {
  BrownianModelParams brownian;
  brownian.init_rate_pps = 300.0;
  brownian.sigma_pps_per_sqrt_s = 150.0;
  MarkovModelParams markov;
  markov.states = {{120.0, 2.0}, {600.0, 5.0}};
  ScenarioSpec spec;
  spec.scheme = SchemeId::kCubic;
  spec.link = LinkSpec::synth(
      SynthSpec::brownian_model(brownian, 7)
          .with_op(SynthOp::sawtooth(4.0, 0.6, 1.0))
          .with_op(SynthOp::splice({{0.0, 2.5}, {5.0, 7.5}})),
      SynthSpec::markov_model(markov, 8).with_op(SynthOp::jitter(0.004)));
  expect_roundtrip(spec);

  // Every base family serializes, including preset/cox/trace-file bases
  // under an op chain.
  ScenarioSpec preset;
  preset.link = LinkSpec::synth(
      SynthSpec::preset_base("AT&T LTE", LinkDirection::kUplink)
          .with_op(SynthOp::scale(0.5)),
      SynthSpec::cox_model({}, 4).with_op(SynthOp::outage(8.0, 1.0)));
  expect_roundtrip(preset);

  ScenarioSpec file;
  file.link = LinkSpec::synth(SynthSpec::trace_file("captures/fwd.tr"),
                              SynthSpec{}.with_seed(2));
  expect_roundtrip(file);
}

TEST(SpecScenarioIo, SynthReaderRejectsMistakesWithPaths) {
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"link": {"source": "synth",
                         "forward": {"base": "gaussian"}}})");
      },
      "link.forward.base: unknown synth base \"gaussian\"");
  // A model object that contradicts the base tag is dead weight — typo'd
  // or leftover — and is rejected like any stray key.
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"link": {"source": "synth",
                         "forward": {"base": "brownian",
                                     "markov": {"states": []}}}})");
      },
      "link.forward.markov: unknown field");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"link": {"source": "synth",
                         "forward": {"base": "trace-file"}}})");
      },
      "link.forward: missing required field \"path\"");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"link": {"source": "synth",
                         "forward": {"ops": [{"op": "smooth"}]}}})");
      },
      "link.forward.ops[0].op: unknown synth op \"smooth\"");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"link": {"source": "synth",
                         "forward": {"ops": [{"op": "sawtooth",
                                              "period_s": 2,
                                              "ramp_s": 5}]}}})");
      },
      "link.forward.ops[0].ramp_s: ramp_s must be <= period_s");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"link": {"source": "synth",
                         "forward": {"base": "preset",
                                     "network": "Nope LTE"}}})");
      },
      "link.forward.network: unknown network \"Nope LTE\"");
}

TEST(SpecScenarioIo, PropagationSplitRoundTripsAndKeepsLegacyFingerprints) {
  // Asymmetric: both spellings written, split survives the round trip.
  ScenarioSpec split;
  split.propagation_delay_fwd = msec(30);
  split.propagation_delay_rev = msec(80);
  expect_roundtrip(split);
  const std::string json = scenario_to_json(split);
  EXPECT_NE(json.find("propagation_delay_fwd_s"), std::string::npos);
  EXPECT_NE(json.find("propagation_delay_rev_s"), std::string::npos);

  // Symmetric non-default: the legacy spelling, reading back into both.
  ScenarioSpec sym;
  sym.set_propagation_delay(msec(50));
  expect_roundtrip(sym);
  const std::string sym_json = scenario_to_json(sym);
  EXPECT_NE(sym_json.find("\"propagation_delay_s\""), std::string::npos);
  EXPECT_EQ(sym_json.find("propagation_delay_fwd_s"), std::string::npos);
  const ScenarioSpec back = parse_scenario_json(sym_json);
  EXPECT_EQ(back.propagation_delay_fwd, msec(50));
  EXPECT_EQ(back.propagation_delay_rev, msec(50));

  // A symmetric split fingerprints exactly like the legacy single field
  // did (the split is only hashed when asymmetric), and asymmetry changes
  // the fingerprint.
  ScenarioSpec asym = sym;
  asym.propagation_delay_rev = msec(60);
  EXPECT_NE(scenario_fingerprint(sym), scenario_fingerprint(asym));

  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"propagation_delay_s": 0.02,
                "propagation_delay_rev_s": 0.05})");
      },
      "propagation_delay_s: conflicts with propagation_delay_fwd_s/"
      "propagation_delay_rev_s");
}

TEST(SpecScenarioIo, InMemoryTracesDoNotSerialize) {
  ScenarioSpec spec;
  spec.link = LinkSpec::traces(Trace{}, Trace{});
  expect_spec_error([&] { (void)scenario_to_json(spec); },
                    "in-memory traces cannot be serialized");
}

TEST(SpecScenarioIo, ReaderDefaultsMatchScenarioSpecDefaults) {
  const ScenarioSpec parsed = parse_scenario_json("{}");
  EXPECT_EQ(scenario_fingerprint(parsed), scenario_fingerprint(ScenarioSpec{}));
  // A lone flow list adopts its lead flow's scheme, exactly as
  // heterogeneous_scenario() does.
  const ScenarioSpec hetero = parse_scenario_json(
      R"({"topology": {"kind": "shared-queue",
                       "flows": [{"scheme": "Cubic"}, {"scheme": "Vegas"}]}})");
  EXPECT_EQ(hetero.scheme, SchemeId::kCubic);
}

TEST(SpecScenarioIo, UnknownSchemeNamesThePath) {
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "shared-queue",
                             "flows": [{"scheme": "Sprout"},
                                       {"scheme": "Cubicc"}]}})");
      },
      "topology.flows[1].scheme: unknown scheme \"Cubicc\"");
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"scheme": "TCP"})"); },
      "scheme: unknown scheme \"TCP\"");
}

TEST(SpecScenarioIo, RateGridTooCoarseForTheWalkNamesThePath) {
  // At the default sigma and tick, 256 bins up to 1.5e5 pps leave the
  // outage escape row no mass: the kernel could not be built, so the
  // reader fails where a typo'd network name does, not the run.
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "shared-queue",
                             "flows": [{"scheme": "Cubic"},
                                       {"scheme": "Sprout",
                                        "sprout_params":
                                            {"max_rate_pps": 150000}}]}})");
      },
      "topology.flows[1].sprout_params: rate grid too coarse for the rate "
      "walk");
  const ScenarioSpec fine = parse_scenario_json(
      R"({"topology": {"kind": "shared-queue",
                       "flows": [{"scheme": "Sprout",
                                  "sprout_params": {"max_rate_pps": 100000}}]}})");
  ASSERT_TRUE(fine.topology.flows[0].sprout_params.has_value());
  EXPECT_EQ(fine.topology.flows[0].sprout_params->max_rate_pps, 100000.0);
}

TEST(SpecScenarioIo, FlowWindowErrorsNameThePath) {
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"run_time_s": 300,
                "topology": {"kind": "shared-queue",
                             "flows": [{"scheme": "Sprout"},
                                       {"scheme": "Cubic"},
                                       {"scheme": "Vegas",
                                        "start_s": 60, "stop_s": 10}]}})");
      },
      "topology.flows[2].stop_s: must be > start_s");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"run_time_s": 100, "warmup_s": 50,
                "topology": {"kind": "shared-queue",
                             "flows": [{"scheme": "Sprout"},
                                       {"scheme": "Cubic", "stop_s": 20}]}})");
      },
      "topology.flows[1]: flow activity window ends inside warmup");
}

TEST(SpecScenarioIo, NegativeAndNonFiniteDurationsAreRejected) {
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"run_time_s": -5})"); },
      "run_time_s: must be > 0, got -5");
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"run_time_s": 0})"); },
      "run_time_s: must be > 0");
  // JSON has no NaN literal; an overflowing literal is the closest attack.
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"run_time_s": 1e999})"); },
      "run_time_s: must be finite");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "shared-queue",
                             "flows": [{"scheme": "Sprout",
                                        "start_s": -1}]}})");
      },
      "topology.flows[0].start_s: must be >= 0");
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"run_time_s": 10, "warmup_s": 10})"); },
      "warmup_s: warmup_s must be < run_time_s");
}

TEST(SpecScenarioIo, StructuralMistakesAreRejected) {
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"run_tim_s": 10})"); },
      "run_tim_s: unknown field");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"loss_rate": 0.1, "loss_rate_rev": 0.2})");
      },
      "loss_rate: conflicts with loss_rate_fwd/loss_rate_rev");
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"loss_rate": 1.5})"); },
      "loss_rate: must be in [0, 1]");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "single-flow", "num_flows": 3}})");
      },
      "topology.num_flows: unknown field");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "shared-queue", "num_flows": 3,
                             "flows": [{"scheme": "Sprout"}]}})");
      },
      "topology.num_flows: disagrees with the flows list");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"link": {"source": "preset", "network": "Verizon 5G"}})");
      },
      "link.network: unknown network \"Verizon 5G\"");
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"link_aqm": "RED"})"); },
      "link_aqm: unknown link AQM \"RED\"");
  // Keys of deleted options fail like any other misspelling.
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"capture_series": true})"); },
      "capture_series: unknown field");
  expect_spec_error(
      [] { (void)parse_scenario_json(R"({"series_bin_s": 0.25})"); },
      "series_bin_s: unknown field");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "shared-queue", "flows": [
                  {"scheme": "Sprout",
                   "sprout_params": {"dense_inference": true}}]}})");
      },
      "topology.flows[0].sprout_params.dense_inference: unknown field");
}

TEST(SpecScenarioIo, TowerTopologyRoundTrips) {
  // The all-defaults tower: only the kind is written.
  ScenarioSpec plain;
  plain.topology = TopologySpec::tower(TowerSpec{});
  expect_roundtrip(plain);
  EXPECT_EQ(scenario_to_json(plain).find("\"mix\""), std::string::npos);

  // Every tower knob off-default, including a weighted mix and a custom
  // markov channel.
  TowerSpec t;
  t.num_users = 200;
  t.arrival_rate_per_s = 1.5;
  t.mean_session_s = 45.0;
  t.slot = msec(4);
  t.pf_window = sec(2);
  MarkovModelParams markov;
  markov.states = {{120.0, 2.0}, {600.0, 5.0}};
  t.channel = SynthSpec::markov_model(markov, 17);
  t.mix = {{SchemeId::kSprout, 1.0}, {SchemeId::kCubic, 3.0}};
  ScenarioSpec spec;
  spec.topology = TopologySpec::tower(std::move(t));
  spec.run_time = sec(120);
  spec.warmup = sec(10);
  spec.seed = 77;
  expect_roundtrip(spec);
}

TEST(SpecScenarioIo, TowerRejectsSchemeLinkAndSeriesKeys) {
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"scheme": "Cubic", "topology": {"kind": "tower"}})");
      },
      "scheme: tower topologies draw schemes from topology.tower.mix");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"link": {"source": "preset", "network": "Verizon LTE"},
                "topology": {"kind": "tower"}})");
      },
      "link: tower topologies draw channels from topology.tower.channel");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"capture_series": true, "topology": {"kind": "tower"}})");
      },
      "capture_series: unknown field");
}

TEST(SpecScenarioIo, TowerReaderValidatesWithPaths) {
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "tower", "tower": {"num_users": 0}}})");
      },
      "topology.tower.num_users: must be >= 1");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "tower",
                             "tower": {"mix": [{"scheme": "Cubic",
                                                "weight": -1}]}}})");
      },
      "topology.tower.mix[0].weight: must be > 0");
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "tower", "tower": {"mix": []}}})");
      },
      "topology.tower.mix: needs at least one mix entry");
  // Cross-field validation surfaces through the builder with the spec path.
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "tower",
                             "tower": {"slot_s": 0.01,
                                       "pf_window_s": 0.005}}})");
      },
      "topology:");
  // The stray-key sweep applies inside the tower object too.
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "tower", "tower": {"users": 5}}})");
      },
      "topology.tower.users: unknown field");
  // Every tower shares one delay-histogram geometry; there is no key for it.
  expect_spec_error(
      [] {
        (void)parse_scenario_json(
            R"({"topology": {"kind": "tower",
                             "tower": {"hist_bin_s": 0.002}}})");
      },
      "topology.tower.hist_bin_s: unknown field");
}

}  // namespace
}  // namespace sprout::spec
