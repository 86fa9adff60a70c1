// Unit and integration tests for the §7 non-saturating on-off application
// (app/onoff_app.h) and the burst drain-lag measurement.
#include <gtest/gtest.h>

#include <functional>

#include "app/onoff_app.h"
#include "core/endpoint.h"
#include "link/cellsim.h"
#include "metrics/flow_metrics.h"
#include "sim/relay.h"
#include "sim/simulator.h"
#include "trace/presets.h"

namespace sprout {
namespace {

TEST(OnOffApp, AlternatesDeterministically) {
  Simulator sim;
  OnOffProfile p;
  p.on_duration = sec(1);
  p.off_duration = sec(1);
  OnOffApp app(sim, p);
  app.start();
  sim.run_until(TimePoint{} + msec(500));
  EXPECT_TRUE(app.on());
  sim.run_until(TimePoint{} + msec(1500));
  EXPECT_FALSE(app.on());
  sim.run_until(TimePoint{} + msec(2500));
  EXPECT_TRUE(app.on());
}

TEST(OnOffApp, OffersExactlyTheConfiguredRate) {
  Simulator sim;
  OnOffProfile p;
  p.on_rate_kbps = 1500.0;
  p.frame_interval = msec(33);
  p.on_duration = sec(2);
  p.off_duration = sec(2);
  OnOffApp app(sim, p);
  app.start();
  sim.run_until(TimePoint{} + sec(2));  // one full talkspurt
  // 2 s at 1.5 Mbit/s = 375000 bytes, quantized to 33 ms frames.
  EXPECT_NEAR(static_cast<double>(app.total_offered()), 375000.0, 10000.0);
}

TEST(OnOffApp, LogsCompletedBursts) {
  Simulator sim;
  OnOffProfile p;
  p.on_duration = sec(1);
  p.off_duration = msec(500);
  OnOffApp app(sim, p);
  app.start();
  sim.run_until(TimePoint{} + sec(10));
  // Period 1.5 s: at t=10 s, six bursts completed (the 7th in flight).
  ASSERT_GE(app.bursts().size(), 6u);
  for (const OnOffApp::Burst& b : app.bursts()) {
    EXPECT_GT(b.bytes, 0);
    EXPECT_GT(b.end, b.start);
  }
}

TEST(OnOffApp, SilenceOffersNothing) {
  Simulator sim;
  OnOffProfile p;
  p.on_duration = sec(1);
  p.off_duration = sec(3);
  OnOffApp app(sim, p);
  app.start();
  sim.run_until(TimePoint{} + msec(1100));
  const ByteCount at_silence_start = app.total_offered();
  sim.run_until(TimePoint{} + msec(3900));
  EXPECT_EQ(app.total_offered(), at_silence_start);
}

TEST(OnOffApp, ShortSilenceDoesNotDoubleTheFrameChain) {
  Simulator sim;
  OnOffProfile p;
  p.on_rate_kbps = 1500.0;
  p.frame_interval = msec(33);
  p.on_duration = msec(200);
  p.off_duration = msec(10);  // shorter than one frame interval
  OnOffApp app(sim, p);
  app.start();
  sim.run_until(TimePoint{} + sec(10));
  // Each 200 ms talkspurt fits exactly 7 frame offers (t = 0, 33, ..., 198)
  // of 33 ms worth of bytes; a revived second frame chain would double it.
  const double frame_bytes = 1500.0 * 1000.0 / 8.0 * 0.033;
  const double bursts_in_run = 10.0 / 0.210;
  const double expected = 7.0 * frame_bytes * bursts_in_run;
  EXPECT_LT(static_cast<double>(app.total_offered()), expected * 1.05);
  EXPECT_GT(static_cast<double>(app.total_offered()), expected * 0.90);
}

TEST(OnOffApp, RandomizedModeIsSeededAndDeterministic) {
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    OnOffProfile p;
    p.randomize = true;
    OnOffApp app(sim, p, seed);
    app.start();
    sim.run_until(TimePoint{} + sec(30));
    return app.total_offered();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(BurstDrainLags, ComputesCrossingTimes) {
  std::vector<OnOffApp::Burst> bursts = {
      {TimePoint{}, TimePoint{} + sec(1), 1000},
      {TimePoint{} + sec(2), TimePoint{} + sec(3), 500},
  };
  std::vector<std::pair<TimePoint, ByteCount>> delivered = {
      {TimePoint{} + msec(500), 400},
      {TimePoint{} + msec(1200), 1000},  // first burst done at 1.2 s
      {TimePoint{} + msec(3300), 1400},
      {TimePoint{} + msec(3400), 1500},  // second done at 3.4 s
  };
  const auto drains = burst_drain_lags(bursts, delivered);
  ASSERT_EQ(drains.size(), 2u);
  EXPECT_EQ(drains[0].completed, TimePoint{} + msec(1200));
  EXPECT_EQ(drains[0].lag, msec(200));
  EXPECT_EQ(drains[1].lag, msec(400));
}

TEST(BurstDrainLags, OmitsUndrainedBursts) {
  std::vector<OnOffApp::Burst> bursts = {
      {TimePoint{}, TimePoint{} + sec(1), 1000},
      {TimePoint{} + sec(2), TimePoint{} + sec(3), 500},
  };
  std::vector<std::pair<TimePoint, ByteCount>> delivered = {
      {TimePoint{} + msec(1200), 1000},
  };
  const auto drains = burst_drain_lags(bursts, delivered);
  ASSERT_EQ(drains.size(), 1u);
}

// Integration: talkspurts over the emulated link drain with bounded lag,
// and an idle Sprout restarts cleanly after long silences (the §7 concern).
TEST(OnOffOverSprout, BurstsDrainAfterLongIdle) {
  Simulator sim;
  const LinkPreset& fwd_p =
      find_link_preset("Verizon LTE", LinkDirection::kDownlink);
  const LinkPreset& rev_p =
      find_link_preset("Verizon LTE", LinkDirection::kUplink);
  Trace fwd_trace = preset_trace(fwd_p, sec(42));
  Trace rev_trace = preset_trace(rev_p, sec(42));
  CellsimConfig cfg;
  cfg.propagation_delay = msec(20);
  cfg.seed = 11;
  RelaySink fwd_egress;
  RelaySink rev_egress;
  CellsimLink fwd(sim, std::move(fwd_trace), cfg, fwd_egress);
  CellsimLink rev(sim, std::move(rev_trace), cfg, rev_egress);

  SproutParams params;
  OnOffProfile profile;
  profile.on_rate_kbps = 800.0;
  profile.on_duration = sec(1);
  profile.off_duration = sec(5);  // long silences
  OnOffApp app(sim, profile, 3);
  SproutEndpoint tx(sim, params, SproutVariant::kBayesian, 1, &app.source(),
                    SproutPeer::kFeedbackOnly);
  SproutEndpoint rx(sim, params, SproutVariant::kBayesian, 1, nullptr,
                    SproutPeer::kSendsData);
  tx.attach_network(fwd);
  rx.attach_network(rev);
  MeasuredSink measured(sim, rx);
  fwd_egress.set_target(measured);
  rev_egress.set_target(tx);
  tx.start();
  rx.start(params.tick * 7 / 20);
  app.start();

  std::vector<std::pair<TimePoint, ByteCount>> delivered;
  std::function<void()> poll = [&] {
    delivered.emplace_back(sim.now(), rx.receiver().payload_bytes_received());
    if (sim.now() < TimePoint{} + sec(40)) sim.after(msec(10), poll);
  };
  sim.after(msec(10), poll);
  sim.run_until(TimePoint{} + sec(40));

  ASSERT_GE(app.bursts().size(), 5u);
  const auto drains = burst_drain_lags(app.bursts(), delivered);
  // Every burst except possibly the last drains, and within a bounded lag
  // (well under the next talkspurt's start).
  ASSERT_GE(drains.size(), app.bursts().size() - 1);
  for (const BurstDrain& d : drains) {
    EXPECT_GE(d.lag, Duration::zero());
    EXPECT_LT(d.lag, sec(4)) << "burst at "
                             << to_seconds(d.burst.start.time_since_epoch());
  }
}

}  // namespace
}  // namespace sprout
