// End-to-end Sprout session over ideal and impaired links.
#include "core/endpoint.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/source.h"
#include "link/cellsim.h"
#include "metrics/flow_metrics.h"
#include "sim/relay.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace sprout {
namespace {

CellProcessParams steady(double pps) {
  CellProcessParams p;
  p.mean_rate_pps = pps;
  p.max_rate_pps = std::max(pps * 2.0, 100.0);
  p.volatility_pps = 0.0;
  p.outage_hazard_per_s = 0.0;
  return p;
}

struct Session {
  Simulator sim;
  RelaySink fwd_egress, rev_egress;
  CellsimLink fwd_link, rev_link;
  BulkDataSource bulk;
  SproutEndpoint tx, rx;
  MeasuredSink measured;

  Session(double fwd_pps, SproutVariant variant, Duration run,
          const SproutParams& params = {})
      : fwd_link(sim, generate_trace(steady(fwd_pps), run + sec(1), 31), {},
                 fwd_egress),
        rev_link(sim, generate_trace(steady(fwd_pps), run + sec(1), 32), {},
                 rev_egress),
        tx(sim, params, variant, 1, &bulk, SproutPeer::kFeedbackOnly),
        rx(sim, params, variant, 1, nullptr, SproutPeer::kSendsData),
        measured(sim, rx) {
    tx.attach_network(fwd_link);
    rx.attach_network(rev_link);
    fwd_egress.set_target(measured);
    rev_egress.set_target(tx);
    tx.start();
    rx.start(msec(7));
    sim.run_until(TimePoint{} + run);
  }
};

TEST(SproutEndpoint, AchievesGoodUtilizationOnSteadyLink) {
  Session s(500.0, SproutVariant::kBayesian, sec(30));
  const double thr = s.measured.metrics().throughput_kbps(
      TimePoint{} + sec(5), TimePoint{} + sec(30));
  EXPECT_GT(thr, 0.45 * 6000.0);  // at least 45% of a 6 Mbps link
  EXPECT_EQ(s.tx.malformed_packets(), 0);
  EXPECT_EQ(s.rx.malformed_packets(), 0);
}

TEST(SproutEndpoint, KeepsDelayNearTolerance) {
  Session s(500.0, SproutVariant::kBayesian, sec(30));
  const double d95 = s.measured.metrics().delay_percentile_ms(
      95.0, TimePoint{} + sec(5), TimePoint{} + sec(30));
  // Tolerance is 100 ms of queueing + 20 ms propagation + slack.
  EXPECT_LT(d95, 250.0);
  EXPECT_GE(d95, 20.0);  // can't beat propagation
}

TEST(SproutEndpoint, EwmaVariantGetsMoreThroughput) {
  Session cautious(500.0, SproutVariant::kBayesian, sec(30));
  Session ewma(500.0, SproutVariant::kEwma, sec(30));
  const TimePoint from = TimePoint{} + sec(5);
  const TimePoint to = TimePoint{} + sec(30);
  EXPECT_GE(ewma.measured.metrics().throughput_kbps(from, to),
            cautious.measured.metrics().throughput_kbps(from, to));
}

TEST(SproutEndpoint, WorksOnSlowLink) {
  Session s(40.0, SproutVariant::kBayesian, sec(30));  // 480 kbps 3G-ish
  const double thr = s.measured.metrics().throughput_kbps(
      TimePoint{} + sec(5), TimePoint{} + sec(30));
  EXPECT_GT(thr, 100.0);
  const double d95 = s.measured.metrics().delay_percentile_ms(
      95.0, TimePoint{} + sec(5), TimePoint{} + sec(30));
  EXPECT_LT(d95, 800.0);
}

TEST(SproutEndpoint, SurvivesMidRunOutage) {
  // Build a trace with a 3-second hole; Sprout must stop sending (bounded
  // queue) and recover afterwards.
  Simulator sim;
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 5000; ++i) {
    const TimePoint t = TimePoint{} + msec(i * 2);  // 500 pps
    const bool in_hole = t >= TimePoint{} + sec(4) && t < TimePoint{} + sec(7);
    if (!in_hole) opp.push_back(t);
  }
  RelaySink fwd_egress, rev_egress;
  CellsimLink fwd_link(sim, Trace{std::move(opp), sec(10) + sec(1)}, {},
                       fwd_egress);
  CellsimLink rev_link(sim, generate_trace(steady(500.0), sec(11), 33), {},
                       rev_egress);
  SproutParams params;
  BulkDataSource bulk;
  SproutEndpoint tx(sim, params, SproutVariant::kBayesian, 1, &bulk,
                    SproutPeer::kFeedbackOnly);
  SproutEndpoint rx(sim, params, SproutVariant::kBayesian, 1, nullptr,
                    SproutPeer::kSendsData);
  tx.attach_network(fwd_link);
  rx.attach_network(rev_link);
  MeasuredSink measured(sim, rx);
  fwd_egress.set_target(measured);
  rev_egress.set_target(tx);
  tx.start();
  rx.start(msec(7));
  sim.run_until(TimePoint{} + sec(10));

  // During the outage the sender must have stopped: the standing queue at
  // the link is bounded (not thousands of packets).
  EXPECT_LT(fwd_link.queue_packets(), 400u);
  // And throughput after the outage recovered.
  const double post = measured.metrics().throughput_kbps(
      TimePoint{} + msec(7500), TimePoint{} + sec(10));
  EXPECT_GT(post, 1000.0);
}

TEST(SproutEndpoint, FeedbackOnlyPeerSendsHeartbeats) {
  Session s(500.0, SproutVariant::kBayesian, sec(5));
  // The receiving endpoint has no data source, yet its feedback stream
  // must flow (tx needs forecasts): tx has a forecast.  tx's own peer
  // sends no data, so tx runs no receiver.
  EXPECT_TRUE(s.tx.sender().has_forecast());
  EXPECT_GT(s.rx.receiver().received_or_lost_bytes(), 0);
  EXPECT_THROW((void)s.tx.receiver(), std::bad_optional_access);
}

TEST(SproutEndpoint, LossDoesNotCollapseSession) {
  Simulator sim;
  RelaySink fwd_egress, rev_egress;
  CellsimConfig lossy;
  lossy.loss_rate = 0.05;
  lossy.seed = 77;
  CellsimLink fwd_link(sim, generate_trace(steady(500.0), sec(31), 41), lossy,
                       fwd_egress);
  CellsimLink rev_link(sim, generate_trace(steady(500.0), sec(31), 42), lossy,
                       rev_egress);
  SproutParams params;
  BulkDataSource bulk;
  SproutEndpoint tx(sim, params, SproutVariant::kBayesian, 1, &bulk,
                    SproutPeer::kFeedbackOnly);
  SproutEndpoint rx(sim, params, SproutVariant::kBayesian, 1, nullptr,
                    SproutPeer::kSendsData);
  tx.attach_network(fwd_link);
  rx.attach_network(rev_link);
  MeasuredSink measured(sim, rx);
  fwd_egress.set_target(measured);
  rev_egress.set_target(tx);
  tx.start();
  rx.start(msec(7));
  sim.run_until(TimePoint{} + sec(30));
  const double thr = measured.metrics().throughput_kbps(TimePoint{} + sec(5),
                                                        TimePoint{} + sec(30));
  // §5.6: throughput diminishes under loss but stays useful.
  EXPECT_GT(thr, 1000.0);
}

// Oracle for the feedback endpoint's missing receiver.  A one-way session
// runs twice: once with tx built as the tunnel builds its endpoints (tx's
// receiver infers the feedback link) and once as SproutFlow builds it (no
// receiver).  rx pulls no data, so it sends one heartbeat per tick whatever
// tx's forecast says, and the forecast only changes flags and throwaway
// numbers that nothing but tx's own receiver reads.  Everything the data
// direction does must therefore repeat exactly.
struct OneWayTrace {
  // Forward deliveries: (sent_at, received_at, size, seq).
  std::vector<std::tuple<TimePoint, TimePoint, ByteCount, std::int64_t>>
      deliveries;
  // rx's forecast and tx's sender state, read once per tick.
  std::vector<std::vector<ByteCount>> rx_forecasts;
  std::vector<TimePoint> rx_forecast_origins;
  std::vector<std::pair<ByteCount, ByteCount>> tx_sender;  // sent, queue est.
  // Both links' delivered packets, random drops and queue drops.
  std::vector<std::int64_t> link_counters;
};

struct DeliveryTap : PacketSink {
  Simulator& sim;
  PacketSink& next;
  OneWayTrace& out;
  DeliveryTap(Simulator& s, PacketSink& n, OneWayTrace& o)
      : sim(s), next(n), out(o) {}
  void receive(Packet&& p) override {
    out.deliveries.emplace_back(p.sent_at, sim.now(), p.size, p.seq);
    next.receive(std::move(p));
  }
};

// 500 pps each way for `run`; with `outage` the forward link delivers
// nothing over [4 s, 7 s).
Trace oracle_trace(Duration run, bool outage, std::uint64_t seed) {
  Trace t = generate_trace(steady(500.0), run + sec(1), seed);
  if (!outage) return t;
  std::vector<TimePoint> opp;
  for (const TimePoint at : t.opportunities()) {
    if (at < TimePoint{} + sec(4) || at >= TimePoint{} + sec(7)) {
      opp.push_back(at);
    }
  }
  return Trace{std::move(opp), run + sec(1)};
}

OneWayTrace run_one_way(SproutVariant variant, bool outage, double loss,
                        SproutPeer tx_peer) {
  const Duration run = sec(12);
  Simulator sim;
  OneWayTrace out;
  RelaySink fwd_egress, rev_egress;
  CellsimConfig cfg;
  cfg.loss_rate = loss;
  cfg.seed = 77;
  CellsimLink fwd_link(sim, oracle_trace(run, outage, 51), cfg, fwd_egress);
  cfg.seed = 78;
  CellsimLink rev_link(sim, oracle_trace(run, false, 52), cfg, rev_egress);
  SproutParams params;
  BulkDataSource bulk;
  SproutEndpoint tx(sim, params, variant, 1, &bulk, tx_peer);
  SproutEndpoint rx(sim, params, variant, 1, nullptr, SproutPeer::kSendsData);
  tx.attach_network(fwd_link);
  rx.attach_network(rev_link);
  DeliveryTap tap(sim, rx, out);
  fwd_egress.set_target(tap);
  rev_egress.set_target(tx);
  tx.start();
  rx.start(msec(7));
  // Read every tick, between rx's tick (phase 7 ms) and tx's (phase 0).
  std::function<void()> poll = [&] {
    const DeliveryForecast& f = rx.receiver().latest_forecast();
    out.rx_forecasts.push_back(f.cumulative_bytes);
    out.rx_forecast_origins.push_back(f.origin);
    out.tx_sender.emplace_back(tx.sender().bytes_sent(),
                               tx.sender().queue_estimate());
    sim.after(params.tick, poll);
  };
  sim.after(msec(13), poll);
  sim.run_until(TimePoint{} + run);
  for (const CellsimLink* link : {&fwd_link, &rev_link}) {
    out.link_counters.push_back(link->delivered_packets());
    out.link_counters.push_back(link->random_drops());
    out.link_counters.push_back(link->queue_drops());
  }
  return out;
}

TEST(SproutEndpoint, FeedbackEndpointWithoutReceiverMatchesInferringOracle) {
  for (const SproutVariant variant :
       {SproutVariant::kBayesian, SproutVariant::kEwma,
        SproutVariant::kAdaptive, SproutVariant::kMmpp,
        SproutVariant::kEmpirical}) {
    for (const bool outage : {false, true}) {
      for (const double loss : {0.0, 0.05}) {
        const OneWayTrace oracle =
            run_one_way(variant, outage, loss, SproutPeer::kSendsData);
        const OneWayTrace run =
            run_one_way(variant, outage, loss, SproutPeer::kFeedbackOnly);
        const std::string where =
            "variant " + std::to_string(static_cast<int>(variant)) +
            (outage ? ", outage" : ", steady") + ", loss " +
            std::to_string(loss);
        // A session that carried nothing would match trivially (the
        // fewest here, Sprout-Adaptive through the outage at 5% loss,
        // deliver about 1,050 packets).
        ASSERT_GT(oracle.deliveries.size(), 1000u) << where;
        EXPECT_TRUE(run.deliveries == oracle.deliveries) << where;
        EXPECT_TRUE(run.rx_forecasts == oracle.rx_forecasts) << where;
        EXPECT_TRUE(run.rx_forecast_origins == oracle.rx_forecast_origins)
            << where;
        EXPECT_TRUE(run.tx_sender == oracle.tx_sender) << where;
        EXPECT_EQ(run.link_counters, oracle.link_counters) << where;
      }
    }
  }
}

}  // namespace
}  // namespace sprout
