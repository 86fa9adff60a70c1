#include "metrics/flow_metrics.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace sprout {
namespace {

DeliveryRecord rec(std::int64_t sent_ms, std::int64_t recv_ms, ByteCount size) {
  return DeliveryRecord{TimePoint{} + msec(sent_ms), TimePoint{} + msec(recv_ms),
                        size};
}

TEST(FlowMetrics, ThroughputCountsOnlyWindow) {
  FlowMetrics m;
  m.record(rec(0, 500, 1000));
  m.record(rec(0, 1500, 1000));
  m.record(rec(0, 2500, 1000));  // outside window
  // Window [0s, 2s): 2000 bytes over 2 s = 8 kbps.
  EXPECT_NEAR(m.throughput_kbps(TimePoint{}, TimePoint{} + sec(2)), 8.0, 1e-9);
}

TEST(FlowMetrics, DelaySignalSinglePacket) {
  FlowMetrics m;
  m.record(rec(100, 150, 1000));  // 50 ms delay at arrival
  // Over [150ms, 1150ms) the signal ramps 50 -> 1050 ms.  95th percentile
  // of a uniform ramp: 50 + 0.95 * 1000.
  const double d = m.delay_percentile_ms(95.0, TimePoint{} + msec(150),
                                         TimePoint{} + msec(1150));
  EXPECT_NEAR(d, 1000.0, 1.0);
}

TEST(FlowMetrics, DelaySignalStaysLowWithFrequentArrivals) {
  FlowMetrics m;
  // A packet every 10 ms with constant 30 ms delay.
  for (int i = 0; i < 200; ++i) {
    m.record(rec(i * 10, i * 10 + 30, 1500));
  }
  const double d95 = m.delay_percentile_ms(95.0, TimePoint{} + msec(100),
                                           TimePoint{} + msec(1900));
  // Signal oscillates between 30 and 40 ms.
  EXPECT_GE(d95, 30.0);
  EXPECT_LE(d95, 41.0);
  const double mean = m.mean_delay_ms(TimePoint{} + msec(100),
                                      TimePoint{} + msec(1900));
  EXPECT_NEAR(mean, 35.0, 1.5);
}

TEST(FlowMetrics, ReorderedOldPacketCannotLowerSignal) {
  FlowMetrics m;
  m.record(rec(100, 150, 1000));
  // Packet SENT earlier arriving later must not reset the clock backwards
  // (footnote 7: "most recently-sent packet to have arrived").
  m.record(rec(50, 160, 1000));
  const double d = m.delay_percentile_ms(0.0, TimePoint{} + msec(150),
                                         TimePoint{} + msec(200));
  EXPECT_NEAR(d, 50.0, 1.0);  // still anchored to the 100ms-sent packet
}

TEST(FlowMetrics, OutageCreatesLinearRamp) {
  FlowMetrics m;
  m.record(rec(0, 40, 1000));
  m.record(rec(5000, 5040, 1000));  // five-second gap
  // At the end of the gap the signal reached ~5040 ms.
  const double d100 = m.delay_percentile_ms(100.0, TimePoint{} + msec(40),
                                            TimePoint{} + msec(5040));
  EXPECT_NEAR(d100, 5040.0, 5.0);
}

TEST(FlowMetrics, NoArrivalsMeansWindowSizedDelay) {
  FlowMetrics m;
  const double d = m.delay_percentile_ms(95.0, TimePoint{}, TimePoint{} + sec(10));
  EXPECT_GE(d, 9999.0);
}

TEST(FlowMetrics, PacketDelayPercentile) {
  FlowMetrics m;
  for (int i = 1; i <= 100; ++i) {
    m.record(rec(i * 10, i * 10 + i, 100));  // delays 1..100 ms
  }
  const double p50 = m.packet_delay_percentile_ms(
      50.0, TimePoint{}, TimePoint{} + sec(10));
  EXPECT_NEAR(p50, 50.0, 1.5);
}

TEST(OmniscientBaseline, ConstantRateLinkHasPropagationDelay) {
  // Opportunities every 10 ms: the omniscient signal oscillates between
  // 20 and 30 ms; its 95th percentile ~29.5 ms.
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 1000; ++i) opp.push_back(TimePoint{} + msec(i * 10));
  const Trace t{std::move(opp), sec(11)};
  const double d = omniscient_delay_percentile_ms(
      t, 95.0, TimePoint{} + sec(1), TimePoint{} + sec(9), msec(20));
  EXPECT_GT(d, 25.0);
  EXPECT_LT(d, 31.0);
}

TEST(OmniscientBaseline, OutageRaisesEvenOmniscientDelay) {
  // A 5-second hole in the middle of an otherwise fast link: "no matter how
  // smart the protocol", 95% delay reflects the outage (§5.1).
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 100; ++i) opp.push_back(TimePoint{} + msec(i * 10));
  for (int i = 0; i <= 100; ++i) {
    opp.push_back(TimePoint{} + msec(6000 + i * 10));
  }
  const Trace t{std::move(opp), sec(8)};
  const double d95 = omniscient_delay_percentile_ms(
      t, 95.0, TimePoint{}, TimePoint{} + sec(7), msec(20));
  EXPECT_GT(d95, 1000.0);
}

TEST(LinkCapacity, MatchesTraceBytes) {
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 100; ++i) opp.push_back(TimePoint{} + msec(i * 10));
  const Trace t{std::move(opp), sec(2)};
  // 100 MTU over the first second: 1500*100*8/1000 = 1200 kbps.
  EXPECT_NEAR(link_capacity_kbps(t, TimePoint{}, TimePoint{} + sec(1)),
              1200.0, 20.0);
}

TEST(MeasuredSink, RecordsAndForwards) {
  Simulator sim;
  struct Counter : PacketSink {
    int n = 0;
    void receive(Packet&&) override { ++n; }
  } next;
  MeasuredSink sink(sim, next);
  Packet p;
  p.size = 700;
  p.sent_at = TimePoint{};
  sink.receive(std::move(p));
  EXPECT_EQ(next.n, 1);
  EXPECT_EQ(sink.metrics().records().size(), 1u);
  EXPECT_EQ(sink.metrics().total_bytes(), 700);
}

}  // namespace
}  // namespace sprout
