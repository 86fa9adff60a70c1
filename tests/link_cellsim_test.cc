#include "link/cellsim.h"

#include <gtest/gtest.h>

#include "aqm/codel.h"
#include "sim/relay.h"

namespace sprout {
namespace {

struct Collector : PacketSink {
  std::vector<Packet> packets;
  std::vector<TimePoint> times;
  Simulator* sim = nullptr;
  void receive(Packet&& p) override {
    packets.push_back(std::move(p));
    if (sim != nullptr) times.push_back(sim->now());
  }
};

Trace make_trace(std::initializer_list<std::int64_t> ms, std::int64_t dur_ms) {
  std::vector<TimePoint> opp;
  for (std::int64_t m : ms) opp.push_back(TimePoint{} + msec(m));
  return Trace{std::move(opp), msec(dur_ms)};
}

Packet sized_packet(ByteCount size) {
  Packet p;
  p.size = size;
  return p;
}

TEST(Cellsim, DeliversAtTraceInstantsPlusPropagation) {
  Simulator sim;
  Collector out;
  out.sim = &sim;
  CellsimConfig cfg;
  cfg.propagation_delay = msec(20);
  CellsimLink link(sim, make_trace({100, 200}, 1000), cfg, out);
  link.receive(sized_packet(kMtuBytes));  // arrives at queue at t=20ms
  link.receive(sized_packet(kMtuBytes));
  sim.run_until(TimePoint{} + msec(500));
  ASSERT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.times[0], TimePoint{} + msec(100));
  EXPECT_EQ(out.times[1], TimePoint{} + msec(200));
}

TEST(Cellsim, WastedOpportunityWhenQueueEmpty) {
  Simulator sim;
  Collector out;
  CellsimLink link(sim, make_trace({50, 100, 150}, 1000), {}, out);
  sim.run_until(TimePoint{} + msec(120));
  // Two opportunities passed with nothing to send.
  EXPECT_EQ(link.wasted_opportunities(), 2);
  // A packet sent now rides the 150 ms opportunity (arrives at queue 20+).
  link.receive(sized_packet(kMtuBytes));
  sim.run_until(TimePoint{} + msec(200));
  EXPECT_EQ(out.packets.size(), 1u);
}

TEST(Cellsim, PerByteAccountingReleasesManySmallPackets) {
  // Paper footnote 6: fifteen 100-byte packets ride one 1500-byte
  // opportunity.
  Simulator sim;
  Collector out;
  CellsimLink link(sim, make_trace({100}, 1000), {}, out);
  for (int i = 0; i < 15; ++i) link.receive(sized_packet(100));
  sim.run_until(TimePoint{} + msec(150));
  EXPECT_EQ(out.packets.size(), 15u);
  EXPECT_EQ(link.delivered_bytes(), 1500);
}

TEST(Cellsim, BudgetDoesNotCarryAcrossOpportunities) {
  Simulator sim;
  Collector out;
  CellsimLink link(sim, make_trace({100, 200}, 1000), {}, out);
  // 100-byte packet then an MTU packet: the MTU packet does not fit in the
  // 1400 remaining bytes of the first opportunity and must wait.
  link.receive(sized_packet(100));
  link.receive(sized_packet(kMtuBytes));
  sim.run_until(TimePoint{} + msec(150));
  EXPECT_EQ(out.packets.size(), 1u);
  sim.run_until(TimePoint{} + msec(250));
  EXPECT_EQ(out.packets.size(), 2u);
}

TEST(Cellsim, TraceRepeatsAfterDuration) {
  Simulator sim;
  Collector out;
  out.sim = &sim;
  CellsimLink link(sim, make_trace({100}, 1000), {}, out);
  sim.run_until(TimePoint{} + msec(1050));
  link.receive(sized_packet(kMtuBytes));  // queue at 1070; next opp at 1100
  sim.run_until(TimePoint{} + msec(1200));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.times[0], TimePoint{} + msec(1100));
}

TEST(Cellsim, FifoOrderPreserved) {
  Simulator sim;
  Collector out;
  CellsimLink link(sim, make_trace({50, 60, 70, 80}, 1000), {}, out);
  for (int i = 0; i < 4; ++i) {
    Packet p = sized_packet(kMtuBytes);
    p.seq = i;
    link.receive(std::move(p));
  }
  sim.run_until(TimePoint{} + msec(100));
  ASSERT_EQ(out.packets.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out.packets[static_cast<std::size_t>(i)].seq, i);
}

TEST(Cellsim, BernoulliLossDropsAboutTheRightFraction) {
  Simulator sim;
  Collector out;
  CellsimConfig cfg;
  cfg.loss_rate = 0.3;
  cfg.seed = 99;
  // Plenty of opportunities.
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 2000; ++i) opp.push_back(TimePoint{} + msec(i));
  CellsimLink link(sim, Trace{std::move(opp), sec(3)}, cfg, out);
  for (int i = 0; i < 1000; ++i) link.receive(sized_packet(kMtuBytes));
  sim.run_until(TimePoint{} + sec(3));
  EXPECT_NEAR(static_cast<double>(link.random_drops()), 300.0, 60.0);
  EXPECT_EQ(out.packets.size(), 1000u - static_cast<std::size_t>(link.random_drops()));
}

TEST(Cellsim, ZeroLossDeliversEverything) {
  Simulator sim;
  Collector out;
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 200; ++i) opp.push_back(TimePoint{} + msec(i * 5));
  CellsimLink link(sim, Trace{std::move(opp), sec(2)}, {}, out);
  for (int i = 0; i < 100; ++i) link.receive(sized_packet(kMtuBytes));
  sim.run_until(TimePoint{} + sec(2));
  EXPECT_EQ(out.packets.size(), 100u);
  EXPECT_EQ(link.random_drops(), 0);
  EXPECT_EQ(link.queue_drops(), 0);
  EXPECT_EQ(link.delivered_bytes(), 100 * kMtuBytes);
}

TEST(Cellsim, CodelPolicyDropsUnderStandingQueue) {
  Simulator sim;
  Collector out;
  // Slow link: one opportunity every 50 ms.
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 100; ++i) opp.push_back(TimePoint{} + msec(i * 50));
  CellsimLink link(sim, Trace{std::move(opp), sec(6)}, {}, out,
                   std::make_unique<CodelPolicy>());
  // Offer far more than the link can carry.
  for (int i = 0; i < 200; ++i) link.receive(sized_packet(kMtuBytes));
  sim.run_until(TimePoint{} + sec(6));
  EXPECT_GT(link.queue_drops(), 0);
  EXPECT_GT(out.packets.size(), 0u);
  EXPECT_LT(out.packets.size(), 200u);
}

TEST(Cellsim, ReleasingTheBacklogKeepsTheCounters) {
  Simulator sim;
  Collector out;
  CellsimConfig cfg;
  cfg.loss_rate = 0.2;
  cfg.seed = 3;
  // Slow link under CoDel: a standing queue, policy drops and random drops.
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 100; ++i) opp.push_back(TimePoint{} + msec(i * 50));
  CellsimLink link(sim, Trace{std::move(opp), sec(6)}, cfg, out,
                   std::make_unique<CodelPolicy>());
  for (int i = 0; i < 300; ++i) link.receive(sized_packet(kMtuBytes));
  sim.run_until(TimePoint{} + sec(1));
  ASSERT_GT(link.queue_packets(), 0u);
  ASSERT_GT(link.queue_drops(), 0);
  ASSERT_GT(link.random_drops(), 0);
  ASSERT_GT(link.delivered_packets(), 0);
  const std::int64_t queue_drops = link.queue_drops();
  const std::int64_t random_drops = link.random_drops();
  const std::int64_t delivered = link.delivered_packets();

  link.release_backlog();
  EXPECT_EQ(link.queue_packets(), 0u);
  EXPECT_EQ(link.queue_bytes(), 0);
  EXPECT_EQ(link.queue_drops(), queue_drops);
  EXPECT_EQ(link.random_drops(), random_drops);
  EXPECT_EQ(link.delivered_packets(), delivered);
  EXPECT_EQ(link.trace().size(), 100u);
}

TEST(Cellsim, ConservationNoLossNoAqm) {
  // Property: delivered + still-queued + dropped == offered.
  Simulator sim;
  Collector out;
  std::vector<TimePoint> opp;
  for (int i = 1; i <= 50; ++i) opp.push_back(TimePoint{} + msec(i * 7));
  CellsimLink link(sim, Trace{std::move(opp), msec(400)}, {}, out);
  for (int i = 0; i < 80; ++i) link.receive(sized_packet(kMtuBytes));
  sim.run_until(TimePoint{} + msec(300));
  const auto delivered = static_cast<std::int64_t>(out.packets.size());
  const auto queued = static_cast<std::int64_t>(link.queue_packets());
  EXPECT_EQ(delivered + queued + link.random_drops() + link.queue_drops(), 80);
}

}  // namespace
}  // namespace sprout
