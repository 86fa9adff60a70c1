#include "tunnel/tunnel.h"

#include <gtest/gtest.h>

#include <limits>

#include "link/cellsim.h"
#include "metrics/flow_metrics.h"
#include "sim/relay.h"
#include "trace/synthetic.h"

namespace sprout {
namespace {

Packet client_packet(std::int64_t flow, ByteCount size, std::int64_t seq = 0) {
  Packet p;
  p.flow_id = flow;
  p.size = size;
  p.seq = seq;
  return p;
}

TEST(TunnelMux, RoundRobinAcrossFlows) {
  TunnelDataSource mux(TunnelConfig{});
  // Two flows, three packets each.
  for (int i = 0; i < 3; ++i) {
    mux.offer(client_packet(1, 1000, i));
    mux.offer(client_packet(2, 1000, i));
  }
  // Pull one packet at a time: flows must alternate.
  std::vector<std::int64_t> order;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(mux.pull(1000), 1000);
    Packet wire;
    mux.fill(wire, 1000);
    ASSERT_EQ(wire.extras->tunneled.size(), 1u);
    order.push_back(wire.extras->tunneled[0].flow_id);
  }
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 2, 1, 2, 1, 2}));
  EXPECT_FALSE(mux.has_data());
}

TEST(TunnelMux, PacksWholePacketsUpToBudget) {
  TunnelDataSource mux(TunnelConfig{});
  mux.offer(client_packet(1, 600));
  mux.offer(client_packet(1, 600));
  mux.offer(client_packet(1, 600));
  // 1400-byte budget fits two 600-byte packets, not three.
  EXPECT_EQ(mux.pull(1400), 1200);
  Packet wire;
  mux.fill(wire, 1200);
  EXPECT_EQ(wire.extras->tunneled.size(), 2u);
  EXPECT_EQ(mux.queued_bytes(), 600);
}

TEST(TunnelMux, HeadDropFromLongestQueueWhenOverBound) {
  TunnelConfig config;
  config.min_buffer_bytes = 5000;
  TunnelDataSource mux(config);
  // Flow 1 queues 4000 bytes, flow 2 queues 1000: next arrival overflows
  // and must come from flow 1's HEAD.
  for (int i = 0; i < 4; ++i) mux.offer(client_packet(1, 1000, i));
  mux.offer(client_packet(2, 1000, 100));
  EXPECT_EQ(mux.dropped_packets(), 0);
  mux.offer(client_packet(1, 1000, 4));
  EXPECT_GE(mux.dropped_packets(), 1);
  EXPECT_LE(mux.queued_bytes(), 5000);
  // The head (seq 0) of flow 1 was the victim: pulling flow 1 starts at 1.
  ASSERT_GT(mux.pull(1000), 0);
  Packet wire;
  mux.fill(wire, 1000);
  ASSERT_EQ(wire.extras->tunneled.size(), 1u);
  EXPECT_EQ(wire.extras->tunneled[0].seq, 1);
}

TEST(TunnelMux, BoundProviderOverridesFloor) {
  TunnelConfig config;
  config.min_buffer_bytes = 2000;
  TunnelDataSource mux(config);
  mux.set_bound_provider([] { return ByteCount{10000}; });
  for (int i = 0; i < 9; ++i) mux.offer(client_packet(1, 1000, i));
  EXPECT_EQ(mux.dropped_packets(), 0);  // forecast-driven bound is roomier
}

// Full tunnel across an emulated link.
struct TunnelFixture {
  Simulator sim;
  RelaySink down_egress, up_egress;
  CellsimLink down_link, up_link;
  TunnelEndpoint server, mobile;

  explicit TunnelFixture(double pps)
      : down_link(sim,
                  generate_trace(
                      [&] {
                        CellProcessParams p;
                        p.mean_rate_pps = pps;
                        p.max_rate_pps = pps * 2;
                        p.volatility_pps = 0.0;
                        p.outage_hazard_per_s = 0.0;
                        return p;
                      }(),
                      sec(31), 81),
                  {}, down_egress),
        up_link(sim,
                generate_trace(
                    [&] {
                      CellProcessParams p;
                      p.mean_rate_pps = pps;
                      p.max_rate_pps = pps * 2;
                      p.volatility_pps = 0.0;
                      p.outage_hazard_per_s = 0.0;
                      return p;
                    }(),
                    sec(31), 82),
                {}, up_egress),
        server(sim, SproutParams{}, SproutVariant::kBayesian, 100),
        mobile(sim, SproutParams{}, SproutVariant::kBayesian, 100) {
    server.attach_network(down_link);
    mobile.attach_network(up_link);
    down_egress.set_target(mobile.network_sink());
    up_egress.set_target(server.network_sink());
    server.start();
    mobile.start();
  }
};

TEST(TunnelEndpointTest, DeliversClientPacketsEndToEnd) {
  TunnelFixture f(500.0);
  struct Collector : PacketSink {
    std::vector<Packet> got;
    void receive(Packet&& p) override { got.push_back(std::move(p)); }
  } out;
  f.mobile.set_egress(7, out);
  const ByteCount mtu = f.server.client_mtu();
  EXPECT_GT(mtu, 1000);
  // Let the Sprout session's forecasts establish, then offer packets at a
  // pace the tunnel's forecast-bounded buffer accommodates.
  f.sim.run_until(TimePoint{} + sec(2));
  int offered = 0;
  std::function<void()> offer = [&] {
    for (int i = 0; i < 5; ++i) {
      Packet p = client_packet(7, mtu, offered++);
      p.sent_at = f.sim.now();
      f.server.ingress().receive(std::move(p));
    }
    if (offered < 50) f.sim.after(msec(40), offer);
  };
  offer();
  f.sim.run_until(TimePoint{} + sec(7));
  ASSERT_GT(out.got.size(), 40u);  // nearly all arrive
  // In order.
  for (std::size_t i = 1; i < out.got.size(); ++i) {
    EXPECT_GT(out.got[i].seq, out.got[i - 1].seq);
  }
}

TEST(TunnelEndpointTest, IsolatesFlowsUnderOverload) {
  TunnelFixture f(100.0);  // 1200 kbps tunnel capacity
  struct Collector : PacketSink {
    ByteCount bytes = 0;
    void receive(Packet&& p) override { bytes += p.size; }
  } bulk_out, interactive_out;
  f.mobile.set_egress(1, bulk_out);
  f.mobile.set_egress(2, interactive_out);
  const ByteCount mtu = f.server.client_mtu();
  // Offer a greedy bulk flow (4x capacity) and a light interactive flow
  // (~10% capacity) for 20 seconds.
  std::function<void()> offer = [&] {
    for (int i = 0; i < 7; ++i) {
      f.server.ingress().receive(client_packet(1, mtu));
    }
    f.server.ingress().receive(client_packet(2, 600));
    if (f.sim.now() < TimePoint{} + sec(20)) {
      f.sim.after(msec(20), offer);
    }
  };
  f.sim.after(msec(20), offer);
  f.sim.run_until(TimePoint{} + sec(25));

  // The interactive flow gets through nearly unharmed: round-robin service
  // and head-drop from the LONGEST queue protect it.
  const ByteCount interactive_offered = 600 * 1000;  // ~1000 offers
  EXPECT_GT(interactive_out.bytes, interactive_offered / 2);
  // The bulk flow got the rest of the capacity, far below its offer.
  EXPECT_GT(bulk_out.bytes, 0);
  EXPECT_GT(f.server.mux().dropped_packets(), 0);  // overload was shed
}

TEST(TunnelEndpointTest, ManyEqualFlowsShareTheTunnelFairly) {
  TunnelFixture f(200.0);  // 2400 kbps tunnel capacity
  constexpr int kFlows = 5;
  struct Collector : PacketSink {
    ByteCount bytes = 0;
    void receive(Packet&& p) override { bytes += p.size; }
  };
  std::vector<Collector> outs(kFlows);
  for (int flow = 0; flow < kFlows; ++flow) {
    f.mobile.set_egress(flow + 1, outs[static_cast<std::size_t>(flow)]);
  }
  const ByteCount mtu = f.server.client_mtu();
  // Every flow offers 2x its fair share, continuously.
  std::function<void()> offer = [&] {
    for (int flow = 0; flow < kFlows; ++flow) {
      f.server.ingress().receive(client_packet(flow + 1, mtu));
    }
    if (f.sim.now() < TimePoint{} + sec(20)) f.sim.after(msec(25), offer);
  };
  f.sim.after(msec(20), offer);
  f.sim.run_until(TimePoint{} + sec(25));

  ByteCount min_bytes = std::numeric_limits<ByteCount>::max();
  ByteCount max_bytes = 0;
  for (const Collector& c : outs) {
    EXPECT_GT(c.bytes, 0);
    min_bytes = std::min(min_bytes, c.bytes);
    max_bytes = std::max(max_bytes, c.bytes);
  }
  // Round-robin fill + longest-queue head-drop: identical offers must get
  // near-identical service.
  EXPECT_LT(static_cast<double>(max_bytes) / static_cast<double>(min_bytes),
            1.15);
}

TEST(TunnelEndpointTest, BufferingBoundTracksForecast) {
  TunnelFixture f(300.0);
  f.sim.run_until(TimePoint{} + sec(2));  // let forecasts flow
  const ByteCount mtu = f.server.client_mtu();
  // Dump a large burst; the mux must hold only ~the forecast life worth.
  for (int i = 0; i < 400; ++i) {
    f.server.ingress().receive(client_packet(1, mtu, i));
  }
  EXPECT_LT(f.server.mux().queued_bytes(), 400 * mtu);
  EXPECT_GT(f.server.mux().dropped_packets(), 0);
}

}  // namespace
}  // namespace sprout
