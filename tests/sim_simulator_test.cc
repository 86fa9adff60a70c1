#include "sim/simulator.h"

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "sim/relay.h"
#include "util/rng.h"

namespace sprout {
namespace {

TEST(Simulator, StartsAtEpoch) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint{});
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(TimePoint{} + msec(30), [&] { order.push_back(3); });
  sim.at(TimePoint{} + msec(10), [&] { order.push_back(1); });
  sim.at(TimePoint{} + msec(20), [&] { order.push_back(2); });
  sim.run_until(TimePoint{} + msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint{} + msec(5);
  for (int i = 0; i < 10; ++i) {
    sim.at(t, [&order, i] { order.push_back(i); });
  }
  sim.run_until(t);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(TimePoint{} + sec(5));
  EXPECT_EQ(sim.now(), TimePoint{} + sec(5));
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  bool fired = false;
  sim.at(TimePoint{} + sec(2), [&] { fired = true; });
  sim.run_until(TimePoint{} + sec(1));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(TimePoint{} + sec(2));
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.after(msec(10), chain);
  };
  sim.after(msec(10), chain);
  sim.run_until(TimePoint{} + sec(1));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, ClockIsEventTimeDuringCallback) {
  Simulator sim;
  TimePoint seen{};
  sim.at(TimePoint{} + msec(42), [&] { seen = sim.now(); });
  sim.run_until(TimePoint{} + sec(1));
  EXPECT_EQ(seen, TimePoint{} + msec(42));
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

TEST(RelaySink, ForwardsOnceTargeted) {
  Simulator sim;
  RelaySink relay;
  Packet p;
  p.size = 100;
  relay.receive(std::move(p));  // no target yet
  EXPECT_EQ(relay.dropped(), 1);

  struct Counter : PacketSink {
    int n = 0;
    void receive(Packet&&) override { ++n; }
  } counter;
  relay.set_target(counter);
  Packet q;
  q.size = 100;
  relay.receive(std::move(q));
  EXPECT_EQ(counter.n, 1);
  EXPECT_EQ(relay.dropped(), 1);
}

TEST(DemuxSink, RoutesByFlowId) {
  struct Counter : PacketSink {
    int n = 0;
    void receive(Packet&&) override { ++n; }
  } a, b;
  DemuxSink demux;
  demux.route(1, a);
  demux.route(2, b);
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.flow_id = i % 2 == 0 ? 1 : 2;
    p.size = 10;
    demux.receive(std::move(p));
  }
  Packet stray;
  stray.flow_id = 99;
  stray.size = 10;
  demux.receive(std::move(stray));
  EXPECT_EQ(a.n, 2);
  EXPECT_EQ(b.n, 1);
  EXPECT_EQ(demux.unrouted(), 1);
}

TEST(DemuxSink, KeepsAPerFlowByteLedger) {
  struct Counter : PacketSink {
    int n = 0;
    void receive(Packet&&) override { ++n; }
  } a, b;
  DemuxSink demux;
  demux.route(1, a);
  demux.route(2, b);
  for (const auto& [flow, size] :
       {std::pair<std::int64_t, ByteCount>{1, 1500},
        {2, 200}, {1, 300}, {2, 1500}}) {
    Packet p;
    p.flow_id = flow;
    p.size = size;
    demux.receive(std::move(p));
  }
  Packet stray;  // unrouted bytes are credited to NO flow
  stray.flow_id = 99;
  stray.size = 777;
  demux.receive(std::move(stray));

  EXPECT_EQ(demux.delivered_bytes(1), 1800);
  EXPECT_EQ(demux.delivered_bytes(2), 1700);
  EXPECT_EQ(demux.delivered_bytes(99), 0);
  EXPECT_EQ(demux.delivered_bytes(3), 0);
}

TEST(Packet, FitsInSeventyTwoBytes) {
  if constexpr (sizeof(void*) == 8) {
    EXPECT_LE(sizeof(Packet), 72u);
  }
}

TEST(PacketPool, ReusesExtrasWithTheirPayloadCapacity) {
  PacketPool pool;
  std::unique_ptr<Packet::Extras> box = pool.acquire();
  ASSERT_NE(box, nullptr);
  box->payload.assign(300, 7);
  box->tunneled.emplace_back();
  const std::uint8_t* buffer = box->payload.data();
  const std::size_t capacity = box->payload.capacity();
  pool.recycle(std::move(box));
  pool.recycle(nullptr);  // nothing to keep
  EXPECT_EQ(pool.pooled(), 1u);

  std::unique_ptr<Packet::Extras> again = pool.acquire();
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_TRUE(again->payload.empty());
  EXPECT_TRUE(again->tunneled.empty());
  EXPECT_EQ(again->payload.capacity(), capacity);
  EXPECT_EQ(again->payload.data(), buffer);
  EXPECT_EQ(pool.pooled(), 0u);
}

// The per-packet event DelayLink replaced, kept as its oracle: every
// accepted packet rides its own event, which inherits the sender's scope.
// A shared_ptr carries the packet because Packet is move-only and an event
// callback must be copyable.
class PerPacketEventLink : public PacketSink {
 public:
  PerPacketEventLink(Simulator& sim, Duration delay, double loss_rate,
                     std::uint64_t seed)
      : sim_(sim), delay_(delay), loss_rate_(loss_rate), rng_(seed) {}

  void set_target(PacketSink& target) { target_ = &target; }

  void receive(Packet&& p) override {
    if (loss_rate_ > 0.0 && rng_.bernoulli(loss_rate_)) return;
    sim_.after(delay_, [this, pkt = std::make_shared<Packet>(std::move(p))] {
      target_->receive(std::move(*pkt));
    });
  }

 private:
  Simulator& sim_;
  Duration delay_;
  double loss_rate_;
  Rng rng_;
  PacketSink* target_ = nullptr;
};

// What a delivery looked like from the target: when, which packet, under
// which scope.  Unrelated events log packet id -1.
using DeliveryLog =
    std::vector<std::tuple<TimePoint, std::int64_t, Simulator::ScopeId>>;

struct LoggingSink : PacketSink {
  Simulator& sim;
  DeliveryLog& log;
  LoggingSink(Simulator& s, DeliveryLog& l) : sim(s), log(l) {}
  void receive(Packet&& p) override {
    log.emplace_back(sim.now(), p.seq, sim.current_scope());
    // Every third delivery schedules a same-instant follow-up, which
    // inherits the delivery's scope and interleaves with later ones.
    if (p.seq % 3 == 0) {
      sim.after(Duration::zero(), [this, seq = p.seq] {
        log.emplace_back(sim.now(), 100000 + seq, sim.current_scope());
      });
    }
  }
};

// Three senders in two scopes send random bursts of consecutive seq (up
// to 40 segments, which the line stores as trains) at whole-millisecond
// instants, unrelated root events fire at the same instants, and the
// second scope is cancelled while its trains are in flight.  Each burst
// also schedules a marker one delay ahead partway through, so the marker
// falls between two of the burst's packets at their delivery instant and
// must split the train.  Every fourth burst hands its tail to the other
// scope mid-burst, so a train must also split where the scope changes,
// and a last burst spans two instants, so it must split at the due time.
template <typename Link>
DeliveryLog run_delay_script(Duration delay, double loss_rate) {
  Simulator sim;
  DeliveryLog log;
  LoggingSink sink(sim, log);
  Link link(sim, delay, loss_rate, /*seed=*/5);
  link.set_target(sink);

  const Simulator::ScopeId a = sim.new_scope();
  const Simulator::ScopeId b = sim.new_scope();
  const Simulator::ScopeId sender_scope[3] = {a, a, b};
  Rng rng(11);
  std::int64_t next_seq = 0;
  for (int sender = 0; sender < 3; ++sender) {
    Simulator::ScopeGuard guard(sim, sender_scope[sender]);
    const Simulator::ScopeId other = sender_scope[sender] == a ? b : a;
    for (int burst = 0; burst < 60; ++burst) {
      const TimePoint at = TimePoint{} + msec(rng.uniform_int(0, 120));
      const auto count = rng.uniform_int(1, 40);
      const auto split = rng.uniform_int(0, count);
      const std::int64_t handoff =
          burst % 4 == 3 ? rng.uniform_int(1, count) : count;
      sim.at(at, [&sim, &log, &link, delay, other, first = next_seq, count,
                  split, handoff] {
        for (std::int64_t i = 0; i <= count; ++i) {
          if (i == split) {
            sim.after(delay, [&sim, &log, first] {
              log.emplace_back(sim.now(), 200000 + first, sim.current_scope());
            });
          }
          if (i == count) break;
          Packet p;
          p.size = 100;
          p.seq = first + i;
          if (i >= handoff) {
            Simulator::ScopeGuard handed(sim, other);
            link.receive(std::move(p));
          } else {
            link.receive(std::move(p));
          }
        }
      });
      next_seq += count;
    }
  }
  for (int ms = 0; ms <= 160; ms += 4) {
    sim.at(TimePoint{} + msec(ms), [&sim, &log] {
      log.emplace_back(sim.now(), -1, sim.current_scope());
    });
  }
  // Last, once the line is quiet: a burst that spans two instants, with
  // nothing reserving an order between its halves, so the second half
  // takes the next orders but is due a millisecond later: it must not
  // join the first half's train.
  for (int half = 0; half < 2; ++half) {
    sim.at(TimePoint{} + msec(200 + half), [&link, first = next_seq + 3 * half] {
      for (std::int64_t i = 0; i < 3; ++i) {
        Packet p;
        p.size = 100;
        p.seq = first + i;
        link.receive(std::move(p));
      }
    });
  }
  sim.at(TimePoint{} + msec(70), [&sim, b] { sim.cancel_scope(b); });
  sim.run_until(TimePoint{} + msec(300));
  return log;
}

TEST(DelayLink, MatchesPerPacketEventOracle) {
  for (const Duration delay : {Duration::zero(), msec(20)}) {
    for (const double loss : {0.0, 0.2}) {
      const DeliveryLog got = run_delay_script<DelayLink>(delay, loss);
      const DeliveryLog want =
          run_delay_script<PerPacketEventLink>(delay, loss);
      EXPECT_GT(want.size(), 1500u);
      EXPECT_EQ(got, want) << "delay " << to_millis(delay) << " ms, loss "
                           << loss;
    }
  }
}

TEST(DelayLink, PushDuringDeliveryArmsOnce) {
  Simulator sim;
  DelayLink line(sim, Duration::zero(), 0.0, 1);
  // Each delivery pushes the next packet back into the line until 5.
  struct Bounce : PacketSink {
    DelayLink& line;
    std::vector<std::int64_t> seen;
    explicit Bounce(DelayLink& l) : line(l) {}
    void receive(Packet&& p) override {
      seen.push_back(p.seq);
      if (p.seq < 5) {
        Packet next;
        next.size = 1;
        next.seq = p.seq + 1;
        line.receive(std::move(next));
      }
    }
  } bounce(line);
  line.set_target(bounce);
  Packet first;
  first.size = 1;
  line.receive(std::move(first));
  sim.run_until(TimePoint{} + msec(1));
  EXPECT_EQ(bounce.seen, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
  // One head event delivered the whole chain; none was left behind.
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(line.accepted(), 6);
}

TEST(Simulator, ReservedOrderFiresAtItsOwnKey) {
  Simulator sim;
  std::vector<int> order;
  const TimePoint t = TimePoint{} + msec(5);
  const std::uint64_t reserved = sim.reserve_order();
  sim.at(t, [&] { order.push_back(2); });
  sim.at_reserved(t, reserved, Simulator::kRootScope,
                  [&] { order.push_back(1); });
  sim.run_until(t);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace sprout
