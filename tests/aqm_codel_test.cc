#include "aqm/codel.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>

#include "util/rng.h"

namespace sprout {
namespace {

Packet mtu_packet(TimePoint enqueued) {
  Packet p;
  p.size = kMtuBytes;
  p.enqueued_at = enqueued;
  return p;
}

TEST(LinkQueue, ByteAccounting) {
  LinkQueue q;
  q.push(mtu_packet(TimePoint{}));
  Packet small;
  small.size = 100;
  q.push(std::move(small));
  EXPECT_EQ(q.bytes(), kMtuBytes + 100);
  EXPECT_EQ(q.packets(), 2u);
  auto p = q.pop();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(q.bytes(), 100);
  q.drop_head();
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_EQ(q.dropped(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(LinkQueue, PushFrontRestoresOrder) {
  LinkQueue q;
  Packet a = mtu_packet(TimePoint{});
  a.seq = 1;
  Packet b = mtu_packet(TimePoint{});
  b.seq = 2;
  q.push(std::move(a));
  q.push(std::move(b));
  auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  q.push_front(std::move(*first));
  EXPECT_EQ(q.head()->seq, 1);
  EXPECT_EQ(q.bytes(), 2 * kMtuBytes);
}

// A deep copy: Packet is move-only, and its extras' payload is what tells
// two Sprout packets apart.
Packet clone(const Packet& p) {
  Packet c{p.flow_id, p.size, p.sent_at, p.enqueued_at,
           p.seq,     p.ack,  p.meta,    p.echo,        nullptr};
  if (p.extras != nullptr) {
    c.extras = std::make_unique<Packet::Extras>();
    c.extras->payload = p.extras->payload;
  }
  return c;
}

void expect_same_packet(const Packet& got, const Packet& want) {
  EXPECT_EQ(got.flow_id, want.flow_id);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.sent_at, want.sent_at);
  EXPECT_EQ(got.enqueued_at, want.enqueued_at);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.ack, want.ack);
  EXPECT_EQ(got.meta, want.meta);
  EXPECT_EQ(got.echo, want.echo);
  ASSERT_EQ(got.extras == nullptr, want.extras == nullptr);
  if (got.extras != nullptr) {
    EXPECT_EQ(got.extras->payload, want.extras->payload);
  }
}

// The packet-per-entry FIFO that LinkQueue's trains replace, kept as its
// oracle.  A seeded mix of TCP-like bursts (consecutive seq at one
// instant, now and then one field or the seq step broken mid-burst), acks,
// packets with extras, pops, push_front of a popped packet (often split
// out of a train), drops inside trains and releases; after every
// operation each popped packet and head(), packets(), bytes() and
// dropped() must read as the oracle's.
TEST(LinkQueue, TrainsMatchPerPacketOracle) {
  LinkQueue q;
  std::deque<Packet> want;
  ByteCount want_bytes = 0;
  std::int64_t want_dropped = 0;
  Rng rng(21);
  TimePoint now{};
  std::int64_t next_seq = 0;
  std::int64_t bursts = 0;

  const auto push_both = [&](Packet&& p) {
    want_bytes += p.size;
    want.push_back(clone(p));
    q.push(std::move(p));
  };
  const auto pop_both = [&]() -> std::optional<Packet> {
    std::optional<Packet> got = q.pop();
    EXPECT_EQ(got.has_value(), !want.empty());
    if (!got.has_value() || want.empty()) return std::nullopt;
    expect_same_packet(*got, want.front());
    want_bytes -= want.front().size;
    want.pop_front();
    return got;
  };

  for (int op = 0; op < 20000; ++op) {
    now += usec(rng.uniform_int(0, 1) * 500);
    const std::int64_t kind = rng.uniform_int(0, 99);
    if (kind < 30) {
      // A sender's burst, stamped at one arrival instant.
      ++bursts;
      const auto count = rng.uniform_int(1, 40);
      const auto flow = rng.uniform_int(1, 3);
      const TimePoint sent = now - msec(rng.uniform_int(0, 2));
      for (std::int64_t i = 0; i < count; ++i) {
        Packet p;
        p.flow_id = flow;
        p.size = kMtuBytes;
        p.seq = next_seq++;
        p.sent_at = sent;
        p.enqueued_at = now;
        p.echo = sent;
        // Now and then break one field, or the seq step, mid-burst.
        switch (rng.uniform_int(0, 40)) {
          case 0: p.flow_id += 10; break;
          case 1: p.size -= 1; break;
          case 2: p.sent_at += usec(1); break;
          case 3: p.enqueued_at += usec(1); break;
          case 4: p.ack = 7; break;
          case 5: p.meta = 9; break;
          case 6: p.echo += usec(1); break;
          case 7: p.seq = next_seq++; break;  // skips one
          case 8: p.seq -= 1; break;          // repeats the last
          default: break;
        }
        push_both(std::move(p));
      }
    } else if (kind < 40) {
      // An ack: small, seq 0, the cumulative ack in `ack`.
      Packet p;
      p.flow_id = 4;
      p.size = 40;
      p.ack = rng.uniform_int(0, next_seq);
      p.sent_at = now;
      p.enqueued_at = now;
      push_both(std::move(p));
    } else if (kind < 45) {
      // A Sprout-like packet: the next seq, but it carries extras.
      Packet p;
      p.flow_id = 5;
      p.size = 700;
      p.seq = next_seq++;
      p.enqueued_at = now;
      p.extras = std::make_unique<Packet::Extras>();
      p.extras->payload.assign(3, static_cast<std::uint8_t>(p.seq));
      push_both(std::move(p));
    } else if (kind < 75) {
      const auto n = rng.uniform_int(1, 30);
      for (std::int64_t i = 0; i < n; ++i) pop_both();
    } else if (kind < 85) {
      // Dequeued but too big for the budget: back to the head.
      if (std::optional<Packet> p = pop_both()) {
        want_bytes += p->size;
        want.push_front(clone(*p));
        q.push_front(std::move(*p));
      }
    } else if (kind < 97) {
      const auto n = rng.uniform_int(1, 5);
      for (std::int64_t i = 0; i < n; ++i) {
        q.drop_head();
        if (!want.empty()) {
          want_bytes -= want.front().size;
          want.pop_front();
          ++want_dropped;
        }
      }
    } else {
      q.release();
      want.clear();
      want_bytes = 0;
    }

    ASSERT_EQ(q.packets(), want.size()) << "op " << op;
    ASSERT_EQ(q.empty(), want.empty()) << "op " << op;
    ASSERT_EQ(q.bytes(), want_bytes) << "op " << op;
    ASSERT_EQ(q.dropped(), want_dropped) << "op " << op;
    if (want.empty()) {
      ASSERT_EQ(q.head(), nullptr) << "op " << op;
    } else {
      ASSERT_NE(q.head(), nullptr) << "op " << op;
      expect_same_packet(*q.head(), want.front());
    }
    ASSERT_FALSE(HasFailure()) << "op " << op;
  }
  EXPECT_GT(bursts, 5000);
}

TEST(Codel, NoDropsBelowTarget) {
  CodelPolicy codel;
  LinkQueue q;
  TimePoint now{};
  // Sojourn always < 5 ms: CoDel must behave like FIFO.
  for (int i = 0; i < 100; ++i) {
    q.push(mtu_packet(now));
    now += msec(1);
    auto p = codel.dequeue(q, now);
    EXPECT_TRUE(p.has_value());
  }
  EXPECT_EQ(codel.drops(), 0);
}

TEST(Codel, DropsAfterSustainedHighSojourn) {
  CodelPolicy codel;
  LinkQueue q;
  TimePoint now{};
  // Fill a standing queue whose head is always >> 5 ms old, and dequeue
  // one packet every 10 ms for a second: CoDel must enter dropping state.
  for (int i = 0; i < 500; ++i) q.push(mtu_packet(now));
  int delivered = 0;
  for (int step = 0; step < 100; ++step) {
    now += msec(10);
    q.push(mtu_packet(now));  // keep it backlogged
    if (codel.dequeue(q, now).has_value()) ++delivered;
  }
  EXPECT_GT(codel.drops(), 0);
  EXPECT_GT(delivered, 0);
}

TEST(Codel, DropRateAcceleratesWithCount) {
  // With a persistently bad queue, inter-drop spacing shrinks as
  // interval/sqrt(count): expect clearly more drops in the second half.
  CodelPolicy codel;
  LinkQueue q;
  TimePoint now{};
  for (int i = 0; i < 5000; ++i) q.push(mtu_packet(now));
  int drops_first_half = 0;
  for (int step = 0; step < 400; ++step) {
    now += msec(5);
    q.push(mtu_packet(now));
    const std::int64_t before = codel.drops();
    codel.dequeue(q, now);
    if (step == 199) drops_first_half = static_cast<int>(codel.drops());
    (void)before;
  }
  const int drops_second_half = static_cast<int>(codel.drops()) - drops_first_half;
  EXPECT_GT(drops_second_half, drops_first_half);
}

TEST(Codel, RecoversWhenQueueDrains) {
  CodelPolicy codel;
  LinkQueue q;
  TimePoint now{};
  for (int i = 0; i < 200; ++i) q.push(mtu_packet(now));
  for (int step = 0; step < 150; ++step) {
    now += msec(10);
    codel.dequeue(q, now);
  }
  EXPECT_TRUE(codel.dropping() || codel.drops() > 0);
  // Now the queue goes nearly empty and sojourns become small.
  while (!q.empty()) q.drop_head();
  q.push(mtu_packet(now));
  now += msec(1);
  EXPECT_TRUE(codel.dequeue(q, now).has_value());
  EXPECT_FALSE(codel.dropping());
}

TEST(Codel, EmptyQueueReturnsNothing) {
  CodelPolicy codel;
  LinkQueue q;
  EXPECT_FALSE(codel.dequeue(q, TimePoint{} + sec(1)).has_value());
}

}  // namespace
}  // namespace sprout
