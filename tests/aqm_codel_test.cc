#include "aqm/codel.h"

#include <gtest/gtest.h>

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
