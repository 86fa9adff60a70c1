// Unit tests for the PIE AQM policy (aqm/pie.h).  CoDel has its own suite.
#include <gtest/gtest.h>

#include "aqm/pie.h"

namespace sprout {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint{} + msec(ms); }

Packet mtu_packet(std::int64_t t_ms) {
  Packet p;
  p.size = kMtuBytes;
  p.sent_at = at_ms(t_ms);
  p.enqueued_at = at_ms(t_ms);
  return p;
}

// -------------------------------------------------------------------- PIE

TEST(Pie, NoDropsBelowBypassBacklog) {
  PiePolicy pie({}, 1);
  LinkQueue q;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(pie.admit(q, mtu_packet(i), at_ms(i)));
  }
}

TEST(Pie, DropProbabilityGrowsWithStandingDelay) {
  PieParams params;
  params.target = msec(20);
  PiePolicy pie(params, 1);
  LinkQueue q;
  // Standing backlog of 100 MTU with departures at 1 packet / 10 ms:
  // estimated delay = 100*1500 / 150000 B/s = 1 s >> 20 ms target.
  for (int i = 0; i < 100; ++i) q.push(mtu_packet(0));
  for (int i = 0; i < 300; ++i) {
    q.push(mtu_packet(i * 10));
    (void)pie.dequeue(q, at_ms(i * 10));
    (void)pie.admit(q, mtu_packet(i * 10 + 1), at_ms(i * 10 + 1));
  }
  EXPECT_GT(pie.drop_probability(), 0.0);
  EXPECT_GT(pie.estimated_delay_ms(), to_millis(params.target));
}

TEST(Pie, ProbabilityDecaysAfterQueueEmpties) {
  PieParams params;
  PiePolicy pie(params, 1);
  LinkQueue q;
  for (int i = 0; i < 100; ++i) q.push(mtu_packet(0));
  for (int i = 0; i < 300; ++i) {
    q.push(mtu_packet(i * 10));
    (void)pie.dequeue(q, at_ms(i * 10));
    (void)pie.admit(q, mtu_packet(i * 10 + 1), at_ms(i * 10 + 1));
  }
  const double raised = pie.drop_probability();
  ASSERT_GT(raised, 0.0);
  // Drain fully, then keep the controller ticking on an empty queue.
  while (!q.empty()) (void)pie.dequeue(q, at_ms(3000));
  LinkQueue empty;
  for (int i = 0; i < 500; ++i) {
    Packet p = mtu_packet(4000 + i * 30);
    (void)pie.admit(empty, p, at_ms(4000 + i * 30));
    (void)pie.dequeue(empty, at_ms(4000 + i * 30 + 1));
    while (!empty.empty()) (void)empty.pop();
  }
  EXPECT_LT(pie.drop_probability(), raised);
}

TEST(Pie, EstimatedDelayUsesLittlesLaw) {
  PiePolicy pie({}, 1);
  LinkQueue q;
  // Departure rate 1500 B / 10 ms = 150 kB/s, then hold a 30-packet queue:
  // 45 kB / 150 kB/s = 300 ms.
  for (int i = 0; i < 50; ++i) {
    q.push(mtu_packet(i * 10));
    (void)pie.dequeue(q, at_ms(i * 10));
  }
  for (int i = 0; i < 30; ++i) q.push(mtu_packet(600));
  for (int i = 0; i < 10; ++i) {
    (void)pie.admit(q, mtu_packet(600 + i * 31), at_ms(600 + i * 31));
  }
  EXPECT_NEAR(pie.estimated_delay_ms(), 300.0, 100.0);
}

TEST(Pie, DropsAreCounted) {
  PieParams params;
  params.bypass_bytes = 0;
  PiePolicy pie(params, 3);
  LinkQueue q;
  for (int i = 0; i < 200; ++i) q.push(mtu_packet(0));
  int denied = 0;
  for (int i = 0; i < 2000; ++i) {
    q.push(mtu_packet(i * 10));
    (void)pie.dequeue(q, at_ms(i * 10));
    if (!pie.admit(q, mtu_packet(i * 10 + 1), at_ms(i * 10 + 1))) ++denied;
  }
  EXPECT_GT(denied, 0);
  EXPECT_EQ(pie.drops(), denied);
}

}  // namespace
}  // namespace sprout
