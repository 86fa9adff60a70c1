// Cross-AQM property suite: every queue-management policy in aqm/ must
// satisfy the same behavioural contract under the same synthetic loads.
// Individual algorithms have their own focused suites; this one pins the
// family-wide invariants (§5.4 / §6 compare them as a class).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "aqm/codel.h"
#include "aqm/pie.h"

namespace sprout {
namespace {

// Explicit values keep each case's printed GetParam() bytes, and so its
// test name, stable as policies come and go.
enum class Policy { kDropTail = 0, kCodel = 1, kPie = 5 };

std::string policy_name(const ::testing::TestParamInfo<Policy>& info) {
  switch (info.param) {
    case Policy::kDropTail: return "DropTail";
    case Policy::kCodel: return "CoDel";
    case Policy::kPie: return "PIE";
  }
  return "unknown";
}

std::unique_ptr<AqmPolicy> make_policy(Policy p) {
  switch (p) {
    // The base policy's defaults (admit everything, FIFO dequeue) are
    // Cellsim's unbounded DropTail.
    case Policy::kDropTail: return std::make_unique<AqmPolicy>();
    case Policy::kCodel: return std::make_unique<CodelPolicy>();
    case Policy::kPie: return std::make_unique<PiePolicy>(PieParams{}, 1);
  }
  return nullptr;
}

Packet mtu_packet(std::int64_t t_ms) {
  Packet p;
  p.size = kMtuBytes;
  p.sent_at = TimePoint{} + msec(t_ms);
  p.enqueued_at = TimePoint{} + msec(t_ms);
  return p;
}

class AqmContract : public ::testing::TestWithParam<Policy> {};

TEST_P(AqmContract, IdleQueueAdmitsAndNeverDrops) {
  auto policy = make_policy(GetParam());
  LinkQueue q;
  // Arrivals at 1 packet / 100 ms, drained immediately: zero load.
  for (int i = 0; i < 200; ++i) {
    const std::int64_t t = i * 100;
    Packet p = mtu_packet(t);
    ASSERT_TRUE(policy->admit(q, p, TimePoint{} + msec(t)))
        << "arrival " << i;
    q.push(std::move(p));
    auto out = policy->dequeue(q, TimePoint{} + msec(t + 1));
    EXPECT_TRUE(out.has_value());
  }
  EXPECT_TRUE(q.empty());
}

TEST_P(AqmContract, DequeueFromEmptyIsEmpty) {
  auto policy = make_policy(GetParam());
  LinkQueue q;
  EXPECT_FALSE(policy->dequeue(q, TimePoint{} + msec(1)).has_value());
}

TEST_P(AqmContract, ConservesPackets) {
  auto policy = make_policy(GetParam());
  LinkQueue q;
  std::int64_t in = 0;
  std::int64_t out = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::int64_t t = i * 2;  // overload: 2 ms arrivals, 10 ms service
    Packet p = mtu_packet(t);
    if (policy->admit(q, p, TimePoint{} + msec(t))) {
      q.push(std::move(p));
      ++in;
    }
    if (i % 5 == 0 &&
        policy->dequeue(q, TimePoint{} + msec(t + 1)).has_value()) {
      ++out;
    }
  }
  EXPECT_LE(out, in);
  // Admitted = delivered + still queued + dropped inside the queue by a
  // dequeue-side policy (CoDel); nothing is ever invented.
  EXPECT_EQ(in, out + static_cast<std::int64_t>(q.packets()) + q.dropped());
}

TEST_P(AqmContract, ActivePoliciesControlAStandingQueueDropTailDoesNot) {
  auto policy = make_policy(GetParam());
  LinkQueue q;
  // Sustained 2x overload for 60 s: 1 arrival / 5 ms, 1 departure / 10 ms.
  std::size_t peak_packets = 0;
  for (int i = 0; i < 12'000; ++i) {
    const std::int64_t t = i * 5;
    Packet p = mtu_packet(t);
    if (policy->admit(q, p, TimePoint{} + msec(t))) q.push(std::move(p));
    if (i % 2 == 0) (void)policy->dequeue(q, TimePoint{} + msec(t + 1));
    peak_packets = std::max(peak_packets, q.packets());
  }
  if (GetParam() == Policy::kDropTail) {
    // Unbounded tail-drop: the queue grows with the overload (~6000 pkts).
    EXPECT_GT(peak_packets, 3000u);
  } else {
    // Every active policy must hold the standing queue well below that.
    EXPECT_LT(peak_packets, 1500u) << "peak " << peak_packets;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AqmContract,
                         ::testing::Values(Policy::kDropTail, Policy::kCodel,
                                           Policy::kPie),
                         policy_name);

}  // namespace
}  // namespace sprout
