// TowerCell: the §2.1 PF scheduler over live synth channels and fading
// radios, with churn.
#include "link/tower_cell.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "trace/analysis.h"

namespace sprout {
namespace {

// A channel pinned to a constant rate — makes scheduler arithmetic exact.
class ConstantChannel : public TowerChannel {
 public:
  explicit ConstantChannel(double pps, Duration step = msec(20))
      : pps_(pps), step_(step) {}
  double advance() override { return pps_; }
  [[nodiscard]] Duration step() const override { return step_; }

 private:
  double pps_;
  Duration step_;
};

SynthSpec brownian_channel(std::uint64_t seed) {
  SynthSpec s;
  s.base = SynthSpec::Base::kBrownian;
  s.seed = seed;
  return s;
}

// One fading user per mean SNR (user u gets seed + u) in a 1 ms-slot cell,
// run for `duration`; returns each user's delivery-opportunity trace.
std::vector<Trace> fading_traces(const std::vector<double>& mean_snr_db,
                                 std::uint64_t seed, Duration duration) {
  TowerCellParams params;
  params.slot = msec(1);
  TowerCell cell(params);
  for (std::size_t u = 0; u < mean_snr_db.size(); ++u) {
    cell.add_user(static_cast<std::int64_t>(u),
                  make_fading_channel(mean_snr_db[u], seed + u));
  }
  while (cell.now() < TimePoint{} + duration) cell.step();
  std::vector<Trace> traces;
  for (std::size_t u = 0; u < mean_snr_db.size(); ++u) {
    traces.emplace_back(cell.remove_user(static_cast<std::int64_t>(u)),
                        duration);
  }
  return traces;
}

TEST(TowerCell, EmptyCellServesNobodyButTimeAdvances) {
  TowerCell cell(TowerCellParams{});
  EXPECT_EQ(cell.step(), -1);
  EXPECT_EQ(cell.now(), TimePoint{} + msec(2));
  EXPECT_EQ(cell.slots_served(), 0);
}

TEST(TowerCell, SoleUserGetsEverySlot) {
  TowerCell cell(TowerCellParams{});
  cell.add_user(1, std::make_unique<ConstantChannel>(500.0));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(cell.step(), 1);
  EXPECT_EQ(cell.slots_served(), 100);
  // 500 pps * 2 ms = 1 packet per slot: one opportunity per slot.
  const auto opp = cell.remove_user(1);
  EXPECT_EQ(opp.size(), 100u);
}

TEST(TowerCell, EqualUsersShareSlotsNearEqually) {
  TowerCell cell(TowerCellParams{});
  cell.add_user(1, std::make_unique<ConstantChannel>(500.0));
  cell.add_user(2, std::make_unique<ConstantChannel>(500.0));
  int served1 = 0;
  int served2 = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t id = cell.step();
    if (id == 1) ++served1;
    if (id == 2) ++served2;
  }
  // PF over identical channels alternates (the loser's average decays, so
  // it wins next); allow slack for the startup transient.
  EXPECT_NEAR(served1, served2, 10);
}

TEST(TowerCell, PfPrefersTheStrongerChannelButStarvesNobody) {
  TowerCell cell(TowerCellParams{});
  cell.add_user(1, std::make_unique<ConstantChannel>(1500.0));
  cell.add_user(2, std::make_unique<ConstantChannel>(500.0));
  int served2 = 0;
  for (int i = 0; i < 3000; ++i) {
    if (cell.step() == 2) ++served2;
  }
  // Proportional fairness equalizes the *share of time*, not throughput:
  // both users get slots even though user 1 moves 3x the bytes per slot.
  EXPECT_GT(served2, 1000);
  EXPECT_LT(served2, 2000);
}

TEST(TowerCell, DepartedUserCostsNothing) {
  TowerCell cell(TowerCellParams{});
  cell.add_user(1, std::make_unique<ConstantChannel>(500.0));
  cell.add_user(2, std::make_unique<ConstantChannel>(500.0));
  for (int i = 0; i < 10; ++i) cell.step();
  (void)cell.remove_user(2);
  EXPECT_EQ(cell.active_users(), 1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(cell.step(), 1);
}

TEST(TowerCell, RejectsDuplicateAndUnknownIds) {
  TowerCell cell(TowerCellParams{});
  cell.add_user(1, std::make_unique<ConstantChannel>(500.0));
  EXPECT_THROW(cell.add_user(1, std::make_unique<ConstantChannel>(500.0)),
               std::invalid_argument);
  EXPECT_THROW((void)cell.remove_user(99), std::invalid_argument);
}

TEST(TowerCell, UsersAddedOutOfIdOrderAreScannedInIdOrder) {
  // Equal channels tie on the first slots, so the ties must go to the
  // smallest ids, whatever order the users arrived in.
  TowerCell shuffled(TowerCellParams{});
  for (const std::int64_t id : {9, 2, 5}) {
    shuffled.add_user(id, std::make_unique<ConstantChannel>(500.0));
  }
  EXPECT_EQ(shuffled.step(), 2);
  EXPECT_EQ(shuffled.step(), 5);
  EXPECT_EQ(shuffled.step(), 9);

  // And the whole run is the one an id-ordered attach gives, bit for bit,
  // through a departure and a late arrival between existing ids.
  const auto run = [](const std::vector<std::int64_t>& ids) {
    TowerCell cell(TowerCellParams{});
    for (const std::int64_t id : ids) {
      cell.add_user(id, make_tower_channel(brownian_channel(1),
                                           static_cast<std::uint64_t>(id)));
    }
    std::vector<std::int64_t> served;
    for (int i = 0; i < 2000; ++i) {
      served.push_back(cell.step());
      if (i == 700) (void)cell.remove_user(4);
      if (i == 900) {
        cell.add_user(3, make_tower_channel(brownian_channel(1), 3));
      }
    }
    std::vector<double> averages;
    for (const std::int64_t id : {1, 2, 3, 6, 8}) {
      averages.push_back(cell.avg_rate_pps(id));
    }
    return std::make_pair(served, averages);
  };
  EXPECT_EQ(run({8, 1, 6, 4, 2}), run({1, 2, 4, 6, 8}));
}

TEST(TowerCell, LiveChannelRunsAreDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    TowerCell cell(TowerCellParams{});
    cell.add_user(1, make_tower_channel(brownian_channel(1), seed));
    cell.add_user(2, make_tower_channel(brownian_channel(1), seed + 1));
    cell.add_user(3, make_fading_channel(5.0, seed + 2));
    for (int i = 0; i < 5000; ++i) cell.step();
    return std::vector<std::vector<TimePoint>>{
        cell.remove_user(1), cell.remove_user(2), cell.remove_user(3)};
  };
  const auto first = run(7);
  EXPECT_EQ(first, run(7));
  const auto other = run(8);
  for (std::size_t u = 0; u < first.size(); ++u) {
    EXPECT_NE(first[u], other[u]) << "user " << u + 1;  // seed matters
  }
}

// PfCell: a TowerCell with 1 ms slots (the TTI) whose users are all
// make_fading_channel radios — the §2.1 proportional-fair cell.

TEST(PfCell, SlotsAdvanceTheClock) {
  TowerCellParams params;
  params.slot = msec(1);
  TowerCell cell(params);
  cell.add_user(0, make_fading_channel(5.0, 1));
  EXPECT_EQ(cell.now(), TimePoint{});
  EXPECT_EQ(cell.step(), 0);
  EXPECT_EQ(cell.now(), TimePoint{} + msec(1));
}

TEST(PfCell, EqualUsersGetEqualLongRunService) {
  // Fades persist for seconds (reversion 0.4/s), so per-user luck averages
  // out slowly; 6 minutes gives ~150 independent fade periods.
  const auto traces = fading_traces({5.0, 5.0, 5.0, 5.0}, 7, sec(360));
  ASSERT_EQ(traces.size(), 4u);
  double min_rate = 1e18;
  double max_rate = 0.0;
  for (const Trace& t : traces) {
    const double r = t.average_rate_kbps();
    min_rate = std::min(min_rate, r);
    max_rate = std::max(max_rate, r);
    EXPECT_GT(r, 0.0);
  }
  EXPECT_LT(max_rate / min_rate, 1.35);
}

TEST(PfCell, StrongerUserGetsMoreThroughputButNotEverything) {
  // A user parked next to the tower (18 dB mean SNR against 5 dB): PF
  // should give it more bytes (it is cheaper to serve) while still
  // scheduling the weak user regularly — the "proportional" in
  // proportional fair.  1200 s of 1 ms slots.
  TowerCellParams params;
  params.slot = msec(1);
  TowerCell cell(params);
  cell.add_user(0, make_fading_channel(18.0, 3));
  cell.add_user(1, make_fading_channel(5.0, 4));
  std::int64_t user0_slots = 0;
  constexpr std::int64_t kSlots = 120'000;
  for (std::int64_t i = 0; i < kSlots; ++i) {
    if (cell.step() == 0) ++user0_slots;
  }
  const double share0 =
      static_cast<double>(user0_slots) / static_cast<double>(kSlots);
  // PF equalizes SLOT shares for stationary channels; the strong user wins
  // on bytes-per-slot, not slot count.
  EXPECT_GT(share0, 0.30);
  EXPECT_LT(share0, 0.70);
  const double strong = static_cast<double>(cell.remove_user(0).size());
  const double weak = static_cast<double>(cell.remove_user(1).size());
  EXPECT_GT(strong, 1.5 * weak);
}

TEST(PfCell, SpectralEfficiencyIsCapped) {
  const double cap_pps = kFadingBandwidthHz * kMaxSpectralEfficiency /
                         (8.0 * static_cast<double>(kMtuBytes));
  // An absurdly good channel sits on the 64-QAM cap every step.
  const auto strong = make_fading_channel(60.0, 1);
  EXPECT_EQ(strong->step(), msec(1));
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(strong->advance(), cap_pps);
  // A typical one is Shannon-limited below it.
  const auto typical = make_fading_channel(5.0, 1);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double pps = typical->advance();
    EXPECT_GT(pps, 0.0);
    EXPECT_LE(pps, cap_pps);
    sum += pps;
  }
  EXPECT_LT(sum / 1000.0, cap_pps);
}

TEST(PfCell, TracesAreSortedAndNonEmpty) {
  const auto traces = fading_traces({5.0, 5.0, 5.0, 5.0}, 5, sec(30));
  for (const Trace& t : traces) {
    ASSERT_FALSE(t.empty());
    const auto& opp = t.opportunities();
    EXPECT_TRUE(std::is_sorted(opp.begin(), opp.end()));
    EXPECT_GE(t.duration(), opp.back().time_since_epoch());
  }
}

TEST(PfCell, DeterministicForSeed) {
  const std::vector<double> snr(4, 5.0);
  const auto ta = fading_traces(snr, 11, sec(10));
  const auto tb = fading_traces(snr, 11, sec(10));
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t u = 0; u < ta.size(); ++u) {
    EXPECT_EQ(ta[u].opportunities(), tb[u].opportunities());
  }
  const auto tc = fading_traces(snr, 12, sec(10));
  EXPECT_NE(ta[0].size(), tc[0].size());
}

TEST(PfCell, PerUserRateVariesLikeACellularLink) {
  // The paper's §2.1 point: scheduling + fading + contention produce the
  // rate variability Sprout must handle.  A PF user's trace should show a
  // wide dynamic range at 1 s windows — like the Cox-generated presets.
  const auto traces = fading_traces({5.0, 5.0, 5.0, 5.0}, 9, sec(180));
  EXPECT_GT(rate_dynamic_range(traces[0], sec(1)), 2.0);
}

TEST(PfCell, MoreUsersMeansLessPerUserThroughput) {
  const double solo =
      fading_traces({5.0}, 13, sec(60))[0].average_rate_kbps();
  const double shared =
      fading_traces(std::vector<double>(8, 5.0), 13, sec(60))[0]
          .average_rate_kbps();
  EXPECT_GT(solo, 3.0 * shared);
}

TEST(TowerChannel, RejectsNonLiveSpecs) {
  SynthSpec preset;
  preset.base = SynthSpec::Base::kPreset;
  EXPECT_THROW((void)make_tower_channel(preset, 1), std::invalid_argument);
  SynthSpec with_ops = brownian_channel(1);
  with_ops.ops.push_back(SynthOp::scale(2.0));
  EXPECT_THROW((void)make_tower_channel(with_ops, 1), std::invalid_argument);
}

}  // namespace
}  // namespace sprout
