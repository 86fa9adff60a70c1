#include "core/forecaster.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/strategy.h"

namespace sprout {
namespace {

RateDistribution locked_at(const SproutParams& p, int per_tick, int ticks = 60) {
  SproutBayesFilter f(p);
  for (int t = 0; t < ticks; ++t) {
    f.evolve();
    f.observe(per_tick);
  }
  return f.distribution();
}

TEST(Forecast, CumulativeIsNondecreasing) {
  SproutParams p;
  DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 10);
  const DeliveryForecast f = fc.forecast(d, TimePoint{} + sec(1));
  ASSERT_EQ(f.ticks(), 8);
  for (int h = 1; h < 8; ++h) {
    EXPECT_LE(f.cumulative_bytes[static_cast<std::size_t>(h - 1)],
              f.cumulative_bytes[static_cast<std::size_t>(h)]);
  }
  EXPECT_EQ(f.cumulative_at(0), 0);
  EXPECT_EQ(f.cumulative_at(8), f.cumulative_bytes.back());
  EXPECT_EQ(f.cumulative_at(20), f.cumulative_bytes.back());  // clamps
}

TEST(Forecast, CautiousBelowTheMean) {
  SproutParams p;
  DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 10);  // ~500 pps
  const DeliveryForecast f = fc.forecast(d, TimePoint{});
  // Mean deliveries over 160 ms at 500 pps = 80 packets = 120000 bytes.
  // The 95%-confident forecast must be well below the mean but nonzero.
  EXPECT_GT(f.cumulative_at(8), 30000);
  EXPECT_LT(f.cumulative_at(8), 120000);
}

TEST(Forecast, HigherConfidenceIsMoreCautious) {
  SproutParams p95;
  p95.confidence_percent = 95.0;
  SproutParams p50 = p95;
  p50.confidence_percent = 50.0;
  SproutParams p5 = p95;
  p5.confidence_percent = 5.0;
  const RateDistribution d = locked_at(p95, 10);
  const ByteCount f95 =
      DeliveryForecaster(p95).forecast(d, TimePoint{}).cumulative_at(8);
  const ByteCount f50 =
      DeliveryForecaster(p50).forecast(d, TimePoint{}).cumulative_at(8);
  const ByteCount f5 =
      DeliveryForecaster(p5).forecast(d, TimePoint{}).cumulative_at(8);
  EXPECT_LT(f95, f50);
  EXPECT_LT(f50, f5);
}

TEST(Forecast, OutageBeliefForecastsNothing) {
  SproutParams p;
  SproutBayesFilter f(p);
  for (int t = 0; t < 60; ++t) {
    f.evolve();
    f.observe(0);
  }
  DeliveryForecaster fc(p);
  const DeliveryForecast fore = fc.forecast(f.distribution(), TimePoint{});
  EXPECT_LT(fore.cumulative_at(8), 5 * kMtuBytes);
}

TEST(Forecast, UncertaintyGrowsWithHorizon) {
  // Per-tick increments should shrink toward the end of the horizon: the
  // belief diffuses forward, so the cautious quantile decays.
  SproutParams p;
  DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 10);
  const DeliveryForecast f = fc.forecast(d, TimePoint{});
  const ByteCount first_half = f.cumulative_at(4);
  const ByteCount second_half = f.cumulative_at(8) - f.cumulative_at(4);
  EXPECT_GE(first_half, second_half);
}

TEST(Forecast, MixtureVariantAlsoMonotoneAndMoreCautious) {
  SproutParams rate_only;
  SproutParams with_noise = rate_only;
  with_noise.count_noise_in_forecast = true;
  const RateDistribution d = locked_at(rate_only, 10);
  const DeliveryForecast a =
      DeliveryForecaster(rate_only).forecast(d, TimePoint{});
  const DeliveryForecast b =
      DeliveryForecaster(with_noise).forecast(d, TimePoint{});
  for (int h = 1; h <= 8; ++h) {
    EXPECT_LE(b.cumulative_at(h), a.cumulative_at(h) + kMtuBytes) << "h=" << h;
  }
  for (int h = 2; h <= 8; ++h) {
    EXPECT_GE(b.cumulative_at(h), b.cumulative_at(h - 1));
  }
}

TEST(Forecast, QuantilePacketsInvertsMixtureCdf) {
  SproutParams p;
  p.count_noise_in_forecast = true;
  DeliveryForecaster fc(p);
  const RateDistribution d = locked_at(p, 10);
  // The returned quantile must be consistent: at least 5% of the mixture
  // mass lies at or below it.
  const int q = fc.quantile_packets(d, 5);
  EXPECT_GT(q, 10);   // not absurdly small
  EXPECT_LT(q, 60);   // and below the ~50 mean
}

TEST(Forecast, FloorHintNeverChangesTheForecast) {
  // The monotone-floor short-circuit: seeding horizon h's quantile search
  // with horizon h-1's answer must reproduce the plain (floorless) search
  // after the caller's max-with-floor clamp — for both quantile variants.
  for (const bool noise : {false, true}) {
    SproutParams p;
    p.count_noise_in_forecast = noise;
    DeliveryForecaster fc(p);
    const auto kernel = TransitionMatrixCache::get(p);
    for (const int per_tick : {0, 2, 10, 18}) {
      const RateDistribution d = locked_at(p, per_tick);
      RateDistribution evolved = d;
      int floor = 0;
      for (int h = 1; h <= p.forecast_horizon_ticks; ++h) {
        kernel->evolve(evolved);
        const int plain = std::max(fc.quantile_packets(evolved, h), floor);
        const int hinted = fc.quantile_packets(evolved, h, floor);
        EXPECT_EQ(hinted, plain)
            << "noise=" << noise << " rate=" << per_tick << " h=" << h;
        floor = hinted;
      }
    }
  }
}

TEST(EwmaStrategy, FlatExtrapolationAtEstimatedRate) {
  SproutParams p;
  EwmaForecastStrategy s(p, EwmaParams{});
  for (int t = 0; t < 100; ++t) s.observe(10);
  EXPECT_NEAR(s.estimated_rate_pps(), 500.0, 5.0);
  const DeliveryForecast f = s.make_forecast(TimePoint{});
  // 500 pps for 160 ms = 80 packets; EWMA forecasts the mean, not a
  // cautious quantile.
  EXPECT_NEAR(static_cast<double>(f.cumulative_at(8)),
              80.0 * static_cast<double>(kMtuBytes), 8000.0);
  // Linear in the horizon.
  EXPECT_NEAR(static_cast<double>(f.cumulative_at(4)) * 2.0,
              static_cast<double>(f.cumulative_at(8)), 3100.0);
}

TEST(EwmaStrategy, LowPassLagsSuddenDrop) {
  SproutParams p;
  EwmaForecastStrategy s(p, EwmaParams{});
  for (int t = 0; t < 100; ++t) s.observe(10);
  // Rate collapses; the EWMA responds only gradually (the paper's §5.3
  // explanation for Sprout-EWMA's delay).
  s.observe(0);
  s.observe(0);
  EXPECT_GT(s.estimated_rate_pps(), 300.0);
  for (int t = 0; t < 60; ++t) s.observe(0);
  EXPECT_LT(s.estimated_rate_pps(), 10.0);
}

TEST(EwmaStrategy, CensoredTickOnlyRaises) {
  SproutParams p;
  EwmaForecastStrategy s(p, EwmaParams{});
  for (int t = 0; t < 100; ++t) s.observe(10);
  const double before = s.estimated_rate_pps();
  s.observe_lower_bound(1);  // sender-limited trickle
  EXPECT_DOUBLE_EQ(s.estimated_rate_pps(), before);
  s.observe_lower_bound(15);  // genuine evidence of more headroom
  EXPECT_GT(s.estimated_rate_pps(), before);
}

TEST(BayesianStrategy, EndToEndViaInterface) {
  SproutParams p;
  auto s = make_bayesian_strategy(p);
  for (int t = 0; t < 60; ++t) {
    s->advance_tick();
    s->observe(5);
  }
  EXPECT_NEAR(s->estimated_rate_pps(), 250.0, 50.0);
  const DeliveryForecast f = s->make_forecast(TimePoint{} + msec(100));
  EXPECT_EQ(f.origin, TimePoint{} + msec(100));
  EXPECT_GT(f.cumulative_at(8), 0);
}

}  // namespace
}  // namespace sprout
