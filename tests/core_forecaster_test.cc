#include "core/forecaster.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/strategy.h"
#include "obs/metrics.h"
#include "replay_test_util.h"
#include "util/poisson.h"

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

// --- the runtime-evolve oracle ----------------------------------------------
//
// The forecast the folded tables replace, kept here as their oracle (as
// DenseTransitionMatrix is the evolve's): copy the posterior, evolve the
// copy one tick per horizon through the banded kernel, and take each evolved
// copy's (100-confidence)th percentile — of the rate posterior, or with
// count noise of the λ-mixture of Poisson(λ·h·τ) counts — clamped by the
// previous horizon's count.

// The evolved copies p0 · B^h for h = 1..H.
std::vector<RateDistribution> evolve_horizons(const SproutParams& p,
                                              const RateDistribution& current) {
  const auto kernel = TransitionMatrixCache::get(p);
  std::vector<RateDistribution> evolved;
  RateDistribution d = current;
  for (int h = 1; h <= p.forecast_horizon_ticks; ++h) {
    kernel->evolve(d);
    evolved.push_back(d);
  }
  return evolved;
}

// cdf[h-1][n][bin] = P[Poisson(λ_bin · h·τ) <= n], from util/poisson.h.
// Built only for count-noise params; rate mode never reads it.
class PoissonCdfTable {
 public:
  explicit PoissonCdfTable(const SproutParams& p)
      : bins_(static_cast<std::size_t>(p.num_bins)),
        counts_(static_cast<std::size_t>(p.max_count) + 1) {
    if (!p.count_noise_in_forecast) return;
    cdf_.resize(static_cast<std::size_t>(p.forecast_horizon_ticks) * counts_ *
                bins_);
    for (int h = 1; h <= p.forecast_horizon_ticks; ++h) {
      for (int bin = 0; bin < p.num_bins; ++bin) {
        const double mean =
            p.bin_rate(bin) * p.tick_seconds() * static_cast<double>(h);
        for (int n = 0; n <= p.max_count; ++n) {
          cdf_[offset(h, n) + static_cast<std::size_t>(bin)] =
              poisson_cdf(n, mean);
        }
      }
    }
  }
  // Mixture CDF of `d` at count n, horizon h.
  [[nodiscard]] double mixture_cdf(const std::vector<double>& d, int h,
                                   int n) const {
    const double* row = &cdf_.at(offset(h, n));
    double sum = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) sum += d[i] * row[i];
    return sum;
  }

 private:
  [[nodiscard]] std::size_t offset(int h, int n) const {
    return (static_cast<std::size_t>(h - 1) * counts_ +
            static_cast<std::size_t>(n)) *
           bins_;
  }
  std::size_t bins_;
  std::size_t counts_;
  std::vector<double> cdf_;
};

// The floorless percentile of one evolved copy, in packets.
int oracle_quantile(const SproutParams& p, const RateDistribution& evolved,
                    int h, const PoissonCdfTable& poisson) {
  if (!p.count_noise_in_forecast) {
    const double rate = evolved.quantile(p, p.forecast_percentile());
    return static_cast<int>(rate * p.tick_seconds() * static_cast<double>(h));
  }
  // Smallest n with mixture CDF >= target, max_count if none (bisection).
  const double target = p.forecast_percentile() / 100.0;
  int lo = -1;
  int hi = p.max_count;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (poisson.mixture_cdf(evolved.probabilities(), h, mid) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

std::vector<ByteCount> oracle_forecast(
    const SproutParams& p, const std::vector<RateDistribution>& evolved,
    const PoissonCdfTable& poisson) {
  std::vector<ByteCount> bytes;
  int floor = 0;
  for (int h = 1; h <= p.forecast_horizon_ticks; ++h) {
    floor = std::max(
        floor, oracle_quantile(p, evolved[static_cast<std::size_t>(h - 1)], h,
                               poisson));
    bytes.push_back(static_cast<ByteCount>(floor) * p.mtu);
  }
  return bytes;
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
  // The count-noise forecast at horizon 5 is the smallest count whose
  // mixture CDF (over the posterior evolved 5 ticks) reaches 5%.
  SproutParams p;
  p.count_noise_in_forecast = true;
  const RateDistribution d = locked_at(p, 10);
  const int q = static_cast<int>(
      DeliveryForecaster(p).forecast(d, TimePoint{}).cumulative_at(5) / p.mtu);
  EXPECT_GT(q, 10);  // not absurdly small
  EXPECT_LT(q, 60);  // and below the ~50 mean
  const PoissonCdfTable poisson(p);
  const std::vector<RateDistribution> evolved = evolve_horizons(p, d);
  const std::vector<double>& at5 = evolved[4].probabilities();
  const double target = p.forecast_percentile() / 100.0;
  EXPECT_GE(poisson.mixture_cdf(at5, 5, q), target);
  EXPECT_LT(poisson.mixture_cdf(at5, 5, q - 1), target);
}

TEST(Forecast, FloorHintNeverChangesTheForecast) {
  // The running floor (cumulative deliveries cannot decrease) is the only
  // thing one horizon passes to the next: each folded entry is the running
  // maximum of the oracle's floorless per-horizon quantiles, in both modes.
  for (const bool noise : {false, true}) {
    SproutParams p;
    p.count_noise_in_forecast = noise;
    const DeliveryForecaster fc(p);
    const PoissonCdfTable poisson(p);
    for (const int per_tick : {0, 2, 10, 18}) {
      const RateDistribution d = locked_at(p, per_tick);
      const std::vector<RateDistribution> evolved = evolve_horizons(p, d);
      const DeliveryForecast f = fc.forecast(d, TimePoint{});
      int floor = 0;
      for (int h = 1; h <= p.forecast_horizon_ticks; ++h) {
        floor = std::max(
            floor, oracle_quantile(p, evolved[static_cast<std::size_t>(h - 1)],
                                   h, poisson));
        EXPECT_EQ(f.cumulative_at(h), static_cast<ByteCount>(floor) * p.mtu)
            << "noise=" << noise << " rate=" << per_tick << " h=" << h;
      }
    }
  }
}

TEST(Forecast, RateForecastIgnoresMaxCount) {
  // max_count sizes the count-noise tables only.  A legal spec whose rate
  // grid reaches past it must forecast past it in rate mode.
  SproutParams p;
  p.max_rate_pps = 5000.0;
  const RateDistribution d = locked_at(p, 80);  // ~4000 pps
  const DeliveryForecast f = DeliveryForecaster(p).forecast(d, TimePoint{});
  EXPECT_GT(f.cumulative_at(8), static_cast<ByteCount>(p.max_count) * p.mtu);
  for (int h = 2; h <= 8; ++h) {
    EXPECT_GE(f.cumulative_at(h), f.cumulative_at(h - 1)) << "h=" << h;
  }
}

TEST(Forecast, FoldedMatchesEvolveOracle) {
  // Posteriors: each preset link's per-tick counts replayed for 60 s
  // through the filter.  Every folded forecast entry must equal the
  // runtime-evolve oracle's, over kernels (σ, band ε), confidences and both
  // forecast modes.  One thread per kernel: the kernels are independent,
  // and their first uses race on the shared caches.
  SproutParams count_noise;
  count_noise.count_noise_in_forecast = true;
  const PoissonCdfTable poisson(count_noise);
  const std::vector<std::vector<int>> links =
      preset_tick_counts(sec(60), count_noise.tick);
  std::atomic<std::int64_t> entries{0};
  std::atomic<std::int64_t> differing{0};
  const auto replay = [&](double sigma, double epsilon) {
    SproutParams kernel;
    kernel.sigma_pps_per_sqrt_s = sigma;
    kernel.band_epsilon = epsilon;
    std::vector<SproutParams> arms;
    std::vector<DeliveryForecaster> folded;
    for (const bool noise : {false, true}) {
      for (const double confidence : {95.0, 50.0, 5.0}) {
        SproutParams arm = kernel;
        arm.count_noise_in_forecast = noise;
        arm.confidence_percent = confidence;
        arms.push_back(arm);
        folded.emplace_back(arm);
      }
    }
    for (const std::vector<int>& counts : links) {
      SproutBayesFilter filter(kernel);
      for (const int count : counts) {
        filter.evolve();
        filter.observe(count);
        const std::vector<RateDistribution> evolved =
            evolve_horizons(kernel, filter.distribution());
        for (std::size_t a = 0; a < arms.size(); ++a) {
          const std::vector<ByteCount> want =
              oracle_forecast(arms[a], evolved, poisson);
          const DeliveryForecast got =
              folded[a].forecast(filter.distribution(), TimePoint{});
          for (std::size_t h = 0; h < want.size(); ++h) {
            ++entries;
            if (got.cumulative_bytes[h] == want[h]) continue;
            if (++differing <= 10) {
              ADD_FAILURE() << "sigma=" << sigma << " eps=" << epsilon
                            << " noise=" << arms[a].count_noise_in_forecast
                            << " confidence=" << arms[a].confidence_percent
                            << " h=" << h + 1 << ": folded "
                            << got.cumulative_bytes[h] << ", oracle "
                            << want[h];
            }
          }
        }
      }
    }
  };
  std::vector<std::thread> workers;
  for (const double sigma : {100.0, 200.0, 400.0}) {
    for (const double epsilon : {0.0, 1e-12}) {
      workers.emplace_back(replay, sigma, epsilon);
    }
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(differing, 0) << "of " << entries << " entries";
  // 6 kernels x 8 links x 3000 ticks x 6 arms x 8 horizons.
  EXPECT_EQ(entries, 6LL * 8 * 3000 * 6 * 8);
}

TEST(Forecast, GallopProbesFewerRows) {
  // Each horizon after the first searches from the previous horizon's row,
  // which the forecast moves by a few rows, so the probes fall well under
  // a bisection's 8 per horizon (64 per forecast at 256 bins).  Counted
  // through the obs tallies over each preset link's 60 s replay.
  const SproutParams p;
  const DeliveryForecaster fc(p);
  const std::vector<std::vector<int>> links =
      preset_tick_counts(sec(60), p.tick);
  auto counter = [](const char* name) {
    return obs::Registry::instance().counter(name).value();
  };
  const auto dots = [&] {
    return counter("kernels.dot.avx2") + counter("kernels.dot.scalar");
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::int64_t dots_before = dots();
  const std::int64_t forecasts_before = counter("forecast.single");
  for (const std::vector<int>& counts : links) {
    SproutBayesFilter filter(p);
    for (const int count : counts) {
      filter.evolve();
      filter.observe(count);
      const DeliveryForecast f =
          fc.forecast(filter.distribution(), TimePoint{});
      ASSERT_EQ(f.ticks(), p.forecast_horizon_ticks);
    }
  }
  const std::int64_t probes = dots() - dots_before;
  const std::int64_t forecasts = counter("forecast.single") - forecasts_before;
  obs::set_enabled(was_enabled);
  ASSERT_EQ(forecasts, 8LL * 3000);
  EXPECT_LE(static_cast<double>(probes) / static_cast<double>(forecasts),
            32.0)
      << probes << " probes over " << forecasts << " forecasts";
}

TEST(Forecast, TablesBuildOnceUnderConcurrentFirstUse) {
  // Four threads race on first use of two fresh keys, two threads per key:
  // each key builds once, equal keys share one table set, and every
  // thread's forecast matches the serial one.
  auto counter = [](const char* name) {
    return obs::Registry::instance().counter(name).value();
  };
  SproutParams a;
  a.num_bins = 64;
  a.sigma_pps_per_sqrt_s = 157.0;  // keys no other test builds
  SproutParams b = a;
  b.sigma_pps_per_sqrt_s = 163.0;
  const SproutParams keys[2] = {a, b};
  const std::int64_t misses_before = counter("cache.forecast_tables.misses");
  const std::int64_t hits_before = counter("cache.forecast_tables.hits");

  std::latch start(4);
  std::shared_ptr<const ForecastTables> got[4];
  std::vector<ByteCount> forecasts[4];
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const SproutParams& p = keys[t % 2];
      const RateDistribution d = locked_at(p, 10);
      start.arrive_and_wait();
      got[t] = ForecastTableCache::get(p);
      forecasts[t] =
          DeliveryForecaster(p).forecast(d, TimePoint{}).cumulative_bytes;
    });
  }
  for (std::thread& th : threads) th.join();

  // Two builds; the other two first uses and all four forecasters hit.
  EXPECT_EQ(counter("cache.forecast_tables.misses") - misses_before, 2);
  EXPECT_EQ(counter("cache.forecast_tables.hits") - hits_before, 6);
  EXPECT_EQ(got[0], got[2]);
  EXPECT_EQ(got[1], got[3]);
  EXPECT_NE(got[0], got[1]);
  for (int t = 0; t < 4; ++t) {
    const SproutParams& p = keys[t % 2];
    EXPECT_EQ(forecasts[t], DeliveryForecaster(p)
                                .forecast(locked_at(p, 10), TimePoint{})
                                .cumulative_bytes)
        << "thread " << t;
  }
}

TEST(Adaptive, FoldedMatchesEvolveOracle) {
  // The default five-member ensemble on each preset link's 60 s of per-tick
  // counts.  Mirrored member filters see the same updates as the strategy's
  // own; the oracle evolves each under its own kernel, mixes them with
  // hypothesis_weights(), normalizes and takes the quantile per horizon.
  // One thread per link.
  const SproutParams base;
  const AdaptiveParams ensemble;
  const PoissonCdfTable rate_mode(base);  // empty: rate mode reads none
  std::vector<SproutParams> member_params;
  for (const ModelHypothesis& hyp : ensemble.hypotheses) {
    SproutParams m = base;
    m.sigma_pps_per_sqrt_s = hyp.sigma_pps_per_sqrt_s;
    m.outage_escape_rate_per_s = hyp.outage_escape_rate_per_s;
    member_params.push_back(m);
  }
  std::atomic<std::int64_t> entries{0};
  std::atomic<std::int64_t> differing{0};
  const auto replay = [&](const std::vector<int>& counts) {
    AdaptiveForecastStrategy strategy(base, ensemble);
    std::vector<SproutBayesFilter> mirrors(member_params.begin(),
                                           member_params.end());
    for (const int count : counts) {
      strategy.advance_tick();
      strategy.observe(count);
      for (SproutBayesFilter& m : mirrors) {
        m.evolve();
        m.observe(count);
      }
      const std::vector<double> w = strategy.hypothesis_weights();
      std::vector<std::vector<RateDistribution>> evolved;
      for (std::size_t k = 0; k < mirrors.size(); ++k) {
        evolved.push_back(
            evolve_horizons(member_params[k], mirrors[k].distribution()));
      }
      std::vector<RateDistribution> mixed;
      for (std::size_t h = 0; h < evolved.front().size(); ++h) {
        RateDistribution mix(base.num_bins);
        std::vector<double>& p = mix.mutable_probabilities();
        std::fill(p.begin(), p.end(), 0.0);
        for (std::size_t k = 0; k < evolved.size(); ++k) {
          for (std::size_t i = 0; i < p.size(); ++i) {
            p[i] += w[k] * evolved[k][h].probability(static_cast<int>(i));
          }
        }
        mix.normalize();
        mixed.push_back(mix);
      }
      const std::vector<ByteCount> want =
          oracle_forecast(base, mixed, rate_mode);
      const DeliveryForecast got = strategy.make_forecast(TimePoint{});
      for (std::size_t h = 0; h < want.size(); ++h) {
        ++entries;
        if (got.cumulative_bytes[h] == want[h]) continue;
        if (++differing <= 10) {
          ADD_FAILURE() << "h=" << h + 1 << ": folded "
                        << got.cumulative_bytes[h] << ", oracle " << want[h];
        }
      }
    }
  };
  const std::vector<std::vector<int>> links =
      preset_tick_counts(sec(60), base.tick);
  std::vector<std::thread> workers;
  for (const std::vector<int>& counts : links) {
    workers.emplace_back(replay, std::cref(counts));
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(differing, 0) << "of " << entries << " entries";
  EXPECT_EQ(entries, 8LL * 3000 * 8);
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
