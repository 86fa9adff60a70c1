#include "core/rate_model.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "replay_test_util.h"
#include "util/kernels.h"
#include "util/poisson.h"

namespace sprout {
namespace {

// Cache hit/miss tallies live in the process-global obs registry now;
// tests measure deltas around the calls they care about.
std::int64_t matrix_hits() {
  return obs::Registry::instance().counter("cache.transition_matrix.hits")
      .value();
}
std::int64_t matrix_misses() {
  return obs::Registry::instance().counter("cache.transition_matrix.misses")
      .value();
}

SproutParams small_params() {
  SproutParams p;
  p.num_bins = 64;  // faster tests, same math
  return p;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(RateDistribution, UniformPriorAtStartup) {
  RateDistribution d(256);
  EXPECT_TRUE(d.is_normalized());
  for (int i = 0; i < 256; ++i) {
    EXPECT_DOUBLE_EQ(d.probability(i), 1.0 / 256.0);
  }
}

TEST(RateDistribution, MeanAndQuantileOfUniform) {
  SproutParams p;
  RateDistribution d(p.num_bins);
  EXPECT_NEAR(d.mean(p), 500.0, 2.5);       // mid of [0, 1000]
  EXPECT_NEAR(d.quantile(p, 50.0), 500.0, 5.0);
  EXPECT_LT(d.quantile(p, 5.0), 60.0);
  EXPECT_GT(d.quantile(p, 95.0), 940.0);
}

TEST(TransitionMatrix, RowsAreStochastic) {
  const SproutParams p = small_params();
  const DenseTransitionMatrix m(p);
  for (int i = 0; i < p.num_bins; ++i) {
    double sum = 0.0;
    for (int j = 0; j < p.num_bins; ++j) sum += m.entry(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << i;
  }
}

TEST(TransitionMatrix, RejectsARateGridTooCoarseForTheWalk) {
  // At the default sigma and tick, 256 bins up to 1.5e5 pps are too wide
  // for the outage escape row to keep any Gaussian mass; dividing by it
  // made every posterior NaN.  1e5 pps still builds.
  SproutParams coarse;
  coarse.max_rate_pps = 1.5e5;
  try {
    const TransitionMatrix m(coarse);
    ADD_FAILURE() << "a too-coarse rate grid built a kernel";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_rate_pps"), std::string::npos) << what;
    EXPECT_NE(what.find("num_bins"), std::string::npos) << what;
    EXPECT_NE(what.find("sigma"), std::string::npos) << what;
  }

  SproutParams fine;
  fine.max_rate_pps = 1e5;
  SproutBayesFilter filter(fine);
  filter.evolve();
  filter.observe(10);
  for (const double p : filter.distribution().probabilities()) {
    ASSERT_TRUE(std::isfinite(p));
  }
}

TEST(TransitionMatrix, OutageIsSticky) {
  const SproutParams p = small_params();
  const DenseTransitionMatrix m(p);
  // Staying probability = exp(-λz τ) = exp(-0.02) ≈ 0.980.
  EXPECT_NEAR(m.entry(0, 0), std::exp(-1.0 * 0.02), 1e-9);
}

TEST(TransitionMatrix, DiffusionDoesNotSinkIntoOutage) {
  // The reflecting boundary: a mid-range rate must put (essentially) no
  // mass into the outage bin in one tick.
  const SproutParams p = small_params();
  const DenseTransitionMatrix m(p);
  EXPECT_LT(m.entry(p.num_bins / 2, 0), 1e-12);
}

TEST(TransitionMatrix, EvolutionPreservesNormalization) {
  const SproutParams p = small_params();
  TransitionMatrix m(p);
  RateDistribution d(p.num_bins);
  for (int t = 0; t < 500; ++t) m.evolve(d);
  EXPECT_TRUE(d.is_normalized(1e-6));
}

TEST(TransitionMatrix, EvolutionSpreadsAConcentratedBelief) {
  const SproutParams p = small_params();
  TransitionMatrix m(p);
  RateDistribution d(p.num_bins);
  auto& probs = d.mutable_probabilities();
  std::fill(probs.begin(), probs.end(), 0.0);
  probs[32] = 1.0;
  const double before = d.quantile(p, 95.0) - d.quantile(p, 5.0);
  m.evolve(d);
  m.evolve(d);
  const double after = d.quantile(p, 95.0) - d.quantile(p, 5.0);
  EXPECT_GT(after, before);
  // Mean roughly preserved away from the boundaries.
  EXPECT_NEAR(d.mean(p), p.bin_rate(32), 25.0);
}

// The observe's arithmetic with every likelihood computed directly: the
// oracle of the kernel's tabled likelihood rows.
void direct_observe(const SproutParams& p, RateDistribution& d, int count,
                    bool censored) {
  std::vector<double>& prob = d.mutable_probabilities();
  std::vector<double> w(prob.size(), kNegInf);
  double max_w = kNegInf;
  for (int i = 0; i < d.num_bins(); ++i) {
    const double prior = prob[static_cast<std::size_t>(i)];
    if (prior <= 0.0) continue;
    const double mean = p.bin_rate(i) * p.tick_seconds();
    const double loglik = censored ? poisson_log_survival(count, mean)
                                   : poisson_log_pmf(count, mean);
    w[static_cast<std::size_t>(i)] = std::log(prior) + loglik;
    max_w = std::max(max_w, w[static_cast<std::size_t>(i)]);
  }
  if (max_w == kNegInf) {
    d.reset_uniform();
    return;
  }
  for (std::size_t i = 0; i < prob.size(); ++i) {
    prob[i] = w[i] == kNegInf ? 0.0 : std::exp(w[i] - max_w);
  }
  d.normalize();
}

TEST(BayesFilter, TabledObserveMatchesDirectOracle) {
  // Each preset link's 60 s of per-tick counts, observed exact and
  // censored, then counts straddling the last tabled row (40 is the last
  // of 41 at the defaults) from every link's final posterior: every
  // posterior bit must equal the direct-likelihood oracle's.
  const SproutParams p;
  std::int64_t observes = 0;
  std::int64_t differing = 0;
  const auto check = [&](SproutBayesFilter& f, int count, bool censored) {
    RateDistribution want = f.distribution();
    direct_observe(f.params(), want, count, censored);
    if (censored) {
      f.observe_at_least(count);
    } else {
      f.observe(count);
    }
    ++observes;
    if (bit_equal(f.distribution().probabilities(), want.probabilities())) {
      return;
    }
    if (++differing <= 10) {
      ADD_FAILURE() << "count=" << count << " censored=" << censored;
    }
  };
  for (const std::vector<int>& counts : preset_tick_counts(sec(60), p.tick)) {
    for (const bool censored : {false, true}) {
      SproutBayesFilter f(p);
      for (const int count : counts) {
        f.evolve();
        check(f, count, censored);
      }
      for (const int count : {0, 40, 41, 80, 200}) {
        for (const bool straddle_censored : {false, true}) {
          SproutBayesFilter g = f;
          g.evolve();
          check(g, count, straddle_censored);
        }
      }
    }
  }
  // A rate grid whose top bin expects 2000 packets a tick would table
  // 4001 counts; the rows stop at 1024, and counts on both sides of the
  // last one still match.
  SproutParams wide;
  wide.num_bins = 64;
  wide.max_rate_pps = 1e5;
  wide.sigma_pps_per_sqrt_s = 2e4;
  for (const int count : {0, 1023, 1024, 3000}) {
    for (const bool censored : {false, true}) {
      SproutBayesFilter f(wide);
      check(f, count, censored);
    }
  }
  EXPECT_EQ(differing, 0) << "of " << observes << " observes";
  EXPECT_EQ(observes, 8LL * 2 * (3000 + 10) + 8);
}

TEST(BayesFilter, ObservationConcentratesAtTrueRate) {
  SproutParams p;  // full 256 bins
  SproutBayesFilter f(p);
  // True rate 500 pps -> 10 packets per 20 ms tick.
  for (int t = 0; t < 50; ++t) {
    f.evolve();
    f.observe(10);
  }
  EXPECT_NEAR(f.mean_rate_pps(), 500.0, 60.0);
  EXPECT_TRUE(f.distribution().is_normalized(1e-6));
}

TEST(BayesFilter, ZeroObservationsDriveBeliefToOutage) {
  SproutParams p;
  SproutBayesFilter f(p);
  for (int t = 0; t < 30; ++t) {
    f.evolve();
    f.observe(10);
  }
  for (int t = 0; t < 50; ++t) {
    f.evolve();
    f.observe(0);
  }
  EXPECT_LT(f.mean_rate_pps(), 50.0);
}

TEST(BayesFilter, RecoversAfterOutage) {
  SproutParams p;
  SproutBayesFilter f(p);
  for (int t = 0; t < 50; ++t) {
    f.evolve();
    f.observe(0);
  }
  EXPECT_LT(f.mean_rate_pps(), 30.0);
  for (int t = 0; t < 30; ++t) {
    f.evolve();
    f.observe(8);  // 400 pps
  }
  EXPECT_NEAR(f.mean_rate_pps(), 400.0, 80.0);
}

TEST(BayesFilter, CensoredObservationNeverLowersBelief) {
  SproutParams p;
  SproutBayesFilter locked(p);
  for (int t = 0; t < 50; ++t) {
    locked.evolve();
    locked.observe(10);
  }
  const double before = locked.mean_rate_pps();
  // "At least 2 packets" is consistent with 500 pps: must not drag down.
  for (int t = 0; t < 20; ++t) {
    locked.evolve();
    locked.observe_at_least(2);
  }
  EXPECT_GT(locked.mean_rate_pps(), before - 50.0);
}

TEST(BayesFilter, CensoredObservationRulesOutSlowRates) {
  SproutParams p;
  SproutBayesFilter f(p);
  // From the uniform prior, "at least 10 per tick" kills the slow half.
  f.evolve();
  f.observe_at_least(10);
  EXPECT_LT(f.distribution().probability(0), 1e-6);
  EXPECT_GT(f.mean_rate_pps(), 400.0);
}

TEST(BayesFilter, ExtremeObservationDoesNotUnderflow) {
  SproutParams p;
  SproutBayesFilter f(p);
  // Concentrate near zero, then observe a huge count.
  for (int t = 0; t < 60; ++t) {
    f.evolve();
    f.observe(0);
  }
  f.evolve();
  f.observe(150);  // ~7500 pps equivalent: off the grid but must be handled
  EXPECT_TRUE(f.distribution().is_normalized(1e-6));
  EXPECT_GT(f.mean_rate_pps(), 400.0);
}

// Property sweep: the filter locks onto a range of true rates.
class FilterLockSweep : public ::testing::TestWithParam<int> {};

TEST_P(FilterLockSweep, LocksWithinTwoBins) {
  const int per_tick = GetParam();
  SproutParams p;
  SproutBayesFilter f(p);
  for (int t = 0; t < 80; ++t) {
    f.evolve();
    f.observe(per_tick);
  }
  const double true_rate = per_tick / p.tick_seconds();
  EXPECT_NEAR(f.mean_rate_pps(), true_rate, std::max(40.0, true_rate * 0.15));
}

INSTANTIATE_TEST_SUITE_P(Rates, FilterLockSweep,
                         ::testing::Values(1, 2, 5, 10, 15, 19));

TEST(TransitionMatrixCache, SameParamsShareOneMatrix) {
  SproutParams p = small_params();
  p.sigma_pps_per_sqrt_s = 123.0;  // a key no other test uses
  const auto a = TransitionMatrixCache::get(p);
  const auto b = TransitionMatrixCache::get(p);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->num_bins(), p.num_bins);
}

TEST(TransitionMatrixCache, KernelFieldsKeyTheCache) {
  // Counters are process-global; measure deltas.
  SproutParams p = small_params();
  p.sigma_pps_per_sqrt_s = 321.0;
  const std::int64_t misses_before = matrix_misses();
  const auto a = TransitionMatrixCache::get(p);
  // Forecast/sender knobs do not affect the kernel: still a hit.
  SproutParams same_kernel = p;
  same_kernel.confidence_percent = 50.0;
  same_kernel.sender_lookahead_ticks = 9;
  const auto b = TransitionMatrixCache::get(same_kernel);
  EXPECT_EQ(a.get(), b.get());
  // A kernel field change builds a new matrix.
  SproutParams different = p;
  different.outage_escape_rate_per_s = 2.5;
  const auto c = TransitionMatrixCache::get(different);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(matrix_misses() - misses_before, 2);
}

TEST(TransitionMatrixCache, FiltersAndForecastersReuseTheCachedKernel) {
  SproutParams p = small_params();
  p.sigma_pps_per_sqrt_s = 213.0;
  const std::int64_t misses_before = matrix_misses();
  const std::int64_t hits_before = matrix_hits();
  SproutBayesFilter f1(p);
  SproutBayesFilter f2(p);
  EXPECT_EQ(matrix_misses() - misses_before, 1);
  EXPECT_GE(matrix_hits() - hits_before, 1);
  // The shared matrix still evolves both filters independently.
  f1.evolve();
  f1.observe(10);
  f2.evolve();
  f2.observe(2);
  EXPECT_GT(f1.mean_rate_pps(), f2.mean_rate_pps());
}

TEST(TransitionMatrixCache, BandEpsilonKeysTheCache) {
  SproutParams p = small_params();
  p.sigma_pps_per_sqrt_s = 231.0;  // a key no other test uses
  const auto a = TransitionMatrixCache::get(p);
  SproutParams tighter = p;
  tighter.band_epsilon = 1e-15;
  const auto b = TransitionMatrixCache::get(tighter);
  EXPECT_NE(a.get(), b.get());
}

// --- banded fast path ----------------------------------------------------

TEST(BandedEvolve, BandsRetainTheRowMassBudget) {
  const SproutParams p = small_params();
  TransitionMatrix m(p);
  const DenseTransitionMatrix exact(p);
  EXPECT_DOUBLE_EQ(m.band_epsilon(), p.band_epsilon);
  EXPECT_GT(m.max_bandwidth(), 0);
  // Banding must actually trim: a per-tick σ of a few bins leaves most of
  // each row negligible.
  EXPECT_LT(m.mean_bandwidth(), 0.8 * p.num_bins);
  for (int i = 0; i < p.num_bins; ++i) {
    const auto [lo, hi] = m.row_extent(i);
    ASSERT_LT(lo, hi) << "row " << i;
    double kept = 0.0;
    for (int j = lo; j < hi; ++j) kept += exact.entry(i, j);
    EXPECT_GE(kept, 1.0 - p.band_epsilon - 1e-15) << "row " << i;
  }
}

TEST(BandedEvolve, MatchesDenseWithinEpsilonBudget) {
  // One banded step vs one dense step from assorted starting beliefs: the
  // per-element deviation is bounded by a small multiple of ε (trim plus
  // renormalization, each ≤ ε of relocated mass).
  for (const double eps : {1e-8, 1e-12, 1e-15}) {
    SproutParams p = small_params();
    p.band_epsilon = eps;
    TransitionMatrix m(p);
    const DenseTransitionMatrix exact(p);
    for (const int start : {0, 1, 17, 32, 62, 63}) {
      RateDistribution banded(p.num_bins);
      auto& probs = banded.mutable_probabilities();
      std::fill(probs.begin(), probs.end(), 0.0);
      probs[static_cast<std::size_t>(start)] = 1.0;
      RateDistribution dense = banded;
      m.evolve(banded);
      exact.evolve(dense);
      for (int j = 0; j < p.num_bins; ++j) {
        EXPECT_NEAR(banded.probability(j), dense.probability(j), 4.0 * eps)
            << "eps=" << eps << " start=" << start << " j=" << j;
      }
    }
  }
}

TEST(BandedEvolve, SteadyStateStaysClosedToDense) {
  // Closed-loop divergence check: run a full filter (evolve + observe) down
  // both paths for many ticks and compare the posteriors.
  SproutParams banded_params;  // full 256 bins, default ε
  SproutParams dense_params = banded_params;
  dense_params.band_epsilon = 0.0;  // the exact reference
  SproutBayesFilter banded(banded_params);
  SproutBayesFilter dense(dense_params);
  for (int t = 0; t < 300; ++t) {
    const int obs = t < 150 ? 10 : 0;  // steady rate, then an outage
    banded.evolve();
    banded.observe(obs);
    dense.evolve();
    dense.observe(obs);
  }
  EXPECT_NEAR(banded.mean_rate_pps(), dense.mean_rate_pps(), 1e-6);
  for (int j = 0; j < banded_params.num_bins; ++j) {
    EXPECT_NEAR(banded.distribution().probability(j),
                dense.distribution().probability(j), 1e-9)
        << "bin " << j;
  }
}

TEST(BandedEvolve, TiledMatchesRowByRowOracle) {
  // The tiled evolve against the row-by-row accumulation over the band it
  // regroups — dst[j] += p_i · band_row(i)[j − lo], ascending i, rows with
  // p_i ≤ 0 skipped — bit for bit, on point masses, the uniform prior and
  // replayed posteriors (whose tails underflow to exact zeros), at bin
  // counts on and off the 16-column tile width, on both kernel backends.
  const std::string saved = kernels::active_backend();
  std::vector<std::string> backends = {"scalar"};
  if (kernels::force_backend("avx2")) backends.emplace_back("avx2");
  const std::vector<std::vector<int>> links =
      preset_tick_counts(sec(10), SproutParams{}.tick);
  std::int64_t evolves = 0;
  std::int64_t differing = 0;
  for (const int bins : {64, 100, 256}) {
    for (const double epsilon : {0.0, 1e-12}) {
      SproutParams p;
      p.num_bins = bins;
      p.band_epsilon = epsilon;
      const TransitionMatrix m(p);
      std::vector<RateDistribution> posteriors;
      for (const int bin : {0, 1, bins / 2, bins - 1}) {
        RateDistribution point(bins);
        std::vector<double>& prob = point.mutable_probabilities();
        std::fill(prob.begin(), prob.end(), 0.0);
        prob[static_cast<std::size_t>(bin)] = 1.0;
        posteriors.push_back(point);
      }
      posteriors.emplace_back(bins);  // uniform
      for (const std::vector<int>& counts : links) {
        SproutBayesFilter f(p);
        for (std::size_t t = 0; t < counts.size(); ++t) {
          f.evolve();
          f.observe(counts[t]);
          if (t % 25 == 0) posteriors.push_back(f.distribution());
        }
      }
      for (const RateDistribution& d : posteriors) {
        std::vector<double> want(static_cast<std::size_t>(bins), 0.0);
        for (int i = 0; i < bins; ++i) {
          const double pi = d.probability(i);
          if (pi <= 0.0) continue;
          const int lo = m.row_extent(i).first;
          const std::span<const double> row = m.band_row(i);
          for (std::size_t k = 0; k < row.size(); ++k) {
            want[static_cast<std::size_t>(lo) + k] += pi * row[k];
          }
        }
        for (const std::string& backend : backends) {
          ASSERT_TRUE(kernels::force_backend(backend.c_str()));
          RateDistribution got = d;
          m.evolve(got);
          ++evolves;
          if (bit_equal(got.probabilities(), want)) continue;
          if (++differing <= 10) {
            ADD_FAILURE() << "bins=" << bins << " eps=" << epsilon
                          << " backend=" << backend;
          }
        }
      }
    }
  }
  kernels::force_backend(saved.c_str());
  EXPECT_EQ(differing, 0) << "of " << evolves << " evolves";
  // 5 synthetic + 8 links x 20 replayed posteriors, per bins x epsilon.
  EXPECT_EQ(evolves,
            6LL * (5 + 8 * 20) * static_cast<std::int64_t>(backends.size()));
}

TEST(BandedEvolve, ZeroEpsilonIsBitIdenticalToDense) {
  SproutParams p = small_params();
  p.band_epsilon = 0.0;
  TransitionMatrix m(p);
  const DenseTransitionMatrix exact(p);
  // ε = 0 may still trim EXACT zeros (underflowed tails) but must keep
  // every nonzero entry unscaled.
  EXPECT_LE(m.max_bandwidth(), p.num_bins);
  RateDistribution banded(p.num_bins);
  RateDistribution dense(p.num_bins);
  for (int t = 0; t < 20; ++t) {
    m.evolve(banded);
    exact.evolve(dense);
  }
  for (int j = 0; j < p.num_bins; ++j) {
    EXPECT_EQ(banded.probability(j), dense.probability(j)) << "bin " << j;
  }
}

}  // namespace
}  // namespace sprout
