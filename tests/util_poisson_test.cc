#include "util/poisson.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace sprout {
namespace {

// P[X = k], from the log-space pmf the filter's observe step uses.
double pmf(int k, double mean) { return std::exp(poisson_log_pmf(k, mean)); }

TEST(LogFactorial, MatchesDirectComputation) {
  EXPECT_DOUBLE_EQ(log_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(log_factorial(1), 0.0);
  EXPECT_NEAR(log_factorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(log_factorial(10), std::log(3628800.0), 1e-9);
}

TEST(LogFactorial, LargeArgumentsUseLgamma) {
  // Stirling sanity: log(2000!) ~ 2000 ln 2000 - 2000.
  const double v = log_factorial(2000);
  EXPECT_NEAR(v, 2000.0 * std::log(2000.0) - 2000.0, 10.0);
}

TEST(LogFactorial, TableIsTheRunningSumBitForBit) {
  // The cached range (k < 1024) must be exactly the left-to-right running
  // sum of logs -- every golden result depends on these bits -- and agree
  // with lgamma to double precision.
  double sum = 0.0;
  for (int k = 0; k < 1024; ++k) {
    if (k > 0) sum += std::log(static_cast<double>(k));
    EXPECT_EQ(log_factorial(k), sum) << "k " << k;
    EXPECT_NEAR(log_factorial(k), std::lgamma(k + 1.0),
                1e-12 * std::max(1.0, sum))
        << "k " << k;
  }
}

TEST(PoissonPmf, ZeroMeanIsDegenerate) {
  EXPECT_DOUBLE_EQ(pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pmf(1, 0.0), 0.0);
  EXPECT_EQ(poisson_log_pmf(3, 0.0), kNegInf);
}

TEST(PoissonPmf, MatchesClosedForm) {
  // P[X=k] = e^-m m^k / k!
  EXPECT_NEAR(pmf(0, 2.0), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(pmf(1, 2.0), 2.0 * std::exp(-2.0), 1e-12);
  EXPECT_NEAR(pmf(2, 2.0), 2.0 * std::exp(-2.0), 1e-12);
  EXPECT_NEAR(pmf(3, 2.0), 4.0 / 3.0 * std::exp(-2.0), 1e-12);
}

TEST(PoissonPmf, SumsToOne) {
  for (double mean : {0.1, 1.0, 7.5, 40.0, 160.0}) {
    double sum = 0.0;
    for (int k = 0; k < 1000; ++k) sum += pmf(k, mean);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "mean " << mean;
  }
}

TEST(PoissonPmf, SurvivesExtremeMismatch) {
  // 150 observed packets against a near-zero rate: log pmf is very negative
  // but finite, and must not be NaN.
  const double lp = poisson_log_pmf(150, 0.1);
  EXPECT_TRUE(std::isfinite(lp));
  EXPECT_LT(lp, -500.0);
}

TEST(PoissonCdf, MonotoneInK) {
  double prev = -1.0;
  for (int k = 0; k < 50; ++k) {
    const double c = poisson_cdf(k, 12.0);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-9);
}

TEST(PoissonCdf, MatchesPmfSum) {
  for (double mean : {0.5, 3.0, 25.0}) {
    double sum = 0.0;
    for (int k = 0; k <= 30; ++k) {
      sum += pmf(k, mean);
      EXPECT_NEAR(poisson_cdf(k, mean), sum, 1e-10) << "mean " << mean;
    }
  }
}

TEST(PoissonCdf, NegativeKIsZero) {
  EXPECT_DOUBLE_EQ(poisson_cdf(-1, 5.0), 0.0);
}

TEST(PoissonSurvival, ComplementOfCdf) {
  for (double mean : {0.5, 4.0, 30.0}) {
    for (int k = 0; k <= 20; ++k) {
      const double s = std::exp(poisson_log_survival(k, mean));
      const double expected = k == 0 ? 1.0 : 1.0 - poisson_cdf(k - 1, mean);
      EXPECT_NEAR(s, expected, 1e-9) << "mean " << mean << " k " << k;
    }
  }
}

TEST(PoissonSurvival, DeepTailIsStable) {
  // P[X >= 100 | mean = 1] is astronomically small; the log must be finite
  // and close to log pmf(100).
  const double ls = poisson_log_survival(100, 1.0);
  EXPECT_TRUE(std::isfinite(ls));
  EXPECT_NEAR(ls, poisson_log_pmf(100, 1.0), 0.05);
}

TEST(PoissonSurvival, DeepTailHelperIsTheSurvivalPastTheCdfCut) {
  // Wherever P[X <= k - 1] reaches 0.999, poisson_log_survival is the
  // deep-tail helper, bit for bit; before the cut the helper still agrees
  // with the CDF's complement to summation accuracy.
  int deep = 0;
  for (double mean : {0.01, 0.5, 4.0, 30.0}) {
    for (int k = 1; k <= 120; ++k) {
      const double tail = poisson_log_deep_tail(k, mean);
      if (poisson_cdf(k - 1, mean) >= 0.999) {
        EXPECT_EQ(tail, poisson_log_survival(k, mean))
            << "mean " << mean << " k " << k;
        ++deep;
      } else if (k > mean + 5.0) {
        EXPECT_NEAR(tail, poisson_log_survival(k, mean), 1e-9)
            << "mean " << mean << " k " << k;
      }
    }
  }
  EXPECT_GT(deep, 300);
}

TEST(PoissonSurvival, ZeroMean) {
  EXPECT_DOUBLE_EQ(poisson_log_survival(0, 0.0), 0.0);
  EXPECT_EQ(poisson_log_survival(1, 0.0), kNegInf);
}

// Property sweep: survival is nonincreasing in k and nondecreasing in mean.
class PoissonSurvivalSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonSurvivalSweep, MonotoneInK) {
  const double mean = GetParam();
  double prev = 0.0;  // log survival at k=0 is 0
  for (int k = 1; k < 60; ++k) {
    const double ls = poisson_log_survival(k, mean);
    EXPECT_LE(ls, prev + 1e-12) << "k " << k;
    prev = ls;
  }
}

TEST_P(PoissonSurvivalSweep, MonotoneInMean) {
  const double mean = GetParam();
  const int k = 5;
  EXPECT_LE(poisson_log_survival(k, mean),
            poisson_log_survival(k, mean * 1.5) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonSurvivalSweep,
                         ::testing::Values(0.2, 1.0, 3.0, 10.0, 40.0, 160.0));

}  // namespace
}  // namespace sprout
