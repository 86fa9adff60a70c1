// Numerically careful Poisson distribution math.
//
// Sprout's Bayesian observation step multiplies bin probabilities by Poisson
// likelihoods whose linear-space values underflow for plausible rates
// (e.g. exp(-160)), so all pmf work is done in log space, and cumulative
// quantities are built by stable iterative summation.
#pragma once

#include <limits>

namespace sprout {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// log(k!) via lgamma; exact to double precision for all k >= 0.
double log_factorial(int k);

// log P[X = k] for X ~ Poisson(mean).  mean == 0 is the outage case:
// returns 0 (probability 1) for k == 0 and -inf for k > 0.
double poisson_log_pmf(int k, double mean);

// P[X <= k], by forward summation of pmf terms (stable for mean <~ 700,
// far above anything Sprout's 11 Mbps / 160 ms horizon produces).
double poisson_cdf(int k, double mean);

// log P[X >= k]: the censored-observation likelihood ("at least k arrived").
// Computed stably for both tails: log1p(-P[X <= k - 1]) while that CDF is
// under 0.999, and poisson_log_deep_tail past it.
double poisson_log_survival(int k, double mean);

// log P[X >= k] in the deep upper tail (mean << k, where P[X <= k - 1] is
// at least 0.999 and log1p of its complement would lose the digits): the
// tail summed from pmf(k), whose terms decay geometrically.  k > 0 and
// mean > 0.  A caller that already holds the CDF below k (the likelihood
// tables' running sum) calls this directly instead of paying for
// poisson_log_survival's O(k) CDF.
double poisson_log_deep_tail(int k, double mean);

}  // namespace sprout
