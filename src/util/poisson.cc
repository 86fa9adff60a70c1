#include "util/poisson.h"

#include <array>
#include <cassert>
#include <cmath>

namespace sprout {

namespace {

// log(k!) for k < kLogFactorialTableSize, built once by a function-local
// static initializer (thread-safe by the language) and immutable after.
// Entries are the left-to-right running sum log(1) + ... + log(k), which
// tests/util_poisson_test.cc pins bit for bit.
constexpr int kLogFactorialTableSize = 1024;

const std::array<double, kLogFactorialTableSize>& log_factorial_table() {
  static const std::array<double, kLogFactorialTableSize> table = [] {
    std::array<double, kLogFactorialTableSize> t{};
    t[0] = 0.0;  // log(0!) = 0
    for (int k = 1; k < kLogFactorialTableSize; ++k) {
      t[k] = t[k - 1] + std::log(static_cast<double>(k));
    }
    return t;
  }();
  return table;
}

}  // namespace

double log_factorial(int k) {
  assert(k >= 0);
  if (k < kLogFactorialTableSize) return log_factorial_table()[k];
  return std::lgamma(static_cast<double>(k) + 1.0);
}

double poisson_log_pmf(int k, double mean) {
  assert(k >= 0);
  assert(mean >= 0.0);
  if (mean == 0.0) return k == 0 ? 0.0 : kNegInf;
  return static_cast<double>(k) * std::log(mean) - mean - log_factorial(k);
}

double poisson_cdf(int k, double mean) {
  assert(mean >= 0.0);
  if (k < 0) return 0.0;
  if (mean == 0.0) return 1.0;
  // Forward recurrence: term_{i} = term_{i-1} * mean / i, starting at e^-mean.
  double term = std::exp(-mean);
  double sum = term;
  for (int i = 1; i <= k; ++i) {
    term *= mean / static_cast<double>(i);
    sum += term;
  }
  return sum < 1.0 ? sum : 1.0;
}

double poisson_log_survival(int k, double mean) {
  assert(k >= 0);
  assert(mean >= 0.0);
  if (k == 0) return 0.0;  // P[X >= 0] = 1
  if (mean == 0.0) return kNegInf;
  const double below = poisson_cdf(k - 1, mean);
  if (below < 0.999) {
    return std::log1p(-below);
  }
  return poisson_log_deep_tail(k, mean);
}

double poisson_log_deep_tail(int k, double mean) {
  assert(k > 0);
  assert(mean > 0.0);
  // Terms decay geometrically once j > mean, so a few iterations suffice.
  const double log_first = poisson_log_pmf(k, mean);
  double tail = 1.0;  // in units of pmf(k)
  double term = 1.0;
  for (int j = k + 1; j < k + 200; ++j) {
    term *= mean / static_cast<double>(j);
    tail += term;
    if (term < 1e-16 * tail) break;
  }
  return log_first + std::log(tail);
}

}  // namespace sprout
