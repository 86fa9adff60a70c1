#include "core/rate_model.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <tuple>

#include "obs/metrics.h"
#include "util/kernels.h"
#include "util/poisson.h"

namespace sprout {

namespace {

// Standard normal CDF.
double phi(double x) { return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))); }

// The SproutParams fields the transition kernel depends on.  Forecast and
// sender knobs do NOT appear: a confidence sweep or lookahead ablation
// shares one matrix.  band_epsilon does — it shapes the packed band.
using MatrixKey = std::tuple<int, double, std::int64_t, double, double, double>;

MatrixKey matrix_key(const SproutParams& params) {
  return {params.num_bins,          params.max_rate_pps,
          params.tick.count(),      params.sigma_pps_per_sqrt_s,
          params.outage_escape_rate_per_s, params.band_epsilon};
}

std::mutex& matrix_cache_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<MatrixKey, std::shared_ptr<const TransitionMatrix>>&
matrix_cache_map() {
  static std::map<MatrixKey, std::shared_ptr<const TransitionMatrix>> m;
  return m;
}

}  // namespace

std::shared_ptr<const TransitionMatrix> TransitionMatrixCache::get(
    const SproutParams& params) {
  // Building under the lock serializes first construction per key (the
  // "build once per distinct params" guarantee a parallel sweep wants);
  // hits only pay a map lookup.
  std::lock_guard<std::mutex> lock(matrix_cache_mutex());
  auto& map = matrix_cache_map();
  const MatrixKey key = matrix_key(params);
  // Cache traffic counts unconditionally (cold path; tests assert exact
  // deltas through the registry with obs export on or off).
  static obs::Counter& hits =
      obs::Registry::instance().counter("cache.transition_matrix.hits");
  static obs::Counter& misses =
      obs::Registry::instance().counter("cache.transition_matrix.misses");
  const auto it = map.find(key);
  if (it != map.end()) {
    hits.add();
    return it->second;
  }
  misses.add();
  auto matrix = std::make_shared<const TransitionMatrix>(params);
  // Band occupancy of the most recently built kernel (gauges: last build
  // wins; a sweep over one parameter set sees its own kernel's numbers).
  obs::Registry::instance()
      .gauge("filter.band.mean_bandwidth")
      .set(matrix->mean_bandwidth());
  obs::Registry::instance()
      .gauge("filter.band.max_bandwidth")
      .set(static_cast<double>(matrix->max_bandwidth()));
  obs::Registry::instance()
      .gauge("filter.band.occupancy")
      .set(matrix->mean_bandwidth() /
           static_cast<double>(matrix->num_bins()));
  map.emplace(key, matrix);
  return matrix;
}

RateDistribution::RateDistribution(int num_bins)
    : p_(static_cast<std::size_t>(num_bins)) {
  assert(num_bins >= 2);
  reset_uniform();
}

void RateDistribution::reset_uniform() {
  std::fill(p_.begin(), p_.end(), 1.0 / static_cast<double>(p_.size()));
}

bool RateDistribution::is_normalized(double tol) const {
  const double sum = std::accumulate(p_.begin(), p_.end(), 0.0);
  return std::abs(sum - 1.0) <= tol;
}

void RateDistribution::normalize() {
  const double sum = std::accumulate(p_.begin(), p_.end(), 0.0);
  assert(sum > 0.0);
  for (double& v : p_) v /= sum;
}

double RateDistribution::mean(const SproutParams& params) const {
  double m = 0.0;
  for (int i = 0; i < num_bins(); ++i) m += p_[i] * params.bin_rate(i);
  return m;
}

double RateDistribution::quantile(const SproutParams& params,
                                  double percentile) const {
  assert(percentile >= 0.0 && percentile <= 100.0);
  const double target = percentile / 100.0;
  double cum = 0.0;
  for (int i = 0; i < num_bins(); ++i) {
    cum += p_[i];
    if (cum >= target) return params.bin_rate(i);
  }
  return params.bin_rate(num_bins() - 1);
}

TransitionMatrix::TransitionMatrix(const SproutParams& params)
    : n_(static_cast<std::size_t>(params.num_bins)), m_(n_ * n_, 0.0) {
  const double s =
      params.sigma_pps_per_sqrt_s * std::sqrt(params.tick_seconds());
  assert(s > 0.0);
  assert(params.band_epsilon >= 0.0 && params.band_epsilon < 0.1);
  const double bin_width = params.bin_rate(1) - params.bin_rate(0);

  // Gaussian step discretized over bin cells, with a REFLECTING boundary at
  // zero: rates cannot be negative, and the distinguished outage state must
  // not act as a probability sink under pure diffusion (its cell is only
  // ~bin_width/2 wide while the per-tick σ is ~7 bins; absorbing the whole
  // sub-zero tail there would drag any unobserved belief into "outage").
  // Mass that would land below zero is folded back to +|x|.  The top cell
  // absorbs the upper tail (the paper caps rates at 1000 packets/s).
  auto gaussian_row = [&](double center, double* row) {
    for (std::size_t j = 0; j < n_; ++j) {
      const double lo =
          j == 0 ? 0.0 : params.bin_rate(static_cast<int>(j)) - bin_width / 2;
      const double hi = j + 1 == n_
                            ? 1e30
                            : params.bin_rate(static_cast<int>(j)) + bin_width / 2;
      const double direct = phi((hi - center) / s) - phi((lo - center) / s);
      const double reflected = phi((-lo - center) / s) - phi((-hi - center) / s);
      row[j] = direct + reflected;
    }
  };

  for (std::size_t i = 1; i < n_; ++i) {
    gaussian_row(params.bin_rate(static_cast<int>(i)), &m_[i * n_]);
  }

  // Outage row (λ = 0): sticky.  With probability exp(-λz τ) the outage
  // holds (stay in bin 0); otherwise the rate escapes into λ > 0, spread as
  // the positive half of the Brownian step (renormalized), so the expected
  // outage duration is exactly 1/λz.
  const double escape = 1.0 - std::exp(-params.outage_escape_rate_per_s *
                                       params.tick_seconds());
  std::vector<double> esc_row(n_, 0.0);
  gaussian_row(0.0, esc_row.data());
  esc_row[0] = 0.0;  // escaped: must leave the outage bin
  const double esc_sum = std::accumulate(esc_row.begin(), esc_row.end(), 0.0);
  assert(esc_sum > 0.0);
  m_[0] = 1.0 - escape;
  for (std::size_t j = 1; j < n_; ++j) {
    m_[j] = escape * esc_row[j] / esc_sum;
  }

  // Each row must be a probability distribution.
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = m_.data() + i * n_;
    double sum = std::accumulate(row, row + n_, 0.0);
    assert(std::abs(sum - 1.0) < 1e-9);
    for (std::size_t j = 0; j < n_; ++j) m_[i * n_ + j] /= sum;
  }

  build_band(params.band_epsilon);
}

void TransitionMatrix::build_band(double epsilon) {
  band_epsilon_ = epsilon;
  band_lo_.resize(n_);
  band_hi_.resize(n_);
  band_off_.resize(n_ + 1);
  std::size_t packed = 0;
  std::int64_t total_width = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = &m_[i * n_];
    // Greedy tail trim: drop the smaller end entry while the total dropped
    // mass stays within ε.  Rows are unimodal up to the outage column, so
    // end entries are the smallest; trimming them first loses the least.
    std::size_t lo = 0;
    std::size_t hi = n_;
    double dropped = 0.0;
    while (hi - lo > 1) {
      const double left = row[lo];
      const double right = row[hi - 1];
      const double smaller = std::min(left, right);
      if (dropped + smaller > epsilon) break;
      dropped += smaller;
      if (left <= right) {
        ++lo;
      } else {
        --hi;
      }
    }
    band_lo_[i] = static_cast<int>(lo);
    band_hi_[i] = static_cast<int>(hi);
    band_off_[i] = packed;
    packed += hi - lo;
    total_width += static_cast<std::int64_t>(hi - lo);
  }
  band_off_[n_] = packed;
  band_.resize(packed);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = &m_[i * n_];
    const auto lo = static_cast<std::size_t>(band_lo_[i]);
    const auto hi = static_cast<std::size_t>(band_hi_[i]);
    // Renormalize the retained span so every band row is still a
    // probability distribution (evolution must conserve mass exactly, not
    // leak ε per tick).  A trim that only removed EXACT zeros (always the
    // case at ε = 0: far Gaussian tails underflow) must copy the row
    // verbatim — dividing by a summed "kept" that is not exactly 1.0 would
    // perturb bits the dense path keeps.
    double dropped = 0.0;
    for (std::size_t j = 0; j < lo; ++j) dropped += row[j];
    for (std::size_t j = hi; j < n_; ++j) dropped += row[j];
    double* out = &band_[band_off_[i]];
    if (dropped == 0.0) {
      for (std::size_t j = lo; j < hi; ++j) out[j - lo] = row[j];
    } else {
      double kept = 0.0;
      for (std::size_t j = lo; j < hi; ++j) kept += row[j];
      assert(kept > 0.0);
      for (std::size_t j = lo; j < hi; ++j) out[j - lo] = row[j] / kept;
    }
    max_bandwidth_ = std::max(max_bandwidth_, static_cast<int>(hi - lo));
  }
  mean_bandwidth_ =
      static_cast<double>(total_width) / static_cast<double>(n_);
}

namespace {

// Thread-local scratch keeps the matrix itself immutable, so one cached
// instance is safely shared across concurrent sweep cells.
std::vector<double>& evolve_scratch(std::size_t n) {
  thread_local std::vector<double> scratch;
  scratch.assign(n, 0.0);
  return scratch;
}

// Per-pass axpy-dispatch tally.  The wrappers in util/kernels.cc carry no
// instrumentation (they are the hottest call sites in the tree), so each
// evolve pass counts its own kernel invocations in a local and flushes once
// here when obs is on.
void tally_axpy_calls(std::int64_t calls) {
  if (calls == 0) return;
  static obs::Counter& scalar =
      obs::Registry::instance().counter("kernels.axpy.scalar");
  static obs::Counter& simd =
      obs::Registry::instance().counter("kernels.axpy.avx2");
  (std::strcmp(kernels::active_backend(), "scalar") == 0 ? scalar : simd)
      .add(calls);
}

}  // namespace

void TransitionMatrix::evolve(RateDistribution& dist) const {
  assert(static_cast<std::size_t>(dist.num_bins()) == n_);
  if (obs::enabled()) {
    static obs::Counter& evolves =
        obs::Registry::instance().counter("filter.evolve.banded");
    evolves.add();
  }
  std::vector<double>& scratch = evolve_scratch(n_);
  const std::vector<double>& p = dist.probabilities();
  std::int64_t axpy_calls = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double pi = p[i];
    if (pi <= 0.0) continue;
    const auto lo = static_cast<std::size_t>(band_lo_[i]);
    const auto width = static_cast<std::size_t>(band_hi_[i]) - lo;
    kernels::axpy(scratch.data() + lo, &band_[band_off_[i]], pi, width);
    ++axpy_calls;
  }
  if (obs::enabled()) tally_axpy_calls(axpy_calls);
  dist.mutable_probabilities() = scratch;
}

void TransitionMatrix::evolve_dense(RateDistribution& dist) const {
  assert(static_cast<std::size_t>(dist.num_bins()) == n_);
  if (obs::enabled()) {
    static obs::Counter& evolves =
        obs::Registry::instance().counter("filter.evolve.dense");
    evolves.add();
  }
  std::vector<double>& scratch = evolve_scratch(n_);
  const std::vector<double>& p = dist.probabilities();
  for (std::size_t i = 0; i < n_; ++i) {
    const double pi = p[i];
    if (pi <= 0.0) continue;
    const double* row = &m_[i * n_];
    for (std::size_t j = 0; j < n_; ++j) {
      scratch[j] += pi * row[j];
    }
  }
  dist.mutable_probabilities() = scratch;
}

SproutBayesFilter::SproutBayesFilter(const SproutParams& params)
    : params_(params),
      transitions_(TransitionMatrixCache::get(params)),
      dist_(params.num_bins),
      log_prior_(static_cast<std::size_t>(params.num_bins)) {}

void SproutBayesFilter::observe(int packets, double fraction) {
  observe_impl(packets, fraction, /*censored=*/false);
}

void SproutBayesFilter::observe_at_least(int packets, double fraction) {
  observe_impl(packets, fraction, /*censored=*/true);
}

void SproutBayesFilter::observe_impl(int packets, double fraction,
                                     bool censored) {
  assert(packets >= 0);
  assert(fraction > 0.0 && fraction <= 1.0);
  if (obs::enabled()) {
    static obs::Counter& observes =
        obs::Registry::instance().counter("filter.observe");
    static obs::Counter& censored_observes =
        obs::Registry::instance().counter("filter.observe.censored");
    observes.add();
    if (censored) censored_observes.add();
  }
  const double tau = params_.tick_seconds() * fraction;
  std::vector<double>& p = dist_.mutable_probabilities();
  // Log-space update avoids underflow when the observation is far from a
  // bin's mean (e.g. 150 packets against λτ = 0.1).
  double max_w = kNegInf;
  for (int i = 0; i < dist_.num_bins(); ++i) {
    const double prior = p[static_cast<std::size_t>(i)];
    if (prior <= 0.0) {
      log_prior_[static_cast<std::size_t>(i)] = kNegInf;
      continue;
    }
    const double mean = params_.bin_rate(i) * tau;
    // A censored tick ("the queue went empty: at least k could have been
    // delivered") uses the survival function, which only rules out rates
    // too slow to have produced k — it never caps the rate from above.
    const double loglik = censored ? poisson_log_survival(packets, mean)
                                   : poisson_log_pmf(packets, mean);
    const double w = std::log(prior) + loglik;
    log_prior_[static_cast<std::size_t>(i)] = w;
    max_w = std::max(max_w, w);
  }
  // Degenerate posterior (can only happen from a zero-probability state):
  // fall back to the uniform prior rather than divide by zero.
  if (max_w == kNegInf) {
    dist_.reset_uniform();
    return;
  }
  for (int i = 0; i < dist_.num_bins(); ++i) {
    const double w = log_prior_[static_cast<std::size_t>(i)];
    p[static_cast<std::size_t>(i)] = w == kNegInf ? 0.0 : std::exp(w - max_w);
  }
  dist_.normalize();
}

}  // namespace sprout
