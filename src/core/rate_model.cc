#include "core/rate_model.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
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

namespace {

constexpr std::size_t kTile = 16;  // output columns per kernels::panel16 call

// At most this many counts get likelihood rows (a count past them computes
// directly): 4 MiB at 256 bins, where the defaults need 41 rows.
constexpr int kMaxLikelihoodRows = 1024;

// One tick's Gaussian step from `center`, discretized over the bin cells,
// with a REFLECTING boundary at zero: rates cannot be negative, and the
// distinguished outage state must not act as a probability sink under pure
// diffusion (its cell is only ~bin_width/2 wide while the per-tick σ is ~7
// bins; absorbing the whole sub-zero tail there would drag any unobserved
// belief into "outage").  Mass that would land below zero is folded back to
// +|x|.  The top cell absorbs the upper tail (the paper caps rates at 1000
// packets/s).
void gaussian_row(const SproutParams& params, double center, double* row) {
  const auto n = static_cast<std::size_t>(params.num_bins);
  const double s =
      params.sigma_pps_per_sqrt_s * std::sqrt(params.tick_seconds());
  const double bin_width = params.bin_rate(1) - params.bin_rate(0);
  for (std::size_t j = 0; j < n; ++j) {
    const double lo =
        j == 0 ? 0.0 : params.bin_rate(static_cast<int>(j)) - bin_width / 2;
    const double hi = j + 1 == n
                          ? 1e30
                          : params.bin_rate(static_cast<int>(j)) + bin_width / 2;
    const double direct = phi((hi - center) / s) - phi((lo - center) / s);
    const double reflected = phi((-lo - center) / s) - phi((-hi - center) / s);
    row[j] = direct + reflected;
  }
}

// The exact one-tick kernel, row-major bins × bins: row i is the
// distribution of the next tick's bin given bin i.
std::vector<double> exact_rows(const SproutParams& params) {
  const auto n = static_cast<std::size_t>(params.num_bins);
  std::vector<double> m(n * n, 0.0);
  for (std::size_t i = 1; i < n; ++i) {
    gaussian_row(params, params.bin_rate(static_cast<int>(i)), &m[i * n]);
  }

  // Outage row (λ = 0): sticky.  With probability exp(-λz τ) the outage
  // holds (stay in bin 0); otherwise the rate escapes into λ > 0, spread as
  // the positive half of the Brownian step (renormalized), so the expected
  // outage duration is exactly 1/λz.
  const double escape = 1.0 - std::exp(-params.outage_escape_rate_per_s *
                                       params.tick_seconds());
  const std::vector<double> esc_row = outage_escape_row(params);
  const double esc_sum = std::accumulate(esc_row.begin(), esc_row.end(), 0.0);
  m[0] = 1.0 - escape;
  for (std::size_t j = 1; j < n; ++j) {
    m[j] = escape * esc_row[j] / esc_sum;
  }

  // Each row must be a probability distribution.
  for (std::size_t i = 0; i < n; ++i) {
    double* row = m.data() + i * n;
    const double sum = std::accumulate(row, row + n, 0.0);
    assert(std::abs(sum - 1.0) < 1e-9);
    for (std::size_t j = 0; j < n; ++j) row[j] /= sum;
  }
  return m;
}

// Thread-local scratch keeps the matrices themselves immutable, so one
// cached instance is safely shared across concurrent sweep cells.
std::vector<double>& evolve_scratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

}  // namespace

std::vector<double> outage_escape_row(const SproutParams& params) {
  std::vector<double> row(static_cast<std::size_t>(params.num_bins), 0.0);
  gaussian_row(params, 0.0, row.data());
  row[0] = 0.0;  // escaped: must leave the outage bin
  const double sum = std::accumulate(row.begin(), row.end(), 0.0);
  if (!(sum > 0.0)) {
    // Bins too wide against the per-tick step: the row's whole Gaussian
    // mass underflows, and dividing by it would make every posterior NaN.
    throw std::invalid_argument(
        "rate grid too coarse for the rate walk: max_rate_pps " +
        std::to_string(params.max_rate_pps) + " over num_bins " +
        std::to_string(params.num_bins) + " gives bins too wide for sigma " +
        std::to_string(params.sigma_pps_per_sqrt_s) +
        " pps/sqrt(s) (the outage escape row has no mass)");
  }
  return row;
}

TransitionMatrix::TransitionMatrix(const SproutParams& params)
    : n_(static_cast<std::size_t>(params.num_bins)) {
  assert(params.band_epsilon >= 0.0 && params.band_epsilon < 0.1);
  build_band(exact_rows(params), params.band_epsilon);
  build_tiles();
  build_likelihoods(params);
}

void TransitionMatrix::build_band(const std::vector<double>& rows,
                                  double epsilon) {
  band_epsilon_ = epsilon;
  band_lo_.resize(n_);
  band_hi_.resize(n_);
  band_off_.resize(n_ + 1);
  std::size_t packed = 0;
  std::int64_t total_width = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = &rows[i * n_];
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
    const double* row = &rows[i * n_];
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

void TransitionMatrix::build_tiles() {
  tiles_.resize((n_ + kTile - 1) / kTile);
  std::size_t offset = 0;
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const std::size_t c0 = t * kTile;
    // The rows whose band [lo, hi) overlaps [c0, c0 + 16); a row between
    // two such rows that misses the block is stored as zeros.
    Tile& tile = tiles_[t];
    tile.row_lo = n_;
    for (std::size_t i = 0; i < n_; ++i) {
      const auto lo = static_cast<std::size_t>(band_lo_[i]);
      const auto hi = static_cast<std::size_t>(band_hi_[i]);
      if (lo >= c0 + kTile || hi <= c0) continue;
      tile.row_lo = std::min(tile.row_lo, i);
      tile.row_hi = i + 1;
    }
    tile.row_lo = std::min(tile.row_lo, tile.row_hi);
    tile.offset = offset;
    offset += (tile.row_hi - tile.row_lo) * kTile;
  }
  tile_data_.assign(offset, 0.0);
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const std::size_t c0 = t * kTile;
    const Tile& tile = tiles_[t];
    for (std::size_t i = tile.row_lo; i < tile.row_hi; ++i) {
      const auto lo = static_cast<std::size_t>(band_lo_[i]);
      const auto hi = static_cast<std::size_t>(band_hi_[i]);
      double* out = &tile_data_[tile.offset + (i - tile.row_lo) * kTile];
      for (std::size_t j = std::max(lo, c0); j < std::min(hi, c0 + kTile);
           ++j) {
        out[j - c0] = band_[band_off_[i] + (j - lo)];
      }
    }
  }
}

void TransitionMatrix::build_likelihoods(const SproutParams& params) {
  // Counts up to twice the top bin's mean per tick, and one more: a
  // link-limited tick past that is far in the top bin's tail.  A spec's
  // rate grid is unbounded, so the rows stop at kMaxLikelihoodRows.
  const double tau = params.tick_seconds();
  likelihood_rows_ = static_cast<int>(
      std::min(2.0 * std::ceil(params.max_rate_pps * tau) + 1.0,
               static_cast<double>(kMaxLikelihoodRows)));
  const auto rows = static_cast<std::size_t>(likelihood_rows_);
  log_pmf_.assign(rows * n_, kNegInf);
  log_survival_.assign(rows * n_, kNegInf);
  for (std::size_t i = 0; i < n_; ++i) {
    log_survival_[i] = 0.0;  // P[X ≥ 0] = 1
    const double mean = params.bin_rate(static_cast<int>(i)) * tau;
    if (mean == 0.0) {
      log_pmf_[i] = 0.0;  // the outage bin delivers nothing, surely
      continue;
    }
    // The arithmetic of poisson_log_pmf and poisson_log_survival, with the
    // per-bin log(mean) and poisson_cdf's forward recurrence shared across
    // counts: every entry is bit-equal to the direct call.
    const double log_mean = std::log(mean);
    double term = std::exp(-mean);
    double sum = term;  // P[X ≤ k − 1] before clamping
    for (std::size_t k = 0; k < rows; ++k) {
      const int count = static_cast<int>(k);
      log_pmf_[k * n_ + i] =
          static_cast<double>(count) * log_mean - mean - log_factorial(count);
      if (k == 0) continue;
      if (k >= 2) {
        term *= mean / static_cast<double>(k - 1);
        sum += term;
      }
      const double below = std::min(sum, 1.0);
      log_survival_[k * n_ + i] = below < 0.999
                                      ? std::log1p(-below)
                                      : poisson_log_deep_tail(count, mean);
    }
  }
}

void TransitionMatrix::evolve(RateDistribution& dist) const {
  assert(static_cast<std::size_t>(dist.num_bins()) == n_);
  if (obs::enabled()) {
    static obs::Counter& evolves =
        obs::Registry::instance().counter("filter.evolve.banded");
    evolves.add();
  }
  std::vector<double>& p = dist.mutable_probabilities();
  // Rows outside the posterior's nonzero support add nothing; inside it, a
  // zero p_i or a zero-padded entry adds an exact +0.0.
  std::size_t lo = 0;
  std::size_t hi = n_;
  while (lo < hi && p[lo] <= 0.0) ++lo;
  while (hi > lo && p[hi - 1] <= 0.0) --hi;
  std::vector<double>& scratch = evolve_scratch();
  scratch.resize(tiles_.size() * kTile);
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const Tile& tile = tiles_[t];
    const std::size_t r0 = std::max(tile.row_lo, lo);
    const std::size_t r1 = std::min(tile.row_hi, hi);
    double* out = &scratch[t * kTile];
    if (r0 >= r1) {
      std::fill_n(out, kTile, 0.0);
      continue;
    }
    kernels::panel16(out, &p[r0],
                     &tile_data_[tile.offset + (r0 - tile.row_lo) * kTile],
                     kTile, r1 - r0);
  }
  std::copy_n(scratch.begin(), n_, p.begin());
}

DenseTransitionMatrix::DenseTransitionMatrix(const SproutParams& params)
    : n_(static_cast<std::size_t>(params.num_bins)), m_(exact_rows(params)) {}

void DenseTransitionMatrix::evolve(RateDistribution& dist) const {
  assert(static_cast<std::size_t>(dist.num_bins()) == n_);
  std::vector<double>& scratch = evolve_scratch();
  scratch.assign(n_, 0.0);
  const std::vector<double>& p = dist.probabilities();
  for (std::size_t i = 0; i < n_; ++i) {
    const double pi = p[i];
    if (pi <= 0.0) continue;
    const double* row = &m_[i * n_];
    for (std::size_t j = 0; j < n_; ++j) {
      scratch[j] += pi * row[j];
    }
  }
  std::copy_n(scratch.begin(), n_, dist.mutable_probabilities().begin());
}

SproutBayesFilter::SproutBayesFilter(const SproutParams& params)
    : params_(params),
      transitions_(TransitionMatrixCache::get(params)),
      dist_(params.num_bins),
      log_prior_(static_cast<std::size_t>(params.num_bins)) {}

void SproutBayesFilter::observe(int packets) {
  observe_impl(packets, /*censored=*/false);
}

void SproutBayesFilter::observe_at_least(int packets) {
  observe_impl(packets, /*censored=*/true);
}

void SproutBayesFilter::observe_impl(int packets, bool censored) {
  assert(packets >= 0);
  if (obs::enabled()) {
    static obs::Counter& observes =
        obs::Registry::instance().counter("filter.observe");
    static obs::Counter& censored_observes =
        obs::Registry::instance().counter("filter.observe.censored");
    observes.add();
    if (censored) censored_observes.add();
  }
  // A censored tick ("the queue went empty: at least k could have been
  // delivered") uses the survival function, which only rules out rates too
  // slow to have produced k — it never caps the rate from above.  A count
  // past the tabled rows computes the same values directly.
  const double* tabled = transitions_->log_likelihood_row(packets, censored);
  const double tau = params_.tick_seconds();
  const auto loglik = [&](int i) {
    if (tabled != nullptr) return tabled[i];
    const double mean = params_.bin_rate(i) * tau;
    return censored ? poisson_log_survival(packets, mean)
                    : poisson_log_pmf(packets, mean);
  };
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
    const double w = std::log(prior) + loglik(i);
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
