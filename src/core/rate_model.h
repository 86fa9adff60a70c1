// Bayesian inference over the link's hidden packet-delivery rate (§3.1-3.2).
//
// The link is modeled as a doubly-stochastic Poisson process: the rate λ
// wanders in Brownian motion (noise power σ) except that λ = 0 (outage) is
// sticky, escaped at rate λz.  λ is discretized into `num_bins` values and
// the posterior is a probability vector updated every tick:
//   1. evolve:    p <- p * TransitionMatrix   (precomputed Gaussian kernel)
//   2. observe:   p_i *= Poisson(k; λ_i τ)    (done in log space, from
//                 likelihood rows tabled with the matrix)
//   3. normalize: p /= Σ p
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/params.h"

namespace sprout {

// Discrete probability distribution over the rate bins.
class RateDistribution {
 public:
  explicit RateDistribution(int num_bins);

  // Uniform prior ("at program startup, all values of λ equally probable").
  void reset_uniform();

  [[nodiscard]] int num_bins() const { return static_cast<int>(p_.size()); }
  [[nodiscard]] double probability(int i) const { return p_[i]; }
  [[nodiscard]] const std::vector<double>& probabilities() const { return p_; }
  [[nodiscard]] std::vector<double>& mutable_probabilities() { return p_; }

  // Distribution sanity: sums to one within tolerance.
  [[nodiscard]] bool is_normalized(double tol = 1e-9) const;
  void normalize();

  // Posterior summaries (rates in packets/s given the params' bin mapping).
  [[nodiscard]] double mean(const SproutParams& params) const;
  [[nodiscard]] double quantile(const SproutParams& params, double percentile) const;

 private:
  std::vector<double> p_;
};

// The outage state's escape row: the positive half of one tick's Brownian
// step from rate 0, over bins 1.. (bin 0 holds 0), not yet normalized.
// Throws std::invalid_argument when the rate grid is too coarse for the
// rate walk — bins so wide against the per-tick step (or a zero sigma)
// that the row keeps no mass, which would make every posterior NaN.  Both
// kernels below throw it when built; the spec reader calls it so that a
// bad grid fails at lint time.
[[nodiscard]] std::vector<double> outage_escape_row(const SproutParams& params);

// Precomputed one-tick evolution kernel, with the observation likelihoods
// the filter reads.  Immutable after construction (evolve() works through a
// thread-local scratch buffer), so one matrix is safely shared across
// filters, forecast-table builds and sweep threads — see
// TransitionMatrixCache below.
//
// The exact Gaussian rows (DenseTransitionMatrix keeps them whole) are
// built once, packed two ways, and freed:
//  * the band: per-row [lo, hi) extents retaining ≥ 1−ε of the row's mass
//    (ε = SproutParams::band_epsilon), packed contiguously and
//    renormalized — the kernel the forecaster's tables fold
//    (core/forecaster.h);
//  * the tiles: the same band entries regrouped per 16-column output
//    block, every row whose band touches the block stored zero-padded to
//    the block's 16 columns, so evolve() accumulates each output block in
//    one kernels::panel16 call, in O(bins · bandwidth).
// ε = 0 trims only entries that are EXACTLY zero (underflowed Gaussian
// tails) and skips renormalization, making the evolve bit-identical to the
// dense pass — so band_epsilon = 0 is the exact-reference setting.
class TransitionMatrix {
 public:
  explicit TransitionMatrix(const SproutParams& params);

  // p <- p * M through the banded tiles (in place via thread-local
  // scratch).  Each output bin sums the products p_i · M[i][j] in
  // ascending i, bit for bit the row-by-row accumulation over the band.
  void evolve(RateDistribution& dist) const;

  [[nodiscard]] int num_bins() const { return static_cast<int>(n_); }

  // The band: row i's columns [row_extent(i)) and the packed, renormalized
  // weights band_row(i) that evolve() applies to them.  The forecaster
  // folds this exact kernel into its tables; tests, benches and the perf
  // trajectory introspect it.
  [[nodiscard]] std::pair<int, int> row_extent(int row) const {
    return {band_lo_[static_cast<std::size_t>(row)],
            band_hi_[static_cast<std::size_t>(row)]};
  }
  [[nodiscard]] std::span<const double> band_row(int row) const {
    const auto i = static_cast<std::size_t>(row);
    return {band_.data() + band_off_[i], band_off_[i + 1] - band_off_[i]};
  }
  [[nodiscard]] int max_bandwidth() const { return max_bandwidth_; }
  [[nodiscard]] double mean_bandwidth() const { return mean_bandwidth_; }
  [[nodiscard]] double band_epsilon() const { return band_epsilon_; }

  // One tick's observation log-likelihoods over the bins, for a count k
  // below 2·⌈max_rate_pps · τ⌉ + 1 (41 at the defaults; at most 1024):
  // log P[X = k] or, `censored`, log P[X ≥ k], for X ~ Poisson(λ_i τ).  Each entry is
  // bit-equal to poisson_log_pmf / poisson_log_survival (util/poisson.h);
  // nullptr past the last tabled count.
  [[nodiscard]] const double* log_likelihood_row(int count,
                                                 bool censored) const {
    if (count >= likelihood_rows_) return nullptr;
    return (censored ? log_survival_ : log_pmf_).data() +
           static_cast<std::size_t>(count) * n_;
  }

 private:
  void build_band(const std::vector<double>& rows, double epsilon);
  void build_tiles();
  void build_likelihoods(const SproutParams& params);

  std::size_t n_;
  // Packed band: row i's entries for columns [band_lo_[i], band_hi_[i])
  // live at band_[band_off_[i]...], renormalized to unit row mass.
  std::vector<double> band_;
  std::vector<std::size_t> band_off_;
  std::vector<int> band_lo_;
  std::vector<int> band_hi_;
  int max_bandwidth_ = 0;
  double mean_bandwidth_ = 0.0;
  double band_epsilon_ = 0.0;
  // Output block t (columns [16t, 16t + 16)): rows [row_lo, row_hi), each
  // the band's entries in the block's columns, zeros elsewhere, 16 doubles
  // per row from tile_data_[offset].
  struct Tile {
    std::size_t row_lo = 0;
    std::size_t row_hi = 0;
    std::size_t offset = 0;
  };
  std::vector<Tile> tiles_;
  std::vector<double> tile_data_;
  // Observation log-likelihoods, count-major: [k][i].
  int likelihood_rows_ = 0;
  std::vector<double> log_pmf_;
  std::vector<double> log_survival_;
};

// The exact one-tick kernel as dense rows: the rows TransitionMatrix packs
// its band from, kept whole.  The reference the banded evolve is checked
// and timed against (tests, perf_trajectory); the simulator never builds
// one.
class DenseTransitionMatrix {
 public:
  explicit DenseTransitionMatrix(const SproutParams& params);

  // p <- p * M over all bins² entries: the historical arithmetic.
  void evolve(RateDistribution& dist) const;

  [[nodiscard]] double entry(int from, int to) const {
    return m_[static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to)];
  }

 private:
  std::size_t n_;
  std::vector<double> m_;  // row-major: m_[from][to]
};

// Process-wide cache of transition matrices, keyed by the SproutParams
// fields that determine the kernel (bins, rate grid, tick, σ, λz, band ε) —
// the same pattern as the forecaster's ForecastTableCache.  Building a
// matrix is ~num_bins² Gaussian integrals plus the likelihood rows, and
// every simulation needs it at least three times (sender filter, receiver
// filter, forecast-table build); the cache makes that one build per
// distinct parameter set per process.
// Reuse is observable through the obs registry counters
// "cache.transition_matrix.hits" / ".misses" (src/obs/metrics.h).
class TransitionMatrixCache {
 public:
  // Returns the matrix for `params`, building it on first use.
  // Thread-safe; a given key is only ever built once per process.
  [[nodiscard]] static std::shared_ptr<const TransitionMatrix> get(
      const SproutParams& params);
};

// The full filter: evolve / observe / normalize.
class SproutBayesFilter {
 public:
  explicit SproutBayesFilter(const SproutParams& params);

  // Step 1: Brownian evolution across one tick.
  void evolve() { transitions_->evolve(dist_); }

  // Steps 2+3: Bayesian update on `packets` observed during one tick, then
  // renormalize.  The likelihoods come from the kernel's tabled rows.
  void observe(int packets);

  // Censored update for a SENDER-LIMITED tick: the link delivered everything
  // offered, so the count is only a lower bound on what was deliverable.
  // Uses P[X >= packets] instead of P[X = packets].
  void observe_at_least(int packets);

  [[nodiscard]] const RateDistribution& distribution() const { return dist_; }
  [[nodiscard]] const SproutParams& params() const { return params_; }
  [[nodiscard]] double mean_rate_pps() const { return dist_.mean(params_); }

  void reset() { dist_.reset_uniform(); }

 private:
  void observe_impl(int packets, bool censored);

  SproutParams params_;
  std::shared_ptr<const TransitionMatrix> transitions_;  // cache-shared
  RateDistribution dist_;
  std::vector<double> log_prior_;  // scratch for the log-space update
};

}  // namespace sprout
