// Bayesian inference over the link's hidden packet-delivery rate (§3.1-3.2).
//
// The link is modeled as a doubly-stochastic Poisson process: the rate λ
// wanders in Brownian motion (noise power σ) except that λ = 0 (outage) is
// sticky, escaped at rate λz.  λ is discretized into `num_bins` values and
// the posterior is a probability vector updated every tick:
//   1. evolve:    p <- p * TransitionMatrix   (precomputed Gaussian kernel)
//   2. observe:   p_i *= Poisson(k; λ_i τ)    (done in log space)
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

// Precomputed one-tick evolution kernel.  Immutable after construction
// (evolve() works through a thread-local scratch buffer), so one matrix is
// safely shared across filters, forecast-table builds and sweep threads — see
// TransitionMatrixCache below.
//
// Two evolution paths are built from the same Gaussian rows:
//  * banded: per-row [lo, hi) extents retaining ≥ 1−ε of the row's mass
//    (ε = SproutParams::band_epsilon), packed contiguously and
//    renormalized, evolved in O(bins · bandwidth) with vectorized
//    accumulation (util/kernels.h) — the one evolve every filter runs, and
//    the kernel the forecaster's tables fold (core/forecaster.h);
//  * dense: the full bins² pass, bit-for-bit the historical arithmetic,
//    kept as the kernel-level oracle for tests and benches.
// ε = 0 trims only entries that are EXACTLY zero (underflowed Gaussian
// tails) and skips renormalization, making the banded path bit-identical
// to the dense one — so band_epsilon = 0 is the exact-reference setting.
class TransitionMatrix {
 public:
  explicit TransitionMatrix(const SproutParams& params);

  // p <- p * M through the banded kernel (in place via thread-local
  // scratch).
  void evolve(RateDistribution& dist) const;

  // p <- p * M through the full dense matrix: the exact-reference path.
  void evolve_dense(RateDistribution& dist) const;

  [[nodiscard]] double entry(int from, int to) const {
    return m_[static_cast<std::size_t>(from) * n_ + static_cast<std::size_t>(to)];
  }
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

 private:
  void build_band(double epsilon);

  std::size_t n_;
  std::vector<double> m_;  // row-major: m_[from][to], exact rows
  // Packed band: row i's entries for columns [band_lo_[i], band_hi_[i])
  // live at band_[band_off_[i]...], renormalized to unit row mass.
  std::vector<double> band_;
  std::vector<std::size_t> band_off_;
  std::vector<int> band_lo_;
  std::vector<int> band_hi_;
  int max_bandwidth_ = 0;
  double mean_bandwidth_ = 0.0;
  double band_epsilon_ = 0.0;
};

// Process-wide cache of transition matrices, keyed by the SproutParams
// fields that determine the kernel (bins, rate grid, tick, σ, λz, band ε) —
// the same pattern as the forecaster's ForecastTableCache.  Building a
// matrix is ~num_bins² Gaussian integrals and every simulation needs it at
// least three times (sender filter, receiver filter, forecast-table build);
// the cache makes that one build per distinct parameter set per process.
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

  // Steps 2+3: Bayesian update on `packets` observed during a tick covering
  // `fraction` of the tick length (1.0 = full tick), then renormalize.
  void observe(int packets, double fraction = 1.0);

  // Censored update for a SENDER-LIMITED tick: the link delivered everything
  // offered, so the count is only a lower bound on what was deliverable.
  // Uses P[X >= packets] instead of P[X = packets].
  void observe_at_least(int packets, double fraction = 1.0);

  [[nodiscard]] const RateDistribution& distribution() const { return dist_; }
  [[nodiscard]] const SproutParams& params() const { return params_; }
  [[nodiscard]] double mean_rate_pps() const { return dist_.mean(params_); }

  void reset() { dist_.reset_uniform(); }

 private:
  void observe_impl(int packets, double fraction, bool censored);

  SproutParams params_;
  std::shared_ptr<const TransitionMatrix> transitions_;  // cache-shared
  RateDistribution dist_;
  std::vector<double> log_prior_;  // scratch for the log-space update
};

}  // namespace sprout
