// The cautious packet-delivery forecast (§3.3).
//
// Given the posterior over λ, the receiver predicts — at a configurable
// confidence, 95% by default — a lower bound on the cumulative number of
// packets the link will deliver at each of the next `forecast_horizon_ticks`
// ticks.  Per the paper: the distribution is evolved forward WITHOUT
// observation to each tick, and the forecast takes the (100-confidence)th
// percentile of what that evolved belief predicts.
//
// The model is fixed and the evolution is linear, so the evolution is
// folded into tables built once per parameter set.  With B the banded
// one-tick kernel (TransitionMatrix::evolve) and p0 the current posterior,
// the CDF at row k of the h-tick prediction is the dot product p0 · T_h[k]:
//  * rate mode (the default): T_h[k][i] = Σ_{j≤k} (B^h)[i][j], the CDF of
//    the evolved rate posterior at bin k; the forecast is the cautious rate
//    times the horizon;
//  * count-noise mode (SproutParams::count_noise_in_forecast):
//    T_h[n][i] = Σ_j (B^h)[i][j] · P[Poisson(λ_j·h·τ) ≤ n], the λ-mixture
//    CDF of cumulative deliveries at count n.
// The runtime work per horizon is therefore a search over rows (a
// bisection at horizon 1, then a gallop from the previous horizon's row),
// each probe one weighted sum over the λ bins of p0's support — the paper's
// "only work at runtime is to take a weighted sum over each λ" — with no
// copy and no evolve.  The runtime-evolve forecast these tables fold
// survives in tests/core_forecaster_test.cc as their oracle.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/params.h"
#include "core/rate_model.h"

namespace sprout {

// The folded tables of one parameter set, immutable once built.  Each
// horizon's table is row-major over rows k, each row contiguous over the
// current bin i, so a CDF probe is one contiguous dot product against the
// posterior (util/kernels.h).  Memory: 8 · H · rows · num_bins bytes, with
// rows = num_bins in rate mode (4 MiB at the defaults) and max_count + 1 in
// count-noise mode (8.4 MB), plus 8 · H · num_bins bytes of row masses.
class ForecastTables {
 public:
  // Folds `kernel`, the TransitionMatrix of `params`, into the tables.
  ForecastTables(const SproutParams& params, const TransitionMatrix& kernel);

  // Rows per horizon: num_bins (rate mode) or max_count + 1 (count noise).
  [[nodiscard]] int rows() const { return rows_; }
  // T_h[k], over the num_bins current bins (horizon h is 1-based).
  [[nodiscard]] const double* row(int horizon, int k) const {
    return &cdf_[(static_cast<std::size_t>(horizon - 1) *
                      static_cast<std::size_t>(rows_) +
                  static_cast<std::size_t>(k)) *
                 bins_];
  }
  // Σ_j (B^h)[i][j]: the mass the h-tick evolution keeps from bin i, so
  // p0 · mass(h) is the evolved posterior's total (≈ 1; a mixture of
  // posteriors normalizes by it).
  [[nodiscard]] const double* mass(int horizon) const {
    return &mass_[static_cast<std::size_t>(horizon - 1) * bins_];
  }

 private:
  std::size_t bins_;
  int rows_;
  std::vector<double> cdf_;   // [h-1][k][i]
  std::vector<double> mass_;  // [h-1][i]
};

// Process-wide cache of the forecast tables, keyed by the SproutParams
// fields that determine them: bins, rate grid, tick, horizon, the kernel's
// σ, λz and band ε, and (count-noise mode only) max_count.  Confidence is
// applied at query time, so e.g. a Figure-9 confidence sweep shares one
// table set.  The tables are immutable once built and safely shared across
// endpoints and threads, so a sweep of N simulations with the same
// parameters builds them once instead of 2N times (each run has at least a
// sender-side and a receiver-side forecaster).  Reuse is observable through
// the obs registry counters "cache.forecast_tables.hits" / ".misses"
// (src/obs/metrics.h).
class ForecastTableCache {
 public:
  // Returns the table set for `params`, building it on first use from the
  // TransitionMatrixCache's kernel (looked up first, outside this cache's
  // lock).  Thread-safe; a given key is only ever built once per process.
  [[nodiscard]] static std::shared_ptr<const ForecastTables> get(
      const SproutParams& params);
};

// A cumulative delivery forecast: entry h-1 is the cautious cumulative
// byte count deliverable within (h) ticks of `origin`.
struct DeliveryForecast {
  TimePoint origin{};
  Duration tick{};
  std::vector<ByteCount> cumulative_bytes;  // nondecreasing

  [[nodiscard]] int ticks() const {
    return static_cast<int>(cumulative_bytes.size());
  }
  // Cumulative bytes by the END of tick index t (t in [0, ticks()]),
  // where index 0 means "now" (zero bytes).  t beyond the horizon clamps.
  [[nodiscard]] ByteCount cumulative_at(int t) const;
};

// One weighted posterior of a forecast, with the tables of its own kernel.
struct ForecastTerm {
  double weight = 1.0;
  const RateDistribution* posterior = nullptr;
  const ForecastTables* tables = nullptr;
};

// The forecast of Σ_m weight_m · posterior_m, each evolved under its own
// kernel: per horizon, the smallest row whose CDF reaches the target
// percentile (the last row if none does), mapped to packets and clamped by
// the previous horizon's count (cumulative deliveries cannot decrease).
// `normalize` divides the mixture by its evolved mass first, as a weighted
// model average must; a lone posterior is searched as it stands.  `params`
// supplies everything the terms share: grid, tick, horizon, confidence,
// forecast mode and MTU.
[[nodiscard]] DeliveryForecast folded_forecast(
    const SproutParams& params, std::span<const ForecastTerm> terms,
    bool normalize, TimePoint now);

class DeliveryForecaster {
 public:
  explicit DeliveryForecaster(const SproutParams& params);

  // Produces the forecast for the posterior `current` from the folded
  // tables.  `now` stamps the forecast origin.
  [[nodiscard]] DeliveryForecast forecast(const RateDistribution& current,
                                          TimePoint now) const;

 private:
  SproutParams params_;
  std::shared_ptr<const ForecastTables> tables_;  // cache-shared
};

}  // namespace sprout
