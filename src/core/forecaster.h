// The cautious packet-delivery forecast (§3.3).
//
// Given the posterior over λ, the receiver predicts — at a configurable
// confidence, 95% by default — a lower bound on the cumulative number of
// packets the link will deliver at each of the next `forecast_horizon_ticks`
// ticks.  Per the paper: the distribution is evolved forward WITHOUT
// observation to each tick, and at each tick the cumulative-delivery
// distribution is the λ-mixture of Poisson(λ·h·τ) laws; the forecast takes
// its (100-confidence)th percentile.  Poisson CDF tables for every
// (bin, horizon) pair are precomputed at startup, so the runtime cost per
// horizon is a weighted sum over bins inside a binary search (the paper's
// "only work at runtime is to take a weighted sum over each λ").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.h"
#include "core/rate_model.h"

namespace sprout {

// Process-wide cache of the precomputed Poisson CDF tables, keyed by the
// SproutParams fields that determine them (bins, rate grid, tick, horizon,
// table size).  The tables are immutable once built and safely shared
// across endpoints and threads, so a sweep of N simulations with the same
// parameters builds the tables once instead of 2N times (each run has at
// least a sender-side and a receiver-side forecaster).  Reuse is observable
// through the obs registry counters "cache.forecast_tables.hits" /
// ".misses" (src/obs/metrics.h).
class ForecastTableCache {
 public:
  // cdf[h-1][n * num_bins + bin] = P[Poisson(λ_bin · h·τ) <= n]
  //
  // Count-major ("transposed") layout: the mixture CDF at a fixed count n
  // is a weighted sum over ALL bins, so the hot access pattern is one
  // contiguous row per CDF probe — a straight dot product against the
  // posterior vector (util/kernels.h) instead of a bins-strided gather.
  using Tables = std::vector<std::vector<double>>;

  // Returns the table set for `params`, building it on first use.
  // Thread-safe; a given key is only ever built once per process.
  [[nodiscard]] static std::shared_ptr<const Tables> get(
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

class DeliveryForecaster {
 public:
  explicit DeliveryForecaster(const SproutParams& params);

  // Produces the forecast for the posterior `current`, evolving a private
  // copy forward tick by tick.  `now` stamps the forecast origin.
  [[nodiscard]] DeliveryForecast forecast(const RateDistribution& current,
                                          TimePoint now) const;

  // The (100-confidence)th percentile of the cumulative-delivery mixture at
  // horizon h (1-based), in packets.  Exposed for tests and ablations.
  //
  // `floor` is the monotone-floor hint: a count already known to lower-bound
  // nothing below the answer's use site (the previous horizon's forecast —
  // cumulative deliveries cannot decrease with a longer horizon).  One CDF
  // probe at the floor both answers "is the quantile at or below the floor"
  // (return the floor: the caller clamps there anyway) and establishes the
  // lower bracket of the binary search, so no endpoint is evaluated twice.
  // floor = 0 recovers the plain quantile.
  [[nodiscard]] int quantile_packets(const RateDistribution& dist, int horizon,
                                     int floor = 0) const;

 private:
  [[nodiscard]] double mixture_cdf(const RateDistribution& dist, int horizon,
                                   int count) const;

  SproutParams params_;
  // Shared, immutable kernel and CDF tables from the process-wide caches.
  std::shared_ptr<const TransitionMatrix> transitions_;
  std::shared_ptr<const ForecastTableCache::Tables> cdf_;
};

}  // namespace sprout
