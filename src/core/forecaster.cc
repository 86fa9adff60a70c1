#include "core/forecaster.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>

#include "obs/metrics.h"
#include "util/kernels.h"
#include "util/poisson.h"

namespace sprout {

namespace {

// The SproutParams fields the CDF tables depend on.  Confidence, σ and λz
// do NOT appear: the percentile is applied at query time and the transition
// kernel is separate, so e.g. a Figure-9 confidence sweep shares one table.
using TableKey = std::tuple<int, double, std::int64_t, int, int>;

TableKey table_key(const SproutParams& params) {
  return {params.num_bins, params.max_rate_pps, params.tick.count(),
          params.forecast_horizon_ticks, params.max_count};
}

std::shared_ptr<const ForecastTableCache::Tables> build_tables(
    const SproutParams& params) {
  auto tables = std::make_shared<ForecastTableCache::Tables>();
  const int counts = params.max_count + 1;
  const auto bins = static_cast<std::size_t>(params.num_bins);
  tables->resize(static_cast<std::size_t>(params.forecast_horizon_ticks));
  for (int h = 1; h <= params.forecast_horizon_ticks; ++h) {
    std::vector<double>& table = (*tables)[static_cast<std::size_t>(h - 1)];
    table.resize(bins * static_cast<std::size_t>(counts));
    for (int bin = 0; bin < params.num_bins; ++bin) {
      const double mean =
          params.bin_rate(bin) * params.tick_seconds() * static_cast<double>(h);
      // Forward recurrence over n; identical math to poisson_cdf but filling
      // the whole column in one pass.  Writes stride by num_bins (the table
      // is count-major for the hot read path); the build is a cold path.
      double term = std::exp(-mean);
      double sum = term;
      table[static_cast<std::size_t>(bin)] = std::min(sum, 1.0);
      for (int n = 1; n < counts; ++n) {
        term *= mean / static_cast<double>(n);
        sum += term;
        table[static_cast<std::size_t>(n) * bins +
              static_cast<std::size_t>(bin)] = std::min(sum, 1.0);
      }
    }
  }
  return tables;
}

std::mutex& cache_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<TableKey, std::shared_ptr<const ForecastTableCache::Tables>>&
cache_map() {
  static std::map<TableKey, std::shared_ptr<const ForecastTableCache::Tables>>
      m;
  return m;
}

// Nonzero support [lo, hi) of a posterior.  Interior zeros stay in the dot
// span (they contribute exactly +0.0); only the tails are clipped, which is
// where log-space observations actually zero mass out.
struct Support {
  std::size_t lo;
  std::size_t hi;
};

Support support_of(const std::vector<double>& p) {
  std::size_t lo = 0;
  std::size_t hi = p.size();
  while (lo < hi && p[lo] <= 0.0) ++lo;
  while (hi > lo && p[hi - 1] <= 0.0) --hi;
  return {lo, hi};
}

// Per-query dot-dispatch tally.  The kernels::dot wrapper itself carries no
// instrumentation (hottest call sites), so each CDF query counts its probes
// in a local and flushes here when obs is on.
void tally_dot_calls(std::int64_t calls) {
  if (calls == 0) return;
  static obs::Counter& scalar =
      obs::Registry::instance().counter("kernels.dot.scalar");
  static obs::Counter& simd =
      obs::Registry::instance().counter("kernels.dot.avx2");
  (std::strcmp(kernels::active_backend(), "scalar") == 0 ? scalar : simd)
      .add(calls);
}

}  // namespace

std::shared_ptr<const ForecastTableCache::Tables> ForecastTableCache::get(
    const SproutParams& params) {
  // Building under the lock serializes first construction per key, which is
  // exactly the "build once per distinct SproutParams" guarantee a parallel
  // sweep wants; hits only pay a map lookup.
  std::lock_guard<std::mutex> lock(cache_mutex());
  auto& map = cache_map();
  const TableKey key = table_key(params);
  // Cache traffic counts unconditionally (cold path; tests assert exact
  // deltas through the registry with obs export on or off).
  static obs::Counter& hits =
      obs::Registry::instance().counter("cache.forecast_tables.hits");
  static obs::Counter& misses =
      obs::Registry::instance().counter("cache.forecast_tables.misses");
  const auto it = map.find(key);
  if (it != map.end()) {
    hits.add();
    return it->second;
  }
  misses.add();
  auto tables = build_tables(params);
  map.emplace(key, tables);
  return tables;
}

ByteCount DeliveryForecast::cumulative_at(int t) const {
  if (t <= 0 || cumulative_bytes.empty()) return 0;
  const int idx = std::min(t, ticks()) - 1;
  return cumulative_bytes[static_cast<std::size_t>(idx)];
}

DeliveryForecaster::DeliveryForecaster(const SproutParams& params)
    : params_(params),
      transitions_(TransitionMatrixCache::get(params)),
      cdf_(ForecastTableCache::get(params)) {}

double DeliveryForecaster::mixture_cdf(const RateDistribution& dist,
                                       int horizon, int count) const {
  const auto bins = static_cast<std::size_t>(params_.num_bins);
  const std::vector<double>& table =
      (*cdf_)[static_cast<std::size_t>(horizon - 1)];
  const std::vector<double>& p = dist.probabilities();
  const Support s = support_of(p);
  const double* col = &table[static_cast<std::size_t>(count) * bins];
  if (obs::enabled()) tally_dot_calls(1);
  return kernels::dot(p.data() + s.lo, col + s.lo, s.hi - s.lo);
}

int DeliveryForecaster::quantile_packets(const RateDistribution& dist,
                                         int horizon, int floor) const {
  assert(horizon >= 1 && horizon <= params_.forecast_horizon_ticks);
  assert(floor >= 0 && floor <= params_.max_count);
  const double target = params_.forecast_percentile() / 100.0;
  if (!params_.count_noise_in_forecast) {
    // Quantile over the rate posterior alone: the cautious rate times the
    // horizon.  See SproutParams::count_noise_in_forecast.  The caller's
    // max-with-floor clamp makes applying the floor here equivalent.
    const double rate = dist.quantile(params_, params_.forecast_percentile());
    const int packets = static_cast<int>(rate * params_.tick_seconds() *
                                         static_cast<double>(horizon));
    return std::max(packets, floor);
  }
  // Smallest n >= floor with mixture CDF >= target.  One probe at the floor
  // doubles as the early-out (quantile at or below the floor: the caller
  // clamps there anyway) and the search's lower bracket, so every endpoint
  // is evaluated exactly once.  The per-probe work is a contiguous dot over
  // the posterior's nonzero support against one count-major table row.
  const auto bins = static_cast<std::size_t>(params_.num_bins);
  const std::vector<double>& table =
      (*cdf_)[static_cast<std::size_t>(horizon - 1)];
  const std::vector<double>& p = dist.probabilities();
  const Support s = support_of(p);
  const double* pp = p.data() + s.lo;
  const std::size_t len = s.hi - s.lo;
  std::int64_t probes = 0;
  auto cdf_at = [&](int count) {
    ++probes;
    const double* col = &table[static_cast<std::size_t>(count) * bins];
    return kernels::dot(pp, col + s.lo, len);
  };
  const auto flush_probes = [&] {
    if (obs::enabled()) tally_dot_calls(probes);
  };
  if (cdf_at(floor) >= target) {
    flush_probes();
    return floor;
  }
  // Invariant: cdf(lo) < target <= cdf(hi) (hi = max_count acts as the
  // clamp when even the full table row falls short).
  int lo = floor;
  int hi = params_.max_count;
  while (lo + 1 < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (cdf_at(mid) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  flush_probes();
  return hi;
}

DeliveryForecast DeliveryForecaster::forecast(const RateDistribution& current,
                                              TimePoint now) const {
  if (obs::enabled()) {
    static obs::Counter& forecasts =
        obs::Registry::instance().counter("forecast.single");
    forecasts.add();
  }
  DeliveryForecast f;
  f.origin = now;
  f.tick = params_.tick;
  f.cumulative_bytes.reserve(
      static_cast<std::size_t>(params_.forecast_horizon_ticks));
  RateDistribution evolved = current;
  int floor_packets = 0;
  for (int h = 1; h <= params_.forecast_horizon_ticks; ++h) {
    transitions_->evolve(evolved);
    // Cumulative deliveries cannot decrease with a longer horizon; the
    // previous horizon's count seeds this one's quantile search.
    floor_packets = quantile_packets(evolved, h, floor_packets);
    f.cumulative_bytes.push_back(static_cast<ByteCount>(floor_packets) *
                                 params_.mtu);
  }
  return f;
}

}  // namespace sprout
