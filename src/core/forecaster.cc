#include "core/forecaster.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/kernels.h"

namespace sprout {

namespace {

// The SproutParams fields the tables depend on: the grid, tick and horizon,
// the kernel the evolution folds (σ, λz, band ε), and the count range, which
// only count-noise mode reads (rate mode keys it as -1).  Confidence does
// NOT appear: the percentile is applied at query time.
using TableKey =
    std::tuple<int, double, std::int64_t, int, double, double, double, int>;

TableKey table_key(const SproutParams& params) {
  return {params.num_bins,
          params.max_rate_pps,
          params.tick.count(),
          params.forecast_horizon_ticks,
          params.sigma_pps_per_sqrt_s,
          params.outage_escape_rate_per_s,
          params.band_epsilon,
          params.count_noise_in_forecast ? params.max_count : -1};
}

constexpr std::size_t kPanel = 16;  // columns per kernels::panel16 call

// Row stride of a working matrix with `cols` meaningful columns: rounded up
// to whole panels, plus 8 so that consecutive rows do not sit a power of two
// apart (a panel reads the same offset of every row, and a 2^k stride maps
// them all to the same few cache sets).
std::size_t padded_stride(std::size_t cols) {
  return (cols + kPanel - 1) / kPanel * kPanel + 8;
}

std::mutex& cache_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<TableKey, std::shared_ptr<const ForecastTables>>& cache_map() {
  static std::map<TableKey, std::shared_ptr<const ForecastTables>> m;
  return m;
}

// Per-forecast dot-dispatch tally.  The kernels::dot wrapper itself carries
// no instrumentation (hottest call sites), so each forecast counts its
// probes in a local and flushes here when obs is on.
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

ForecastTables::ForecastTables(const SproutParams& params,
                               const TransitionMatrix& kernel)
    : bins_(static_cast<std::size_t>(params.num_bins)),
      rows_(params.count_noise_in_forecast ? params.max_count + 1
                                           : params.num_bins) {
  assert(params.forecast_horizon_ticks >= 1 && rows_ >= 1);
  assert(kernel.num_bins() == params.num_bins);
  const auto horizons = static_cast<std::size_t>(params.forecast_horizon_ticks);
  const auto rows = static_cast<std::size_t>(rows_);
  cdf_.resize(horizons * rows * bins_);
  mass_.resize(horizons * bins_);
  const bool counts = params.count_noise_in_forecast;

  // W_h = B · W_{h-1} on an i-major working copy.  W_0 is the step matrix
  // [j ≤ b], making W_h the rate CDF table itself, or, with count noise,
  // the identity, making W_h = B^h.  Row i of W_h is B's band row i applied
  // to rows [lo, hi) of W_{h-1}, one 16-column panel at a time.  The panel
  // loop is outermost: consecutive rows i read bands shifted by one row, so
  // a panel's slice of W_{h-1} stays in L1.  The mass B · mass_{h-1} sums
  // in the same order (bit-equal to the rate table's last row).
  const std::size_t stride = padded_stride(bins_);
  std::vector<double> w_prev(bins_ * stride, 0.0);
  std::vector<double> w_next(bins_ * stride, 0.0);
  for (std::size_t j = 0; j < bins_; ++j) {
    double* row = &w_prev[j * stride];
    std::fill(row + j, counts ? row + j + 1 : row + bins_, 1.0);
  }
  std::vector<double> prev_mass(bins_, 1.0);
  // Count noise: C_h[j][n] = P[Poisson(λ_j·h·τ) ≤ n], j-major.
  const std::size_t count_stride = padded_stride(rows);
  std::vector<double> poisson(counts ? bins_ * count_stride : 0, 0.0);
  std::vector<std::pair<std::size_t, std::size_t>> span(counts ? bins_ : 0);

  const auto band_lo = [&](std::size_t i) {
    return static_cast<std::size_t>(
        kernel.row_extent(static_cast<int>(i)).first);
  };

  for (std::size_t h = 1; h <= horizons; ++h) {
    for (std::size_t c = 0; c < bins_; c += kPanel) {
      for (std::size_t i = 0; i < bins_; ++i) {
        const std::span<const double> w = kernel.band_row(static_cast<int>(i));
        kernels::panel16(&w_next[i * stride + c], w.data(),
                         &w_prev[band_lo(i) * stride + c], stride, w.size());
      }
    }
    double* mass = &mass_[(h - 1) * bins_];
    for (std::size_t i = 0; i < bins_; ++i) {
      const std::size_t lo = band_lo(i);
      const std::span<const double> w = kernel.band_row(static_cast<int>(i));
      double m = 0.0;
      for (std::size_t t = 0; t < w.size(); ++t) m += w[t] * prev_mass[lo + t];
      mass[i] = m;
    }
    std::swap(w_prev, w_next);
    prev_mass.assign(mass, mass + bins_);

    double* table = &cdf_[(h - 1) * rows * bins_];
    if (!counts) {
      // Transpose with the writes sequential: they first-touch the table.
      for (std::size_t k = 0; k < rows; ++k) {
        for (std::size_t i = 0; i < bins_; ++i) {
          table[k * bins_ + i] = w_prev[i * stride + k];
        }
      }
      continue;
    }
    for (std::size_t j = 0; j < bins_; ++j) {
      // Forward recurrence over n, the arithmetic of poisson_cdf.
      const double mean = params.bin_rate(static_cast<int>(j)) *
                          params.tick_seconds() * static_cast<double>(h);
      double* col = &poisson[j * count_stride];
      double term = std::exp(-mean);
      double sum = term;
      col[0] = std::min(sum, 1.0);
      for (std::size_t n = 1; n < rows; ++n) {
        term *= mean / static_cast<double>(n);
        sum += term;
        col[n] = std::min(sum, 1.0);
      }
    }
    // N_h = B^h · C_h, each row i over the nonzero span of B^h's row i
    // (exact zeros add exactly nothing), panel loop outermost as above,
    // scattered count-major.
    for (std::size_t i = 0; i < bins_; ++i) {
      const double* r = &w_prev[i * stride];
      std::size_t lo = 0;
      std::size_t hi = bins_;
      while (lo < hi && r[lo] == 0.0) ++lo;
      while (hi > lo && r[hi - 1] == 0.0) --hi;
      span[i] = {lo, hi};
    }
    double out[kPanel];
    for (std::size_t n0 = 0; n0 < rows; n0 += kPanel) {
      for (std::size_t i = 0; i < bins_; ++i) {
        const auto [lo, hi] = span[i];
        kernels::panel16(out, &w_prev[i * stride + lo],
                         &poisson[lo * count_stride + n0], count_stride,
                         hi - lo);
        for (std::size_t q = 0; q < kPanel && n0 + q < rows; ++q) {
          table[(n0 + q) * bins_ + i] = out[q];
        }
      }
    }
  }
}

std::shared_ptr<const ForecastTables> ForecastTableCache::get(
    const SproutParams& params) {
  // Building under the lock serializes first construction per key, which is
  // exactly the "build once per distinct SproutParams" guarantee a parallel
  // sweep wants; hits only pay two map lookups.
  const std::shared_ptr<const TransitionMatrix> kernel =
      TransitionMatrixCache::get(params);
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
  auto tables = std::make_shared<const ForecastTables>(params, *kernel);
  map.emplace(key, tables);
  return tables;
}

ByteCount DeliveryForecast::cumulative_at(int t) const {
  if (t <= 0 || cumulative_bytes.empty()) return 0;
  const int idx = std::min(t, ticks()) - 1;
  return cumulative_bytes[static_cast<std::size_t>(idx)];
}

DeliveryForecast folded_forecast(const SproutParams& params,
                                 std::span<const ForecastTerm> terms,
                                 bool normalize, TimePoint now) {
  assert(!terms.empty());
  // Each posterior's nonzero support [lo, lo + len), clipped once.  Interior
  // zeros stay in the dot span (they contribute exactly +0.0); only the
  // tails are clipped, which is where log-space observations zero mass out.
  struct Probe {
    double weight;
    const double* p;
    std::size_t lo;
    std::size_t len;
    const ForecastTables* tables;
  };
  std::vector<Probe> probes;
  probes.reserve(terms.size());
  for (const ForecastTerm& term : terms) {
    const std::vector<double>& p = term.posterior->probabilities();
    std::size_t lo = 0;
    std::size_t hi = p.size();
    while (lo < hi && p[lo] <= 0.0) ++lo;
    while (hi > lo && p[hi - 1] <= 0.0) --hi;
    probes.push_back({term.weight, p.data() + lo, lo, hi - lo, term.tables});
  }
  std::int64_t dots = 0;
  // Σ_m weight_m · (p_m · row_m) over the supports.
  const auto weighted_sum = [&](auto row_of) {
    double sum = 0.0;
    for (const Probe& pr : probes) {
      sum += pr.weight * kernels::dot(pr.p, row_of(*pr.tables) + pr.lo, pr.len);
    }
    dots += static_cast<std::int64_t>(probes.size());
    return sum;
  };

  DeliveryForecast f;
  f.origin = now;
  f.tick = params.tick;
  f.cumulative_bytes.reserve(
      static_cast<std::size_t>(params.forecast_horizon_ticks));
  const double target = params.forecast_percentile() / 100.0;
  const int rows = terms.front().tables->rows();
  int floor_packets = 0;
  int prev = -1;  // the previous horizon's row; none before horizon 1
  for (int h = 1; h <= params.forecast_horizon_ticks; ++h) {
    const double threshold =
        normalize ? target * weighted_sum([h](const ForecastTables& t) {
          return t.mass(h);
        })
                  : target;
    // Whether row k's CDF reaches the threshold.  The last row counts as
    // reaching it, so it is the answer when no earlier row does.
    const auto reaches = [&](int k) {
      return k == rows - 1 ||
             weighted_sum([h, k](const ForecastTables& t) {
               return t.row(h, k);
             }) >= threshold;
    };
    // The smallest row that reaches the threshold.  Invariant: row lo
    // falls short (row -1 is the empty CDF) and row hi reaches, so the
    // answer lies in (lo, hi].  CDFs are monotone in the row: every table
    // entry is, and so is each fixed-order weighted sum of them, so any
    // bracket finds the same row.  After horizon 1 the bracket comes from
    // galloping away from the previous horizon's row with doubling steps,
    // since the row moves little per horizon; a bisection finishes.
    int lo = -1;
    int hi = rows - 1;
    if (prev >= 0) {
      if (reaches(prev)) {
        hi = prev;
        for (int step = 1; hi > 0; step *= 2) {
          const int k = std::max(hi - step, 0);
          if (!reaches(k)) {
            lo = k;
            break;
          }
          hi = k;
        }
      } else {
        lo = prev;
        for (int step = 1;; step *= 2) {
          const int k = std::min(lo + step, rows - 1);
          if (reaches(k)) {
            hi = k;
            break;
          }
          lo = k;
        }
      }
    }
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      if (reaches(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    prev = hi;
    const int packets =
        params.count_noise_in_forecast
            ? hi
            : static_cast<int>(params.bin_rate(hi) * params.tick_seconds() *
                               static_cast<double>(h));
    floor_packets = std::max(floor_packets, packets);
    f.cumulative_bytes.push_back(static_cast<ByteCount>(floor_packets) *
                                 params.mtu);
  }
  if (obs::enabled()) tally_dot_calls(dots);
  return f;
}

DeliveryForecaster::DeliveryForecaster(const SproutParams& params)
    : params_(params), tables_(ForecastTableCache::get(params)) {}

DeliveryForecast DeliveryForecaster::forecast(const RateDistribution& current,
                                              TimePoint now) const {
  if (obs::enabled()) {
    static obs::Counter& forecasts =
        obs::Registry::instance().counter("forecast.single");
    forecasts.add();
  }
  const ForecastTerm term{1.0, &current, tables_.get()};
  return folded_forecast(params_, {&term, 1}, /*normalize=*/false, now);
}

}  // namespace sprout
