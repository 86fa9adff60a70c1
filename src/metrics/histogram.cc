#include "metrics/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace sprout {

namespace {

// The largest bin count whose overflow index (the count itself) a
// Bin::index still holds.
constexpr double kMaxBins =
    static_cast<double>(std::numeric_limits<std::uint32_t>::max());

bool index_below(const DelayHistogram::Bin& b, std::uint32_t index) {
  return b.index < index;
}

}  // namespace

DelayHistogram::DelayHistogram(Duration bin, Duration max) {
  if (bin <= Duration::zero()) {
    throw std::invalid_argument("histogram bin width must be > 0");
  }
  if (max < bin) {
    throw std::invalid_argument("histogram max must be >= one bin width");
  }
  const double num_bins = std::ceil(to_millis(max) / to_millis(bin));
  if (num_bins > kMaxBins) {
    throw std::invalid_argument(
        "histogram has more bins than a bin index can hold");
  }
  bin_ms_ = to_millis(bin);
  num_bins_ = static_cast<std::uint32_t>(num_bins);
  max_ms_ = bin_ms_ * static_cast<double>(num_bins_);
}

void DelayHistogram::add(Duration delay) {
  if (!configured()) {
    throw std::logic_error("add() on an unconfigured DelayHistogram");
  }
  const double ms = std::max(0.0, to_millis(delay));
  const double bin_f = ms / bin_ms_;
  const std::uint32_t bin = bin_f < static_cast<double>(num_bins_)
                                ? static_cast<std::uint32_t>(bin_f)
                                : num_bins_;  // overflow
  if (last_ >= bins_.size() || bins_[last_].index != bin) {
    const auto at =
        std::lower_bound(bins_.begin(), bins_.end(), bin, index_below);
    last_ = static_cast<std::uint32_t>(at - bins_.begin());
    if (at == bins_.end() || at->index != bin) bins_.insert(at, Bin{bin, 0});
  }
  ++bins_[last_].count;
  ++samples_;
  sum_ms_ += ms;
}

void DelayHistogram::merge(const DelayHistogram& other) {
  if (other.empty() && !other.configured()) return;
  if (!configured()) {
    *this = other;
    return;
  }
  if (other.bin_ms_ != bin_ms_ || other.num_bins_ != num_bins_) {
    throw std::invalid_argument(
        "DelayHistogram::merge of mismatched bin geometries");
  }
  // A population merge soon holds every bin its users fill, so most of
  // other's counts add in place.
  auto at = bins_.begin();
  for (const Bin& b : other.bins_) {
    at = std::lower_bound(at, bins_.end(), b.index, index_below);
    if (at == bins_.end() || at->index != b.index) {
      at = bins_.insert(at, Bin{b.index, 0});
    }
    at->count += b.count;
  }
  samples_ += other.samples_;
  sum_ms_ += other.sum_ms_;
}

double DelayHistogram::percentile_ms(double pct) const {
  // An out-of-range pct used to be answered with a plausible number (0 ms
  // or the overflow sentinel) — garbage in a golden file instead of a
  // failure at the call site.
  if (!(pct > 0.0) || pct > 100.0) {
    throw std::invalid_argument("percentile_ms: pct must be in (0, 100], got " +
                                std::to_string(pct));
  }
  // Empty histogram: 0.0 by convention, distinguishable from a real 0 ms
  // percentile only via samples()/DelayStats::samples — comparisons that
  // must not pass vacuously check samples > 0 first.
  if (samples_ == 0) return 0.0;
  // Rank of the percentile sample, 1-based: the smallest rank such that
  // rank/samples >= pct/100 (the nearest-rank quantile definition).
  const double target = pct / 100.0 * static_cast<double>(samples_);
  const auto rank =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(target)));
  std::int64_t cum = 0;
  for (const Bin& b : bins_) {
    cum += b.count;
    if (cum >= rank) {
      // Upper edge of the bin (the + 1 in double: the largest index would
      // wrap); the overflow bin reports max + bin as an out-of-range
      // sentinel.
      return bin_ms_ * (static_cast<double>(b.index) + 1.0);
    }
  }
  return max_ms_ + bin_ms_;
}

double DelayHistogram::mean_ms() const {
  return samples_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(samples_);
}

DelayStats DelayHistogram::stats() const {
  DelayStats s;
  s.p50_ms = percentile_ms(50.0);
  s.p95_ms = percentile_ms(95.0);
  s.p99_ms = percentile_ms(99.0);
  s.p999_ms = percentile_ms(99.9);
  s.mean_ms = mean_ms();
  s.samples = samples_;
  return s;
}

DelayHistogram DelayHistogram::from_parts(double bin_ms, double max_ms,
                                          double sum_ms,
                                          std::vector<Bin> bins) {
  if (!(bin_ms > 0.0) || !(max_ms >= bin_ms)) {
    throw std::invalid_argument("malformed histogram geometry");
  }
  // The writer's max_ms is always an exact bin multiple (the constructor
  // rounds it up), so the bin count round-trips through llround.
  const double num_bins = max_ms / bin_ms;
  if (!(num_bins <= kMaxBins)) {
    throw std::invalid_argument(
        "histogram has more bins than a bin index can hold");
  }
  DelayHistogram h;
  h.bin_ms_ = bin_ms;
  h.max_ms_ = max_ms;
  h.sum_ms_ = sum_ms;
  h.num_bins_ = static_cast<std::uint32_t>(std::llround(num_bins));
  h.bins_.reserve(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const Bin& b = bins[i];
    if (b.index > h.num_bins_) {
      throw std::invalid_argument("histogram bin " + std::to_string(b.index) +
                                  " out of range");
    }
    if (i > 0 && b.index <= bins[i - 1].index) {
      throw std::invalid_argument("histogram bins do not strictly increase");
    }
    if (b.count < 0) throw std::invalid_argument("negative histogram count");
    if (b.count > std::numeric_limits<std::int64_t>::max() - h.samples_) {
      throw std::invalid_argument("histogram sample count overflows");
    }
    if (b.count == 0) continue;
    h.bins_.push_back(b);
    h.samples_ += b.count;
  }
  return h;
}

}  // namespace sprout
