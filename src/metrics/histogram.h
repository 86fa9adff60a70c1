// Fixed-bin streaming delay histograms — population metrics without sample
// retention.
//
// A tower scenario carries hundreds to thousands of users; retaining every
// DeliveryRecord to sort for quantiles at the end would hold millions of
// samples live for nothing.  A DelayHistogram instead folds each one-way
// packet delay into a fixed-width bin counter as it arrives and stores only
// the bins it has counted, so a user's whole delay CDF costs O(occupied
// bins) regardless of run length or of the geometry's range (a median
// tower user fills 10-14 of the 4001 bins of 5 ms up to 20 s).  Per-user
// histograms merge into a population histogram by integer addition (exact,
// order-independent), and any percentile is recoverable to within one bin
// width of the exact sorted-sample quantile (the reported value is the
// covering bin's upper edge, so it never under-reports a tail).
//
// Everything is integer counts plus one deterministic double accumulator
// (the exact mean), so serial, thread-pool and process-sharded runs agree
// byte for byte.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace sprout {

// Point summary of a delay distribution, in milliseconds.  p50/p95/p99/p999
// come from a histogram (bin-upper-edge quantiles); the mean is exact.
// `samples` is load-bearing, not informational: an empty distribution
// reports every quantile as 0.0, indistinguishable from a real 0 ms
// percentile, so any comparison against expected delays (golden tests
// especially) must assert samples > 0 first or it can pass vacuously on
// an empty CDF.
struct DelayStats {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_ms = 0.0;
  std::int64_t samples = 0;
};

class DelayHistogram {
 public:
  // One occupied bin: `index` counts bin widths from 0 ms, and the overflow
  // bin is index num_bins().  Stored bins have count > 0, in ascending
  // index order.
  struct Bin {
    std::uint32_t index = 0;
    std::int64_t count = 0;
    friend bool operator==(const Bin&, const Bin&) = default;
  };

  // Unconfigured (bin 0): add/merge are invalid; configured() is false.
  // The default state exists so FlowResult can carry "no histogram" without
  // an optional wrapper in every result.
  DelayHistogram() = default;

  // Fixed bins of `bin` width covering [0, max); delays >= max land in one
  // overflow bin whose reported quantile edge is max + bin (a sentinel that
  // says "beyond the configured range", never a fabricated in-range value).
  // Throws std::invalid_argument for a non-positive bin, max < bin, or more
  // bins than a Bin index can hold.
  DelayHistogram(Duration bin, Duration max);

  [[nodiscard]] bool configured() const { return bin_ms_ > 0.0; }
  [[nodiscard]] bool empty() const { return samples_ == 0; }

  // Checks the bin the previous add() hit before searching, so a run of
  // delays in one bin costs a compare, not a search.
  void add(Duration delay);

  // Integer-adds another histogram's counts; the two must share bin/max
  // geometry (throws std::invalid_argument otherwise).  Merging is exact
  // and commutative, so a population rollup does not depend on user order.
  void merge(const DelayHistogram& other);

  // Upper edge of the bin where the pct-th percentile sample falls: within
  // one bin width above the exact sorted-sample quantile, never below it.
  // Throws std::invalid_argument unless 0 < pct <= 100.  0 when empty —
  // check empty()/samples() before trusting a 0 (see DelayStats::samples).
  [[nodiscard]] double percentile_ms(double pct) const;

  // Exact streaming mean (not binned).  0 when empty.
  [[nodiscard]] double mean_ms() const;

  [[nodiscard]] DelayStats stats() const;

  [[nodiscard]] std::int64_t samples() const { return samples_; }
  [[nodiscard]] double bin_width_ms() const { return bin_ms_; }
  [[nodiscard]] double max_ms() const { return max_ms_; }
  [[nodiscard]] double sum_ms() const { return sum_ms_; }
  // In-range bin count; also the overflow bin's index.
  [[nodiscard]] std::uint32_t num_bins() const { return num_bins_; }
  // The occupied bins, overflow included (as index num_bins()).
  [[nodiscard]] const std::vector<Bin>& bins() const { return bins_; }

  // Rebuilds a histogram from serialized state (shard JSON readers).  The
  // bin count is max_ms / bin_ms rounded to an integer.  Zero-count bins are
  // dropped.  Throws std::invalid_argument on bad geometry (including more
  // bins than a Bin index can hold), a bin index past the overflow bin,
  // indices that do not strictly increase, or a negative count.
  [[nodiscard]] static DelayHistogram from_parts(double bin_ms, double max_ms,
                                                 double sum_ms,
                                                 std::vector<Bin> bins);

 private:
  double bin_ms_ = 0.0;
  double max_ms_ = 0.0;
  double sum_ms_ = 0.0;
  std::int64_t samples_ = 0;
  std::uint32_t num_bins_ = 0;
  std::uint32_t last_ = 0;  // position in bins_ the previous add() hit
  std::vector<Bin> bins_;
};

}  // namespace sprout
