// DelayHistogram: the streaming quantile substrate under tower population
// metrics.  The contract under test: percentiles land within one bin width
// ABOVE the exact sorted-sample quantile (never below), merging is exact,
// serialization round-trips through from_parts, and the sparse storage
// computes exactly what a dense array of every bin computes.
#include "metrics/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/registry.h"
#include "runner/shard.h"
#include "util/rng.h"

namespace sprout {
namespace {

// Exact nearest-rank quantile of a sorted sample, in ms.
double exact_quantile_ms(std::vector<double> sorted_ms, double pct) {
  const auto n = static_cast<double>(sorted_ms.size());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(pct / 100.0 * n)));
  return sorted_ms[rank - 1];
}

// The dense storage the sparse histogram replaced, kept as its oracle: one
// counter per bin plus the overflow bin, scanned in full.
class DenseOracle {
 public:
  DenseOracle(Duration bin, Duration max) : bin_ms_(to_millis(bin)) {
    const auto num_bins =
        static_cast<std::size_t>(std::ceil(to_millis(max) / bin_ms_));
    max_ms_ = bin_ms_ * static_cast<double>(num_bins);
    counts_.assign(num_bins + 1, 0);  // + overflow
  }

  void add(Duration delay) {
    const double ms = std::max(0.0, to_millis(delay));
    std::size_t bin = static_cast<std::size_t>(ms / bin_ms_);
    if (bin >= counts_.size() - 1) bin = counts_.size() - 1;
    ++counts_[bin];
    ++samples_;
    sum_ms_ += ms;
  }

  void merge(const DenseOracle& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    samples_ += other.samples_;
    sum_ms_ += other.sum_ms_;
  }

  double percentile_ms(double pct) const {
    if (samples_ == 0) return 0.0;
    const double target = pct / 100.0 * static_cast<double>(samples_);
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(target)));
    std::int64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      cum += counts_[i];
      if (cum >= rank) return bin_ms_ * static_cast<double>(i + 1);
    }
    return max_ms_ + bin_ms_;
  }

  double mean_ms() const {
    return samples_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(samples_);
  }

  // The histogram member the shard writer emitted from the dense counts.
  std::string json() const {
    std::ostringstream os;
    os.precision(17);  // write_json_double's exact doubles
    os << "{\"bin_ms\": " << bin_ms_ << ", \"max_ms\": " << max_ms_
       << ", \"sum_ms\": " << sum_ms_ << ", \"counts\": [";
    bool first = true;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] == 0) continue;
      if (!first) os << ',';
      first = false;
      os << '[' << b << ',' << counts_[b] << ']';
    }
    os << "]}";
    return os.str();
  }

  double bin_ms_;
  double max_ms_ = 0.0;
  double sum_ms_ = 0.0;
  std::int64_t samples_ = 0;
  std::vector<std::int64_t> counts_;
};

// Every observable of `h` against the oracle: the dense expansion of its
// bins (and no stored zero or out-of-order bin), the geometry, the
// samples, the exact mean and sum, and a grid of percentiles — all equal
// bit for bit, not within a tolerance.
void expect_matches_oracle(const DelayHistogram& h, const DenseOracle& o) {
  ASSERT_EQ(h.num_bins() + 1u, o.counts_.size());
  std::vector<std::int64_t> dense(o.counts_.size(), 0);
  for (std::size_t i = 0; i < h.bins().size(); ++i) {
    const DelayHistogram::Bin& b = h.bins()[i];
    ASSERT_LT(b.index, dense.size());
    EXPECT_GT(b.count, 0) << "bin " << b.index;
    if (i > 0) {
      EXPECT_LT(h.bins()[i - 1].index, b.index);
    }
    dense[b.index] = b.count;
  }
  EXPECT_EQ(dense, o.counts_);
  EXPECT_EQ(h.bin_width_ms(), o.bin_ms_);
  EXPECT_EQ(h.max_ms(), o.max_ms_);
  EXPECT_EQ(h.samples(), o.samples_);
  EXPECT_EQ(h.sum_ms(), o.sum_ms_);
  EXPECT_EQ(h.mean_ms(), o.mean_ms());
  std::vector<double> pcts = {0.001, 0.01, 0.1, 99.9, 99.99, 99.999, 100.0};
  for (int i = 1; i <= 200; ++i) pcts.push_back(i / 2.0);
  for (const double pct : pcts) {
    EXPECT_EQ(h.percentile_ms(pct), o.percentile_ms(pct)) << "p" << pct;
  }
  const DelayStats st = h.stats();
  EXPECT_EQ(st.p50_ms, o.percentile_ms(50.0));
  EXPECT_EQ(st.p95_ms, o.percentile_ms(95.0));
  EXPECT_EQ(st.p99_ms, o.percentile_ms(99.0));
  EXPECT_EQ(st.p999_ms, o.percentile_ms(99.9));
  EXPECT_EQ(st.mean_ms, o.mean_ms());
  EXPECT_EQ(st.samples, o.samples_);
}

// A seeded delay stream over every edge of the geometry: exactly 0,
// negative (clamped to 0), bin edges, in-range values in runs (the
// previous-bin check's hits) and jumps (its misses), exactly max, just
// under max, and overflow.
Duration draw_delay(Rng& rng, Duration bin, Duration max) {
  switch (rng.uniform_int(0, 7)) {
    case 0:
      return Duration::zero();
    case 1:
      return -usec(rng.uniform_int(1, 50'000));
    case 2:
      return bin * rng.uniform_int(0, max / bin);
    case 3:
      return max;
    case 4:
      return max - usec(1);
    case 5:
      return max + usec(rng.uniform_int(0, 10'000'000));
    default:
      return usec(rng.uniform_int(0, max.count() - 1));
  }
}

TEST(DelayHistogram, SparseMatchesDenseOracle) {
  struct Geometry {
    Duration bin;
    Duration max;
  };
  // The engine's geometry, a small one that overflows often, and one
  // whose max is not a bin multiple (the constructor rounds it up).
  const Geometry geometries[] = {{kDelayHistBin, kDelayHistMax},
                                 {msec(10), msec(100)},
                                 {usec(700), msec(50)}};
  Rng rng(23);
  for (const Geometry& g : geometries) {
    SCOPED_TRACE(to_millis(g.max));
    DelayHistogram a(g.bin, g.max);
    DelayHistogram b(g.bin, g.max);
    DenseOracle oa(g.bin, g.max);
    DenseOracle ob(g.bin, g.max);
    expect_matches_oracle(a, oa);  // empty
    for (int i = 0; i < 20'000; ++i) {
      const Duration d = draw_delay(rng, g.bin, g.max);
      // Runs of up to 8 delays a few microseconds apart, as a standing
      // queue delivers them, mostly in one bin.
      const auto run = rng.uniform_int(1, 8);
      const bool to_a = rng.bernoulli(0.7);
      for (std::int64_t k = 0; k < run; ++k) {
        (to_a ? a : b).add(d + usec(k * 3));
        (to_a ? oa : ob).add(d + usec(k * 3));
      }
      if (i % 5'000 == 0) expect_matches_oracle(a, oa);
    }
    expect_matches_oracle(a, oa);
    expect_matches_oracle(b, ob);

    // Merges in both orders, into an unconfigured histogram, and into
    // itself.
    DenseOracle oab = oa;
    oab.merge(ob);
    DelayHistogram ab = a;
    ab.merge(b);
    expect_matches_oracle(ab, oab);
    DelayHistogram ba = b;
    ba.merge(a);
    DenseOracle oba = ob;
    oba.merge(oa);
    expect_matches_oracle(ba, oba);
    EXPECT_EQ(ab.bins(), ba.bins());
    DelayHistogram pop;
    pop.merge(a);
    pop.merge(b);
    expect_matches_oracle(pop, oab);
    DelayHistogram twice = a;
    twice.merge(twice);
    DenseOracle otwice = oa;
    otwice.merge(oa);
    expect_matches_oracle(twice, otwice);
    // Adding after a merge still lands in the right bin.
    ab.add(g.max / 3);
    oab.add(g.max / 3);
    expect_matches_oracle(ab, oab);

    // write_hist -> read_hist -> write_hist: the sweep file carries the
    // oracle's bytes, and reading them back reproduces them.
    SweepResult sweep;
    sweep.cell_fingerprints = {0};
    sweep.cells.resize(1);
    sweep.cells[0].population_delay_hist = ab;
    std::ostringstream first;
    write_sweep_json(first, sweep);
    EXPECT_NE(first.str().find("\"population_delay_hist\": " + oab.json()),
              std::string::npos);
    const SweepResult back = read_sweep_json(first.str());
    ASSERT_EQ(back.cells.size(), 1u);
    expect_matches_oracle(back.cells[0].population_delay_hist, oab);
    std::ostringstream second;
    write_sweep_json(second, back);
    EXPECT_EQ(first.str(), second.str());
  }
}

TEST(DelayHistogram, StoresOnlyOccupiedBins) {
  // N samples in k bins keep k entries, however many bins the geometry has.
  DelayHistogram h(kDelayHistBin, kDelayHistMax);
  const Duration delays[] = {msec(41), msec(7), sec(30), msec(0), msec(44),
                             msec(19'999), msec(101)};
  constexpr std::size_t kBins = 6;  // 41 ms and 44 ms share a bin
  for (int i = 0; i < 10'000; ++i) h.add(delays[i % 7]);
  EXPECT_EQ(h.samples(), 10'000);
  EXPECT_EQ(h.bins().size(), kBins);
  EXPECT_LE(h.bins().capacity(), 2 * kBins);
  // A microsecond-bin hour has 3.6e9 bins; a dense array would take 29 GB.
  DelayHistogram fine(usec(1), sec(3600));
  EXPECT_EQ(fine.num_bins(), 3'600'000'000u);
  fine.add(msec(42));
  fine.add(sec(7200));
  EXPECT_EQ(fine.bins().size(), 2u);
  EXPECT_EQ(fine.bins().back(),
            (DelayHistogram::Bin{fine.num_bins(), 1}));
}

TEST(DelayHistogram, DefaultIsUnconfigured) {
  DelayHistogram h;
  EXPECT_FALSE(h.configured());
  EXPECT_TRUE(h.empty());
  EXPECT_THROW(h.add(msec(5)), std::logic_error);
}

TEST(DelayHistogram, RejectsBadGeometry) {
  EXPECT_THROW(DelayHistogram(Duration::zero(), sec(1)),
               std::invalid_argument);
  EXPECT_THROW(DelayHistogram(msec(10), msec(5)), std::invalid_argument);
  // More bins than a bin index holds: 9.2e18 one-microsecond bins.
  EXPECT_THROW(DelayHistogram(usec(1), Duration::max()),
               std::invalid_argument);
}

TEST(DelayHistogram, PercentilesWithinOneBinOfExactQuantiles) {
  // A lognormal-ish delay population, the shape real per-packet delays
  // take: bulk around 40-80 ms with a long tail.
  Rng rng(7);
  std::vector<double> samples_ms;
  DelayHistogram h(msec(5), sec(20));
  for (int i = 0; i < 200'000; ++i) {
    const double ms = std::min(19'000.0, 40.0 * std::exp(rng.normal(0.0, 0.8)));
    const Duration d = from_seconds(ms / 1000.0);
    samples_ms.push_back(to_millis(d));  // compare against what was added
    h.add(d);
  }
  std::sort(samples_ms.begin(), samples_ms.end());
  for (const double pct : {50.0, 95.0, 99.0, 99.9}) {
    const double exact = exact_quantile_ms(samples_ms, pct);
    const double approx = h.percentile_ms(pct);
    // Never under-reports, and overshoots by at most one bin width.
    EXPECT_GE(approx, exact) << "p" << pct;
    EXPECT_LE(approx, exact + h.bin_width_ms() + 1e-9) << "p" << pct;
  }
  EXPECT_EQ(h.samples(), 200'000);
}

TEST(DelayHistogram, RejectsOutOfRangePercentile) {
  DelayHistogram h(msec(10), sec(1));
  h.add(msec(25));
  // An out-of-range pct used to come back as a plausible delay (0 ms or
  // the overflow sentinel); it must fail at the call site instead.
  EXPECT_THROW((void)h.percentile_ms(0.0), std::invalid_argument);
  EXPECT_THROW((void)h.percentile_ms(-5.0), std::invalid_argument);
  EXPECT_THROW((void)h.percentile_ms(100.1), std::invalid_argument);
  const double nan = std::nan("");
  EXPECT_THROW((void)h.percentile_ms(nan), std::invalid_argument);
  // Both boundaries of (0, 100] are usable.
  EXPECT_DOUBLE_EQ(h.percentile_ms(100.0), 30.0);
  EXPECT_GT(h.percentile_ms(0.001), 0.0);
}

TEST(DelayHistogram, EmptyHistogramIsExplicitlyEmptyNotZeroDelay) {
  DelayHistogram h(msec(10), sec(1));
  // percentile_ms(50) == 0.0 on an empty CDF is a sentinel, not a real
  // 0 ms percentile; the distinction is carried by samples == 0, which
  // golden comparisons must check before trusting any quantile.
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.percentile_ms(50.0), 0.0);
  const DelayStats s = h.stats();
  EXPECT_EQ(s.samples, 0);
  h.add(msec(1));
  EXPECT_EQ(h.stats().samples, 1);
}

TEST(DelayHistogram, MeanIsExactNotBinned) {
  DelayHistogram h(msec(100), sec(1));
  h.add(msec(1));
  h.add(msec(2));
  h.add(msec(6));
  EXPECT_DOUBLE_EQ(h.mean_ms(), 3.0);
}

TEST(DelayHistogram, OverflowBinReportsSentinelAboveMax) {
  DelayHistogram h(msec(10), msec(100));
  h.add(sec(5));  // far past max
  EXPECT_DOUBLE_EQ(h.percentile_ms(50.0), h.max_ms() + h.bin_width_ms());
}

TEST(DelayHistogram, MergeIsExactAndCommutative) {
  Rng rng(21);
  DelayHistogram a(msec(5), sec(20));
  DelayHistogram b(msec(5), sec(20));
  DelayHistogram all(msec(5), sec(20));
  for (int i = 0; i < 5'000; ++i) {
    const Duration d = msec(rng.uniform_int(0, 25'000));
    (i % 2 == 0 ? a : b).add(d);
    all.add(d);
  }
  DelayHistogram ab = a;
  ab.merge(b);
  DelayHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.bins(), all.bins());
  EXPECT_EQ(ba.bins(), all.bins());
  EXPECT_DOUBLE_EQ(ab.sum_ms(), ba.sum_ms());
  EXPECT_EQ(ab.samples(), all.samples());
}

TEST(DelayHistogram, MergeIntoUnconfiguredAdopts) {
  DelayHistogram a(msec(5), sec(20));
  a.add(msec(42));
  DelayHistogram pop;  // how ScenarioResult accumulates users
  pop.merge(a);
  EXPECT_TRUE(pop.configured());
  EXPECT_EQ(pop.samples(), 1);
}

TEST(DelayHistogram, MergeRejectsMismatchedGeometry) {
  DelayHistogram a(msec(5), sec(20));
  DelayHistogram b(msec(10), sec(20));
  a.add(msec(1));
  b.add(msec(1));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(DelayHistogram, OverflowCountsSurviveMergeExactly) {
  // Overflow samples are the tail that matters most (a tower cell in an
  // outage); merge must carry the overflow bin like any other, not clamp
  // or drop it.
  DelayHistogram a(msec(10), msec(100));
  DelayHistogram b(msec(10), msec(100));
  for (int i = 0; i < 7; ++i) a.add(sec(2));   // 7 overflows
  for (int i = 0; i < 11; ++i) b.add(sec(9));  // 11 overflows
  a.add(msec(42));                             // one in-range sample
  DelayHistogram ab = a;
  ab.merge(b);
  EXPECT_EQ(ab.bins().back(), (DelayHistogram::Bin{ab.num_bins(), 18}));
  EXPECT_EQ(ab.samples(), 19);
  // The exact sum survives too: overflow samples keep their real values
  // in the mean even though the bins cap their percentile resolution.
  EXPECT_DOUBLE_EQ(ab.sum_ms(), 7 * 2000.0 + 11 * 9000.0 + 42.0);
}

TEST(DelayHistogram, PercentilesOverOverflowNeverUnderReport) {
  // 10 in-range samples at 5 ms plus 10 overflows: every percentile that
  // lands in the overflow bin must report the max+bin sentinel — an
  // UNDER-estimate of a tail delay would fabricate a good result.
  DelayHistogram h(msec(10), msec(100));
  for (int i = 0; i < 10; ++i) h.add(msec(5));
  for (int i = 0; i < 10; ++i) h.add(sec(3));
  const double sentinel = h.max_ms() + h.bin_width_ms();
  EXPECT_DOUBLE_EQ(h.percentile_ms(50.0), 10.0);  // in-range bin edge
  for (const double pct : {50.1, 75.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile_ms(pct), sentinel) << "p" << pct;
    EXPECT_GE(h.percentile_ms(pct), h.max_ms()) << "p" << pct;
  }
}

TEST(DelayHistogram, FromPartsCarriesOverflow) {
  // The shard JSON roundtrip writes sparse [bin, count] pairs; the
  // overflow bin is bins().back() and must survive from_parts intact.
  DelayHistogram h(msec(10), msec(100));
  h.add(msec(15));
  h.add(sec(1));
  h.add(sec(2));
  const DelayHistogram back = DelayHistogram::from_parts(
      h.bin_width_ms(), h.max_ms(), h.sum_ms(), h.bins());
  EXPECT_EQ(back.bins().back(), (DelayHistogram::Bin{back.num_bins(), 2}));
  EXPECT_EQ(back.bins(), h.bins());
  EXPECT_DOUBLE_EQ(back.percentile_ms(99.0),
                   back.max_ms() + back.bin_width_ms());
  EXPECT_DOUBLE_EQ(back.mean_ms(), h.mean_ms());
}

TEST(DelayHistogram, FromPartsRoundTrips) {
  DelayHistogram h(msec(5), sec(20));
  Rng rng(3);
  for (int i = 0; i < 1'000; ++i) h.add(msec(rng.uniform_int(0, 30'000)));
  const DelayHistogram back = DelayHistogram::from_parts(
      h.bin_width_ms(), h.max_ms(), h.sum_ms(), h.bins());
  EXPECT_EQ(back.bins(), h.bins());
  EXPECT_EQ(back.samples(), h.samples());
  EXPECT_DOUBLE_EQ(back.percentile_ms(99.0), h.percentile_ms(99.0));
  EXPECT_DOUBLE_EQ(back.mean_ms(), h.mean_ms());
}

}  // namespace
}  // namespace sprout
