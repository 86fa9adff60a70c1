// Microbenchmarks of Sprout's inference loop (google-benchmark).
//
// The paper claims the whole receiver pipeline — evolve, observe, forecast,
// all precomputed at startup — costs under 5% of one PC core at high
// throughput.  At one tick per 20 ms, a full tick must therefore run in
// well under 1 ms; these benchmarks verify the headroom.
#include <benchmark/benchmark.h>

#include "cc/gcc.h"
#include "core/adaptive.h"
#include "core/alt_models.h"
#include "core/forecaster.h"
#include "core/rate_model.h"
#include "core/strategy.h"
#include "core/wire.h"

namespace sprout {
namespace {

void BM_TransitionMatrixBuild(benchmark::State& state) {
  SproutParams params;
  params.num_bins = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TransitionMatrix m(params);
    benchmark::DoNotOptimize(m.entry(0, 0));
  }
}
BENCHMARK(BM_TransitionMatrixBuild)->Arg(64)->Arg(256);

// The cold build of one forecast table set (what a DeliveryForecaster pays
// on a cache miss): the horizon evolution folded into the rate CDF tables,
// or with count noise into the Poisson-mixture tables.
void BM_ForecasterBuild(benchmark::State& state) {
  SproutParams params;
  params.count_noise_in_forecast = state.range(0) != 0;
  const auto kernel = TransitionMatrixCache::get(params);
  for (auto _ : state) {
    ForecastTables tables(params, *kernel);
    benchmark::DoNotOptimize(&tables);
  }
}
BENCHMARK(BM_ForecasterBuild)
    ->Arg(0)   // rate-quantile tables (default)
    ->Arg(1);  // Poisson-mixture tables (paper-literal ablation)

void BM_FilterEvolve(benchmark::State& state) {
  SproutParams params;
  SproutBayesFilter filter(params);
  filter.observe(10);
  for (auto _ : state) {
    filter.evolve();
  }
}
BENCHMARK(BM_FilterEvolve);

void BM_FilterObserve(benchmark::State& state) {
  SproutParams params;
  SproutBayesFilter filter(params);
  for (auto _ : state) {
    filter.evolve();
    filter.observe(10);
  }
}
BENCHMARK(BM_FilterObserve);

// --- the PR-6 fast paths, measured against their exact references ---

// Banded evolve (the default) vs the dense bins² pass, at the paper's 256
// bins and a coarser grid.  A realistic non-degenerate posterior: the
// filter locked near 500 pps, so the banded path's row skipping and the
// kernel dispatch both engage as in production.
void evolve_bench_dist(const SproutParams& params, RateDistribution& d) {
  SproutBayesFilter filter(params);
  for (int t = 0; t < 50; ++t) {
    filter.evolve();
    filter.observe(10);
  }
  d = filter.distribution();
}

void BM_EvolveBanded(benchmark::State& state) {
  SproutParams params;
  params.num_bins = static_cast<int>(state.range(0));
  TransitionMatrix m(params);
  RateDistribution d(params.num_bins);
  evolve_bench_dist(params, d);
  for (auto _ : state) {
    m.evolve(d);
  }
  state.counters["mean_bandwidth"] = m.mean_bandwidth();
}
BENCHMARK(BM_EvolveBanded)->Arg(64)->Arg(256);

void BM_EvolveDense(benchmark::State& state) {
  SproutParams params;
  params.num_bins = static_cast<int>(state.range(0));
  TransitionMatrix m(params);
  RateDistribution d(params.num_bins);
  evolve_bench_dist(params, d);
  for (auto _ : state) {
    m.evolve_dense(d);
  }
}
BENCHMARK(BM_EvolveDense)->Arg(64)->Arg(256);

// One forecast() at the paper's config with the Poisson-mixture tables
// engaged: a bisection of dot probes per horizon over the folded tables.
void BM_ForecastMixtureQuantile(benchmark::State& state) {
  SproutParams params;
  params.count_noise_in_forecast = true;
  SproutBayesFilter filter(params);
  DeliveryForecaster forecaster(params);
  for (int t = 0; t < 50; ++t) {
    filter.evolve();
    filter.observe(10);
  }
  TimePoint now{};
  for (auto _ : state) {
    now += params.tick;
    DeliveryForecast f = forecaster.forecast(filter.distribution(), now);
    benchmark::DoNotOptimize(f.cumulative_at(8));
  }
}
BENCHMARK(BM_ForecastMixtureQuantile);

void BM_FullTickWithForecast(benchmark::State& state) {
  // One complete receiver tick: evolve + observe + 8-tick forecast.
  SproutParams params;
  params.count_noise_in_forecast = state.range(0) != 0;
  SproutBayesFilter filter(params);
  DeliveryForecaster forecaster(params);
  TimePoint now{};
  for (auto _ : state) {
    filter.evolve();
    filter.observe(10);
    now += params.tick;
    DeliveryForecast f = forecaster.forecast(filter.distribution(), now);
    benchmark::DoNotOptimize(f.cumulative_at(8));
  }
  // CPU fraction at 50 ticks/s = 50 * per-iteration-seconds.
  state.counters["cpu_percent_at_50Hz"] = benchmark::Counter(
      50.0 * 100.0, benchmark::Counter::kAvgIterations |
                        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullTickWithForecast)
    ->Arg(0)   // rate-quantile forecast (default)
    ->Arg(1);  // Poisson-mixture forecast (paper-literal ablation)

// --- extension strategies: the same CPU budget must hold for them ---

template <typename Strategy>
void full_tick_loop(benchmark::State& state, Strategy& strategy) {
  TimePoint now{};
  SproutParams params;
  for (auto _ : state) {
    strategy.advance_tick();
    strategy.observe(10);
    now += params.tick;
    DeliveryForecast f = strategy.make_forecast(now);
    benchmark::DoNotOptimize(f.cumulative_at(8));
  }
  state.counters["cpu_percent_at_50Hz"] = benchmark::Counter(
      50.0 * 100.0, benchmark::Counter::kAvgIterations |
                        benchmark::Counter::kIsRate);
}

void BM_FullTickAdaptive(benchmark::State& state) {
  // Five-hypothesis model averaging: ~5x the single-filter cost.
  SproutParams params;
  AdaptiveForecastStrategy strategy(params);
  full_tick_loop(state, strategy);
}
BENCHMARK(BM_FullTickAdaptive);

void BM_FullTickMmpp(benchmark::State& state) {
  SproutParams params;
  MmppForecastStrategy strategy(params);
  full_tick_loop(state, strategy);
}
BENCHMARK(BM_FullTickMmpp);

void BM_FullTickEmpirical(benchmark::State& state) {
  SproutParams params;
  EmpiricalForecastStrategy strategy(params);
  // Pre-fill the window so the bench measures steady state, not cold start.
  for (int i = 0; i < 1500; ++i) {
    strategy.advance_tick();
    strategy.observe(10);
  }
  full_tick_loop(state, strategy);
}
BENCHMARK(BM_FullTickEmpirical);

// GCC's per-packet receiver pipeline (grouper -> Kalman -> detector ->
// AIMD), for comparison with Sprout's per-tick pipeline.
void BM_GccReceiverPipeline(benchmark::State& state) {
  InterArrivalGrouper grouper;
  ArrivalFilter filter;
  OveruseDetector detector;
  AimdRateController aimd;
  RateEstimator rate;
  std::int64_t i = 0;
  for (auto _ : state) {
    const TimePoint sent = TimePoint{} + msec(33 * i);
    const TimePoint arrived = sent + msec(20);
    rate.on_packet(arrived, kMtuBytes);
    const auto delta = grouper.on_packet(sent, arrived, kMtuBytes);
    if (delta.has_value()) {
      const double offset = filter.update(*delta);
      const BandwidthUsage usage = detector.detect(offset, arrived);
      benchmark::DoNotOptimize(
          aimd.update(usage, rate.rate_kbps(arrived), arrived));
    }
    ++i;
  }
}
BENCHMARK(BM_GccReceiverPipeline);

void BM_WireSerializeParse(benchmark::State& state) {
  SproutWireMessage msg;
  msg.header.seqno = 1234567;
  msg.header.payload_bytes = 1404;
  ForecastBlock block;
  block.received_or_lost_bytes = 999999;
  block.tick_us = 20000;
  for (int h = 1; h <= 8; ++h) {
    block.cumulative_bytes.push_back(static_cast<std::uint32_t>(h * 15000));
  }
  msg.forecast = block;
  for (auto _ : state) {
    auto bytes = serialize(msg);
    auto parsed = parse(bytes);
    benchmark::DoNotOptimize(parsed->header.seqno);
  }
}
BENCHMARK(BM_WireSerializeParse);

}  // namespace
}  // namespace sprout

BENCHMARK_MAIN();
