// Forecast strategies: full Sprout inference vs. the Sprout-EWMA ablation.
//
// Sprout-EWMA (§5.3) keeps the whole protocol but replaces the cautious
// stochastic forecast with an exponentially-weighted moving average of the
// observed rate, extrapolated flat across the horizon.  Both strategies sit
// behind this interface so the endpoint code is shared.
#pragma once

#include <memory>

#include "core/forecaster.h"
#include "core/params.h"
#include "core/rate_model.h"

namespace sprout {

class ForecastStrategy {
 public:
  virtual ~ForecastStrategy() = default;

  // Advances model time by one tick (called every tick, observed or not).
  virtual void advance_tick() = 0;

  // Incorporates the count of MTU-sized packets observed in the last tick.
  // Not called for ticks skipped under a time-to-next blackout.
  virtual void observe(int packets) = 0;

  // Incorporates a SENDER-LIMITED tick: at least `packets` were deliverable
  // (the sender did not offer more), so the count bounds the rate only from
  // below.
  virtual void observe_lower_bound(int packets) = 0;

  // Builds the forecast from the current belief.
  [[nodiscard]] virtual DeliveryForecast make_forecast(TimePoint now) const = 0;

  // Point estimate of the current rate (diagnostics/plots).
  [[nodiscard]] virtual double estimated_rate_pps() const = 0;
};

// The paper's Bayesian filter + cautious percentile forecast.
class BayesianForecastStrategy : public ForecastStrategy {
 public:
  explicit BayesianForecastStrategy(const SproutParams& params);

  void advance_tick() override { filter_.evolve(); }
  void observe(int packets) override { filter_.observe(packets); }
  void observe_lower_bound(int packets) override {
    filter_.observe_at_least(packets);
  }
  [[nodiscard]] DeliveryForecast make_forecast(TimePoint now) const override {
    return forecaster_.forecast(filter_.distribution(), now);
  }
  [[nodiscard]] double estimated_rate_pps() const override {
    return filter_.mean_rate_pps();
  }

  [[nodiscard]] const SproutBayesFilter& filter() const { return filter_; }

 private:
  SproutBayesFilter filter_;
  DeliveryForecaster forecaster_;
};

struct EwmaParams {
  double gain = 0.125;  // weight of the newest tick's rate sample
};

// The ablation: smoothed rate, flat extrapolation, no caution.
class EwmaForecastStrategy : public ForecastStrategy {
 public:
  EwmaForecastStrategy(const SproutParams& params, EwmaParams ewma);

  void advance_tick() override {}
  void observe(int packets) override;
  // EWMA analog of censoring: a sender-limited tick can only raise the
  // smoothed rate, never drag it toward the offered load.
  void observe_lower_bound(int packets) override;
  [[nodiscard]] DeliveryForecast make_forecast(TimePoint now) const override;
  [[nodiscard]] double estimated_rate_pps() const override { return rate_pps_; }

 private:
  SproutParams params_;
  EwmaParams ewma_;
  double rate_pps_ = 0.0;
  bool primed_ = false;
};

// Factory helpers used by the scheme registry.
std::unique_ptr<ForecastStrategy> make_bayesian_strategy(const SproutParams& p);
std::unique_ptr<ForecastStrategy> make_ewma_strategy(const SproutParams& p,
                                                     EwmaParams e = {});

}  // namespace sprout
