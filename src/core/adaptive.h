// Online adaptation of Sprout's frozen hyperparameters (σ, λz).
//
// §3.1 of the paper: "A more sophisticated system would allow σ and λz to
// vary slowly with time to better match more- or less-variable networks."
// This module is that system: a bank of Bayes filters, one per (σ, λz)
// hypothesis, combined by Bayesian model averaging.  Each tick every
// filter runs the usual evolve/observe update; in addition each
// hypothesis's weight is multiplied by the *marginal likelihood* its
// filter assigned to the observation (how well that model predicted what
// actually arrived).  Weights are exponentially forgotten toward uniform
// so the selection can track a network whose variability drifts — the
// "vary slowly with time" the paper sketches.
//
// The forecast is the cautious quantile of the *mixture* posterior
// Σ_k w_k · p_k(λ), each member evolved under its OWN kernel.  All
// hypotheses share the λ grid, but σ shapes the kernel, so each member
// folds its evolution into its own forecast tables (core/forecaster.h;
// 8 · H · num_bins² bytes each in rate mode, shared process-wide with any
// plain Sprout flow of the same σ).  A CDF probe of the mixture is then one
// weighted dot per member — Σ_k w_k · (p_k · T_{k,h}[row]) — compared
// against the target times the mixture's evolved mass, with no evolve.
#pragma once

#include <memory>
#include <vector>

#include "core/forecaster.h"
#include "core/params.h"
#include "core/rate_model.h"
#include "core/strategy.h"

namespace sprout {

struct ModelHypothesis {
  double sigma_pps_per_sqrt_s = 200.0;
  double outage_escape_rate_per_s = 1.0;
};

struct AdaptiveParams {
  // Default grid brackets the paper's frozen σ = 200 by 2x steps in both
  // directions; λz stays at the paper's 1/s (sweeping it adds little, see
  // bench/ablation_model).
  std::vector<ModelHypothesis> hypotheses = {
      {50.0, 1.0}, {100.0, 1.0}, {200.0, 1.0}, {400.0, 1.0}, {800.0, 1.0},
  };
  // Per-tick forgetting: normalized log-weights decay toward 0 (uniform),
  // giving an effective evidence window of ~1/(1-discount) ticks (20 s at
  // 0.999 and 20 ms ticks).
  double discount = 0.999;
  // Weight floor keeps every hypothesis revivable after regime changes.
  double min_weight = 1e-6;
};

class AdaptiveForecastStrategy : public ForecastStrategy {
 public:
  AdaptiveForecastStrategy(const SproutParams& params,
                           AdaptiveParams adaptive = {});

  void advance_tick() override;
  void observe(int packets) override;
  void observe_lower_bound(int packets) override;
  [[nodiscard]] DeliveryForecast make_forecast(TimePoint now) const override;
  [[nodiscard]] double estimated_rate_pps() const override;

  // Posterior over hypotheses (sums to one, aligned with params order).
  [[nodiscard]] std::vector<double> hypothesis_weights() const;
  // The currently most plausible hypothesis.
  [[nodiscard]] const ModelHypothesis& map_hypothesis() const;

 private:
  struct Member {
    ModelHypothesis hypothesis;
    SproutParams params;  // base params with σ/λz overridden
    std::unique_ptr<SproutBayesFilter> filter;
    // Cache-shared folded tables of this member's kernel.
    std::shared_ptr<const ForecastTables> tables;
    double log_weight = 0.0;
  };

  void observe_impl(int packets, bool censored);
  // log Σ_i p_i · L(k | λ_i): the evidence the observation gives hypothesis
  // `member`, computed against its CURRENT (pre-update) posterior.
  [[nodiscard]] double marginal_log_likelihood(const Member& member,
                                               int packets,
                                               bool censored) const;
  void renormalize_and_forget();
  [[nodiscard]] RateDistribution mixture() const;

  SproutParams base_params_;
  AdaptiveParams adaptive_;
  std::vector<Member> members_;
};

std::unique_ptr<ForecastStrategy> make_adaptive_strategy(
    const SproutParams& p, AdaptiveParams a = {});

}  // namespace sprout
