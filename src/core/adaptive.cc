#include "core/adaptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/poisson.h"

namespace sprout {

AdaptiveForecastStrategy::AdaptiveForecastStrategy(const SproutParams& params,
                                                   AdaptiveParams adaptive)
    : base_params_(params), adaptive_(std::move(adaptive)) {
  assert(!adaptive_.hypotheses.empty());
  members_.reserve(adaptive_.hypotheses.size());
  for (const ModelHypothesis& h : adaptive_.hypotheses) {
    Member m;
    m.hypothesis = h;
    m.params = params;
    m.params.sigma_pps_per_sqrt_s = h.sigma_pps_per_sqrt_s;
    m.params.outage_escape_rate_per_s = h.outage_escape_rate_per_s;
    m.filter = std::make_unique<SproutBayesFilter>(m.params);
    m.tables = ForecastTableCache::get(m.params);
    m.log_weight = 0.0;  // uniform prior over hypotheses
    members_.push_back(std::move(m));
  }
  renormalize_and_forget();
}

void AdaptiveForecastStrategy::advance_tick() {
  for (Member& m : members_) m.filter->evolve();
}

double AdaptiveForecastStrategy::marginal_log_likelihood(const Member& member,
                                                         int packets,
                                                         bool censored) const {
  // log Σ_i p_i L(k|λ_i) by log-sum-exp over bins.
  const RateDistribution& dist = member.filter->distribution();
  const double tau = member.params.tick_seconds();
  double max_w = kNegInf;
  std::vector<double> w(static_cast<std::size_t>(dist.num_bins()), kNegInf);
  for (int i = 0; i < dist.num_bins(); ++i) {
    const double p = dist.probability(i);
    if (p <= 0.0) continue;
    const double mean = member.params.bin_rate(i) * tau;
    const double loglik = censored ? poisson_log_survival(packets, mean)
                                   : poisson_log_pmf(packets, mean);
    const double wi = std::log(p) + loglik;
    w[static_cast<std::size_t>(i)] = wi;
    max_w = std::max(max_w, wi);
  }
  if (max_w == kNegInf) return kNegInf;
  double acc = 0.0;
  for (const double wi : w) {
    if (wi != kNegInf) acc += std::exp(wi - max_w);
  }
  return max_w + std::log(acc);
}

void AdaptiveForecastStrategy::observe_impl(int packets, bool censored) {
  for (Member& m : members_) {
    const double evidence = marginal_log_likelihood(m, packets, censored);
    if (evidence != kNegInf) m.log_weight += evidence;
    if (censored) {
      m.filter->observe_at_least(packets);
    } else {
      m.filter->observe(packets);
    }
  }
  renormalize_and_forget();
}

void AdaptiveForecastStrategy::observe(int packets) {
  observe_impl(packets, /*censored=*/false);
}

void AdaptiveForecastStrategy::observe_lower_bound(int packets) {
  observe_impl(packets, /*censored=*/true);
}

void AdaptiveForecastStrategy::renormalize_and_forget() {
  double max_lw = kNegInf;
  for (const Member& m : members_) max_lw = std::max(max_lw, m.log_weight);
  assert(max_lw != kNegInf);
  double sum = 0.0;
  for (Member& m : members_) sum += std::exp(m.log_weight - max_lw);
  const double log_sum = max_lw + std::log(sum);
  const double log_floor = std::log(adaptive_.min_weight);
  for (Member& m : members_) {
    // Normalize, forget toward uniform (log of a normalized weight is <= 0;
    // scaling it by `discount` moves it toward 0), then floor.
    m.log_weight = adaptive_.discount * (m.log_weight - log_sum);
    m.log_weight = std::max(m.log_weight, log_floor);
  }
}

RateDistribution AdaptiveForecastStrategy::mixture() const {
  RateDistribution mix(base_params_.num_bins);
  std::vector<double>& p = mix.mutable_probabilities();
  std::fill(p.begin(), p.end(), 0.0);
  const std::vector<double> w = hypothesis_weights();
  for (std::size_t k = 0; k < members_.size(); ++k) {
    const RateDistribution& d = members_[k].filter->distribution();
    for (int i = 0; i < d.num_bins(); ++i) {
      p[static_cast<std::size_t>(i)] += w[k] * d.probability(i);
    }
  }
  mix.normalize();
  return mix;
}

DeliveryForecast AdaptiveForecastStrategy::make_forecast(TimePoint now) const {
  const std::vector<double> w = hypothesis_weights();
  std::vector<ForecastTerm> terms;
  terms.reserve(members_.size());
  for (std::size_t k = 0; k < members_.size(); ++k) {
    terms.push_back({w[k], &members_[k].filter->distribution(),
                     members_[k].tables.get()});
  }
  return folded_forecast(base_params_, terms, /*normalize=*/true, now);
}

double AdaptiveForecastStrategy::estimated_rate_pps() const {
  return mixture().mean(base_params_);
}

std::vector<double> AdaptiveForecastStrategy::hypothesis_weights() const {
  std::vector<double> w;
  w.reserve(members_.size());
  double sum = 0.0;
  for (const Member& m : members_) {
    const double v = std::exp(m.log_weight);
    w.push_back(v);
    sum += v;
  }
  assert(sum > 0.0);
  for (double& v : w) v /= sum;
  return w;
}

const ModelHypothesis& AdaptiveForecastStrategy::map_hypothesis() const {
  std::size_t best = 0;
  for (std::size_t k = 1; k < members_.size(); ++k) {
    if (members_[k].log_weight > members_[best].log_weight) best = k;
  }
  return members_[best].hypothesis;
}

std::unique_ptr<ForecastStrategy> make_adaptive_strategy(const SproutParams& p,
                                                         AdaptiveParams a) {
  return std::make_unique<AdaptiveForecastStrategy>(p, std::move(a));
}

}  // namespace sprout
