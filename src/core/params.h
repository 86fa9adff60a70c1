// Sprout's model and protocol parameters.
//
// The paper froze these before collecting any traces (§3.1, §5): 256 rate
// bins spanning 0..1000 MTU-packets/s, 20 ms ticks, Brownian noise power
// σ = 200 packets/s/√s, outage escape rate λz = 1/s, a 5th-percentile
// ("95% confidence") forecast over 8 ticks, and a 100 ms (5-tick) sender
// lookahead.  Everything is configurable for the ablation benches, but the
// defaults are the paper's.
#pragma once

#include "util/units.h"

namespace sprout {

struct SproutParams {
  // --- stochastic model (§3.1-3.2) ---
  int num_bins = 256;
  double max_rate_pps = 1000.0;           // MTU-sized packets per second
  Duration tick = msec(20);
  double sigma_pps_per_sqrt_s = 200.0;    // Brownian noise power σ
  double outage_escape_rate_per_s = 1.0;  // λz

  // --- forecast (§3.3) ---
  int forecast_horizon_ticks = 8;   // 160 ms
  double confidence_percent = 95.0; // forecast holds with this probability
                                    // (=> the (100-c)th percentile of the
                                    // delivery distribution; Figure 9 sweeps it)
  int max_count = 512;              // cumulative-packet table size
  // Whether the forecast percentile is taken over the λ-mixture of Poisson
  // counting noise (the paper's literal §3.3 text) or over the λ-posterior
  // alone (deliveries = λ·t given λ).  At 20 ms granularity the counting
  // noise dominates the quantile (the 5th percentile of Poisson(10) is 5),
  // which makes the window so starved the protocol cannot sustain its own
  // feedback loop; the rate-quantile forecast preserves the model's caution
  // (posterior width, outage mass) and reproduces the paper's behaviour.
  // Kept as a switch for the ablation bench.
  bool count_noise_in_forecast = false;

  // --- inference fast path ---
  // The Brownian transition matrix is near-banded: one tick's σ spans a few
  // bins, so each row keeps ≥ 1−ε of its mass in a short [lo, hi) span.
  // The evolve kernel stores that span packed and renormalized and skips
  // the rest, making evolution O(bins · bandwidth) instead of O(bins²).
  // ε bounds the per-tick model perturbation (the golden-metrics lock
  // verifies the end-to-end effect stays inside its tolerance).  ε = 0 is
  // the exact reference, bit-identical to the full dense pass, for golden
  // regeneration and banded-vs-dense equivalence tests.
  double band_epsilon = 1e-12;

  // --- sender (§3.4-3.5) ---
  int sender_lookahead_ticks = 5;       // 100 ms delay tolerance
  Duration throwaway_window = msec(10); // reorder horizon for the throwaway no.
  // One-way propagation the sender assumes when deciding whether
  // unacknowledged bytes were genuinely queued (in deployment: min RTT / 2).
  Duration assumed_propagation = msec(20);
  ByteCount mtu = kMtuBytes;
  ByteCount heartbeat_bytes = 50;       // idle keepalive size

  [[nodiscard]] double tick_seconds() const { return to_seconds(tick); }
  // Rate represented by bin i (bins sample [0, max] uniformly; bin 0 is the
  // outage state).
  [[nodiscard]] double bin_rate(int i) const {
    return max_rate_pps * static_cast<double>(i) /
           static_cast<double>(num_bins - 1);
  }
  // The percentile of the cumulative-delivery distribution the forecast
  // reports: 95% confidence -> 5th percentile.
  [[nodiscard]] double forecast_percentile() const {
    return 100.0 - confidence_percent;
  }
};

}  // namespace sprout
