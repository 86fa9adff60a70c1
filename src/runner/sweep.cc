#include "runner/sweep.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "runner/registry.h"

namespace sprout {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Fnv {
  std::uint64_t state = kFnv1aOffsetBasis;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state ^= p[i];
      state *= kFnvPrime;
    }
  }
  void u64(std::uint64_t v) { state = fnv1a_u64(state, v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

void hash_sprout_params(Fnv& h, const SproutParams& p) {
  h.i64(p.num_bins);
  h.f64(p.max_rate_pps);
  h.i64(p.tick.count());
  h.f64(p.sigma_pps_per_sqrt_s);
  h.f64(p.outage_escape_rate_per_s);
  h.i64(p.forecast_horizon_ticks);
  h.f64(p.confidence_percent);
  h.i64(p.max_count);
  h.u64(p.count_noise_in_forecast ? 1 : 0);
  h.i64(p.sender_lookahead_ticks);
  h.i64(p.throwaway_window.count());
  h.i64(p.assumed_propagation.count());
  h.i64(p.mtu);
  h.i64(p.heartbeat_bytes);
  // The fast-path knob is hashed only when moved off its default, so every
  // fingerprint (and the content-derived seeds built from them) from before
  // the knob existed stays stable.
  if (p.band_epsilon != 1e-12) h.f64(p.band_epsilon);
}

void hash_flow_spec(Fnv& h, const FlowSpec& f) {
  h.u64(static_cast<std::uint64_t>(f.scheme));
  h.u64(f.sprout_params.has_value() ? 1 : 0);
  if (f.sprout_params.has_value()) hash_sprout_params(h, *f.sprout_params);
  h.i64(f.start.count());
  h.u64(f.stop.has_value() ? 1 : 0);
  if (f.stop.has_value()) h.i64(f.stop->count());
}

void hash_trace(Fnv& h, const Trace& t) {
  // Sampling keeps fingerprinting giant traces cheap; a collision between
  // distinct traces only means two cells derive the same seed, which is
  // harmless (seeds need determinism, not uniqueness).
  const auto& opp = t.opportunities();
  h.u64(opp.size());
  h.i64(t.duration().count());
  const std::size_t stride = opp.size() > 4096 ? opp.size() / 4096 : 1;
  for (std::size_t i = 0; i < opp.size(); i += stride) {
    h.i64(opp[i].time_since_epoch().count());
  }
}

}  // namespace

std::uint64_t scenario_fingerprint(const ScenarioSpec& spec) {
  Fnv h;
  if (spec.topology.kind == TopologySpec::Kind::kTower) {
    // Tower cells ignore spec.scheme, spec.link, the flow list, via_tunnel
    // and the series-capture knobs — every simulated input lives in the
    // TowerSpec — so only what the runner actually consumes is hashed.
    // Hashing ignored fields would make equivalent cells (same tower, any
    // leftover link config) derive different seeds.
    h.u64(static_cast<std::uint64_t>(spec.topology.kind));
    const TowerSpec& t = spec.topology.tower_spec;
    h.i64(t.num_users);
    h.f64(t.arrival_rate_per_s);
    h.f64(t.mean_session_s);
    h.i64(t.slot.count());
    h.i64(t.pf_window.count());
    // Canonical cache key, same discipline as kSynth links: enumerates
    // every SynthSpec field, so fingerprint coverage can't drift.
    h.str(synth_key(t.channel, spec.run_time));
    h.u64(t.mix.size());
    for (const UserMixEntry& e : t.mix) {
      h.u64(static_cast<std::uint64_t>(e.scheme));
      h.f64(e.weight);
    }
    // Fixed, but hashed: the pair is part of every tower fingerprint, so
    // content-derived seeds and the golden tower grid depend on it.
    h.i64(kDelayHistBin.count());
    h.i64(kDelayHistMax.count());
    if (spec.link_aqm != LinkAqm::kAuto) {
      h.u64(static_cast<std::uint64_t>(spec.link_aqm));
    }
    h.i64(spec.run_time.count());
    h.i64(spec.warmup.count());
    h.i64(spec.propagation_delay_fwd.count());
    if (spec.propagation_delay_rev != spec.propagation_delay_fwd) {
      h.i64(spec.propagation_delay_rev.count());
    }
    h.f64(spec.loss_rate_fwd);
    if (spec.loss_rate_rev != spec.loss_rate_fwd) h.f64(spec.loss_rate_rev);
    h.f64(spec.sprout_confidence);
    h.u64(spec.seed);
    return h.state;
  }
  h.u64(static_cast<std::uint64_t>(spec.scheme));
  h.u64(static_cast<std::uint64_t>(spec.link.source));
  switch (spec.link.source) {
    case LinkSpec::Source::kPreset:
      h.str(spec.link.network);
      h.u64(static_cast<std::uint64_t>(spec.link.direction));
      break;
    case LinkSpec::Source::kTraces:
      hash_trace(h, spec.link.forward_trace);
      hash_trace(h, spec.link.reverse_trace);
      break;
    case LinkSpec::Source::kTraceFiles:
      h.str(spec.link.forward_path);
      h.str(spec.link.reverse_path);
      break;
    case LinkSpec::Source::kSynthetic:
      // Hash the canonical cache key so field coverage can't drift from
      // what the trace cache distinguishes.
      h.str(synthetic_link_key(spec.link.forward_process,
                               spec.link.forward_process_seed,
                               spec.run_time));
      h.str(synthetic_link_key(spec.link.reverse_process,
                               spec.link.reverse_process_seed,
                               spec.run_time));
      break;
    case LinkSpec::Source::kSynth:
      // Same discipline: the canonical key enumerates every SynthSpec
      // field, so fingerprints and the trace cache agree by construction.
      h.str(synth_key(spec.link.forward_synth, spec.run_time));
      h.str(synth_key(spec.link.reverse_synth, spec.run_time));
      break;
  }
  h.u64(static_cast<std::uint64_t>(spec.topology.kind));
  h.i64(spec.topology.num_flows);
  // Canonicalize before hashing: an explicit flow list where every entry
  // is the homogeneous default of the scenario's scheme SIMULATES
  // identically to the num_flows shorthand, so it must fingerprint (and
  // therefore derive seeds) identically too.  Only a list that actually
  // diverges from the shorthand is hashed.
  const auto is_default_flow = [&](const FlowSpec& f) {
    return f.scheme == spec.scheme && !f.sprout_params.has_value() &&
           f.start == Duration::zero() && !f.stop.has_value();
  };
  const bool homogeneous_list =
      std::all_of(spec.topology.flows.begin(), spec.topology.flows.end(),
                  is_default_flow);
  if (!homogeneous_list) {
    h.u64(spec.topology.flows.size());
    for (const FlowSpec& f : spec.topology.flows) hash_flow_spec(h, f);
  }
  h.u64(spec.topology.via_tunnel ? 1 : 0);
  // Canonical encoding again: kAuto is the field's "absent" state, and
  // hashing it for every pre-existing spec would have shifted every derived
  // seed when the field was introduced.  Only an explicit policy is hashed.
  if (spec.link_aqm != LinkAqm::kAuto) {
    h.u64(static_cast<std::uint64_t>(spec.link_aqm));
  }
  h.i64(spec.run_time.count());
  h.i64(spec.warmup.count());
  h.i64(spec.propagation_delay_fwd.count());
  // Mirror the loss split below: only an asymmetric propagation split is
  // hashed, so symmetric specs — the only kind that predates the split —
  // keep their fingerprints and content-derived seeds.
  if (spec.propagation_delay_rev != spec.propagation_delay_fwd) {
    h.i64(spec.propagation_delay_rev.count());
  }
  h.f64(spec.loss_rate_fwd);
  // Only an asymmetric split is hashed.  Symmetric specs — the only kind
  // that could exist before the loss_rate field split — keep their
  // pre-split fingerprints, so content-derived seeds (and golden results)
  // stay stable.
  if (spec.loss_rate_rev != spec.loss_rate_fwd) h.f64(spec.loss_rate_rev);
  h.f64(spec.sprout_confidence);
  h.u64(spec.seed);
  // Two removed fields (capture_series, series_bin) are still hashed at
  // their old defaults — off and 500 ms — so the fingerprints and
  // content-derived seeds of existing specs and result files do not move.
  h.u64(0);
  h.i64(msec(500).count());
  return h.state;
}

std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               const ScenarioSpec& spec) {
  // splitmix64 finalizer over (base ⊕ fingerprint): well-mixed, and a
  // pure function of sweep seed + cell content — never of cell position.
  std::uint64_t z = base_seed ^ scenario_fingerprint(spec);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> longest_first_order(
    const std::vector<ScenarioSpec>& cells, std::vector<std::size_t> indices) {
  // Sorting (-cost, index) pairs ascending is descending cost, ties by index.
  std::vector<std::pair<double, std::size_t>> keyed;
  keyed.reserve(indices.size());
  for (const std::size_t i : indices) {
    keyed.emplace_back(-estimated_cost(cells[i]), i);
  }
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t k = 0; k < keyed.size(); ++k) indices[k] = keyed[k].second;
  return indices;
}

}  // namespace sprout
