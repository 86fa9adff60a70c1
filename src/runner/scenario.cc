#include "runner/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "aqm/codel.h"
#include "aqm/pie.h"
#include "link/cellsim.h"
#include "metrics/flow_metrics.h"
#include "obs/metrics.h"
#include "runner/detail.h"
#include "runner/registry.h"
#include "sim/relay.h"
#include "sim/simulator.h"
#include "tunnel/tunnel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sprout {

// --- LinkSpec / TopologySpec construction -------------------------------

LinkSpec LinkSpec::preset(const LinkPreset& preset) {
  LinkSpec spec;
  spec.source = Source::kPreset;
  spec.network = preset.network;
  spec.direction = preset.direction;
  return spec;
}

LinkSpec LinkSpec::preset(const std::string& network,
                          LinkDirection direction) {
  LinkSpec spec;
  spec.source = Source::kPreset;
  spec.network = network;
  spec.direction = direction;
  return spec;
}

LinkSpec LinkSpec::traces(Trace forward, Trace reverse) {
  LinkSpec spec;
  spec.source = Source::kTraces;
  spec.forward_trace = std::move(forward);
  spec.reverse_trace = std::move(reverse);
  return spec;
}

LinkSpec LinkSpec::trace_files(std::string forward_path,
                               std::string reverse_path) {
  LinkSpec spec;
  spec.source = Source::kTraceFiles;
  spec.forward_path = std::move(forward_path);
  spec.reverse_path = std::move(reverse_path);
  return spec;
}

LinkSpec LinkSpec::synthetic(CellProcessParams forward,
                             CellProcessParams reverse,
                             std::uint64_t forward_seed,
                             std::uint64_t reverse_seed) {
  LinkSpec spec;
  spec.source = Source::kSynthetic;
  spec.forward_process = forward;
  spec.reverse_process = reverse;
  spec.forward_process_seed = forward_seed;
  spec.reverse_process_seed = reverse_seed;
  return spec;
}

LinkSpec LinkSpec::synth(SynthSpec forward, SynthSpec reverse) {
  LinkSpec spec;
  spec.source = Source::kSynth;
  spec.forward_synth = std::move(forward);
  spec.reverse_synth = std::move(reverse);
  return spec;
}

std::string LinkSpec::name() const {
  switch (source) {
    case Source::kPreset:
      return network + " " + to_string(direction);
    case Source::kTraces:
      return "in-memory traces";
    case Source::kTraceFiles:
      return forward_path + " / " + reverse_path;
    case Source::kSynthetic:
      return "synthetic Cox process";
    case Source::kSynth:
      return "synth " + forward_synth.label() + " / " + reverse_synth.label();
  }
  return "link";
}

FlowSpec FlowSpec::of(SchemeId scheme) {
  FlowSpec f;
  f.scheme = scheme;
  return f;
}

FlowSpec FlowSpec::with_params(const SproutParams& params) const {
  FlowSpec f = *this;
  f.sprout_params = params;
  return f;
}

FlowSpec FlowSpec::active(Duration start_time,
                          std::optional<Duration> stop_time) const {
  FlowSpec f = *this;
  f.start = start_time;
  f.stop = stop_time;
  return f;
}

TopologySpec TopologySpec::single_flow() { return TopologySpec{}; }

TopologySpec TopologySpec::shared_queue(int num_flows) {
  TopologySpec t;
  t.kind = Kind::kSharedQueue;
  t.num_flows = num_flows;
  validate_topology(t);
  return t;
}

TopologySpec TopologySpec::heterogeneous_queue(std::vector<FlowSpec> flows) {
  if (flows.empty()) {
    throw std::invalid_argument(
        "heterogeneous shared queue needs a non-empty flow list");
  }
  TopologySpec t;
  t.kind = Kind::kSharedQueue;
  t.num_flows = static_cast<int>(flows.size());
  t.flows = std::move(flows);
  validate_topology(t);
  return t;
}

TopologySpec TopologySpec::tunnel_contention(bool via_tunnel) {
  TopologySpec t;
  t.kind = Kind::kTunnelContention;
  t.via_tunnel = via_tunnel;
  validate_topology(t);
  return t;
}

TopologySpec TopologySpec::tower(TowerSpec spec) {
  TopologySpec t;
  t.kind = Kind::kTower;
  t.tower_spec = std::move(spec);
  validate_topology(t);
  return t;
}

void validate_topology(const TopologySpec& topology) {
  using Kind = TopologySpec::Kind;
  // The precedence rule, uniformly: a non-empty flow list is only
  // meaningful to the shared-queue topology, and num_flows must agree with
  // it.  Silently ignoring either field would let two specs that simulate
  // identically carry different fingerprints — contradictions are
  // rejected, never resolved.
  if (!topology.flows.empty()) {
    if (topology.kind != Kind::kSharedQueue) {
      throw std::invalid_argument(
          "FlowSpec lists are only valid for shared-queue topologies");
    }
    if (topology.num_flows != static_cast<int>(topology.flows.size())) {
      throw std::invalid_argument(
          "topology num_flows disagrees with its flow list; build the spec "
          "with TopologySpec::heterogeneous_queue");
    }
  }
  if (topology.via_tunnel && topology.kind != Kind::kTunnelContention) {
    throw std::invalid_argument(
        "via_tunnel is only valid for tunnel-contention topologies");
  }
  switch (topology.kind) {
    case Kind::kSingleFlow:
      if (topology.num_flows != 1) {
        throw std::invalid_argument("single-flow topology with num_flows != 1");
      }
      break;
    case Kind::kSharedQueue:
      if (topology.num_flows < 1) {
        throw std::invalid_argument("scenario needs >= 1 flow");
      }
      break;
    case Kind::kTunnelContention:
      if (topology.num_flows != 1) {
        throw std::invalid_argument(
            "tunnel contention ignores num_flows; leave it at 1");
      }
      break;
    case Kind::kTower: {
      const TowerSpec& t = topology.tower_spec;
      if (topology.num_flows != 1) {
        throw std::invalid_argument(
            "tower topology ignores num_flows; leave it at 1");
      }
      if (t.num_users < 1) {
        throw std::invalid_argument("tower needs >= 1 initial user");
      }
      if (!(t.arrival_rate_per_s >= 0.0)) {
        throw std::invalid_argument("tower arrival rate must be >= 0");
      }
      if (!(t.mean_session_s >= 0.0)) {
        throw std::invalid_argument("tower mean session must be >= 0");
      }
      if (t.slot <= Duration::zero()) {
        throw std::invalid_argument("tower scheduler slot must be > 0");
      }
      if (t.pf_window < t.slot) {
        throw std::invalid_argument("tower pf_window must be >= slot");
      }
      if (t.channel.base != SynthSpec::Base::kBrownian &&
          t.channel.base != SynthSpec::Base::kMarkov) {
        throw std::invalid_argument(
            "tower channels must be live models (brownian or markov)");
      }
      if (!t.channel.ops.empty()) {
        throw std::invalid_argument(
            "tower channels take no op chain: the tower steps each user's "
            "rate process live, never materializing a trace");
      }
      validate_synth_spec(t.channel);
      if (t.mix.empty()) {
        throw std::invalid_argument("tower user mix must be non-empty");
      }
      for (const UserMixEntry& e : t.mix) {
        if (!(e.weight > 0.0) || !std::isfinite(e.weight)) {
          throw std::invalid_argument(
              "tower mix weights must be positive and finite: " +
              to_string(e.scheme));
        }
      }
      break;
    }
  }
}

ScenarioSpec single_flow_scenario(SchemeId scheme, const LinkPreset& link) {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.link = LinkSpec::preset(link);
  return spec;
}

ScenarioSpec shared_queue_scenario(SchemeId scheme, int num_flows,
                                   const LinkPreset& link) {
  ScenarioSpec spec;
  spec.scheme = scheme;
  spec.link = LinkSpec::preset(link);
  spec.topology = TopologySpec::shared_queue(num_flows);
  return spec;
}

ScenarioSpec heterogeneous_scenario(std::vector<FlowSpec> flows,
                                    const LinkPreset& link) {
  ScenarioSpec spec;
  if (!flows.empty()) spec.scheme = flows.front().scheme;
  spec.link = LinkSpec::preset(link);
  spec.topology = TopologySpec::heterogeneous_queue(std::move(flows));
  return spec;
}

ScenarioSpec tunnel_scenario(const std::string& network, bool via_tunnel) {
  ScenarioSpec spec;
  spec.link = LinkSpec::preset(network, LinkDirection::kDownlink);
  spec.topology = TopologySpec::tunnel_contention(via_tunnel);
  return spec;
}

// --- ScenarioResult single-flow views -----------------------------------

double ScenarioResult::throughput_kbps() const {
  return flows.empty() ? 0.0 : flows.front().throughput_kbps;
}

double ScenarioResult::delay95_ms() const {
  return flows.empty() ? 0.0 : flows.front().delay95_ms;
}

double ScenarioResult::mean_delay_ms() const {
  return flows.empty() ? 0.0 : flows.front().mean_delay_ms;
}

double ScenarioResult::utilization() const {
  return capacity_kbps > 0.0 ? throughput_kbps() / capacity_kbps : 0.0;
}

double ScenarioResult::self_inflicted_delay_ms() const {
  return std::max(0.0, delay95_ms() - omniscient_delay95_ms);
}

DelayStats ScenarioResult::population_delay() const {
  return population_delay_hist.configured() ? population_delay_hist.stats()
                                            : DelayStats{};
}

// --- ScenarioCache ------------------------------------------------------

std::shared_ptr<const Trace> ScenarioCache::trace(
    const std::string& key, const std::function<Trace()>& build) {
  // Counts unconditionally (cold path; tests assert exact deltas through
  // the registry with obs export on or off).
  static obs::Counter& hits =
      obs::Registry::instance().counter("cache.traces.hits");
  static obs::Counter& misses =
      obs::Registry::instance().counter("cache.traces.misses");
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = traces_.find(key);
    if (it != traces_.end()) {
      hits.add();
      return it->second;
    }
  }
  // Build outside the lock: distinct keys materialize concurrently in a
  // sweep.  If two threads race on one key the results are identical
  // (entries are deterministic functions of the key); first insert wins.
  auto built = std::make_shared<const Trace>(build());
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = traces_.emplace(key, std::move(built));
  if (inserted) {
    misses.add();
  } else {
    hits.add();
  }
  return it->second;
}

std::string synthetic_link_key(const CellProcessParams& params,
                               std::uint64_t seed, Duration duration) {
  std::ostringstream os;
  os << "synthetic|" << params.mean_rate_pps << '|' << params.volatility_pps
     << '|' << params.reversion_per_s << '|' << params.max_rate_pps << '|'
     << params.outage_hazard_per_s << '|' << params.outage_min_s << '|'
     << params.outage_alpha << '|' << params.step.count() << '|' << seed
     << '|' << duration.count();
  return os.str();
}

// --- link resolution ----------------------------------------------------

namespace {

LinkDirection opposite(LinkDirection d) {
  return d == LinkDirection::kDownlink ? LinkDirection::kUplink
                                       : LinkDirection::kDownlink;
}

struct ResolvedLink {
  std::shared_ptr<const Trace> forward;
  std::shared_ptr<const Trace> reverse;
};

std::shared_ptr<const Trace> materialize(ScenarioCache* cache,
                                         const std::string& key,
                                         const std::function<Trace()>& build) {
  if (cache != nullptr) return cache->trace(key, build);
  return std::make_shared<const Trace>(build());
}

ResolvedLink resolve_link(const LinkSpec& link, Duration run_time,
                          ScenarioCache* cache) {
  // Preset/synthetic traces are generated slightly past the run time so
  // the final window is fully covered.
  const Duration needed = run_time + sec(2);
  ResolvedLink resolved;
  switch (link.source) {
    case LinkSpec::Source::kPreset: {
      const LinkPreset& fwd = find_link_preset(link.network, link.direction);
      const LinkPreset& rev =
          find_link_preset(link.network, opposite(link.direction));
      const auto key = [&](const LinkPreset& p) {
        return "preset|" + p.name() + "|" + std::to_string(needed.count());
      };
      resolved.forward =
          materialize(cache, key(fwd), [&] { return preset_trace(fwd, needed); });
      resolved.reverse =
          materialize(cache, key(rev), [&] { return preset_trace(rev, needed); });
      break;
    }
    case LinkSpec::Source::kTraces:
      // Non-owning views: the spec outlives the run, so don't copy what
      // may be hundreds of thousands of opportunities per direction.
      resolved.forward = std::shared_ptr<const Trace>(
          std::shared_ptr<const Trace>{}, &link.forward_trace);
      resolved.reverse = std::shared_ptr<const Trace>(
          std::shared_ptr<const Trace>{}, &link.reverse_trace);
      break;
    case LinkSpec::Source::kTraceFiles:
      resolved.forward =
          materialize(cache, "file|" + link.forward_path,
                      [&] { return read_trace_file(link.forward_path); });
      resolved.reverse =
          materialize(cache, "file|" + link.reverse_path,
                      [&] { return read_trace_file(link.reverse_path); });
      break;
    case LinkSpec::Source::kSynthetic:
      resolved.forward = materialize(
          cache,
          synthetic_link_key(link.forward_process, link.forward_process_seed,
                             needed),
          [&] {
            return generate_trace(link.forward_process, needed,
                                  link.forward_process_seed);
          });
      resolved.reverse = materialize(
          cache,
          synthetic_link_key(link.reverse_process, link.reverse_process_seed,
                             needed),
          [&] {
            return generate_trace(link.reverse_process, needed,
                                  link.reverse_process_seed);
          });
      break;
    case LinkSpec::Source::kSynth:
      resolved.forward = materialize(
          cache, synth_key(link.forward_synth, needed),
          [&] { return generate_synth_trace(link.forward_synth, needed); });
      resolved.reverse = materialize(
          cache, synth_key(link.reverse_synth, needed),
          [&] { return generate_synth_trace(link.reverse_synth, needed); });
      break;
  }
  return resolved;
}

// --- generic topology: registry-built flows over two shared links -------

// The per-flow specs a topology resolves to: an explicit FlowSpec list as
// given, the homogeneous shapes as N copies of the scenario's scheme, and
// the §5.7 tunnel cell as its fixed pair (Cubic is flow 1, Skype flow 2).
std::vector<FlowSpec> effective_flow_specs(const ScenarioSpec& spec) {
  const TopologySpec& topo = spec.topology;
  if (topo.kind == TopologySpec::Kind::kSingleFlow) {
    return {FlowSpec::of(spec.scheme)};
  }
  if (topo.kind == TopologySpec::Kind::kTunnelContention) {
    return {FlowSpec::of(SchemeId::kCubic), FlowSpec::of(SchemeId::kSkype)};
  }
  if (!topo.flows.empty()) return topo.flows;
  if (topo.num_flows < 1) {
    throw std::invalid_argument("scenario needs >= 1 flow");
  }
  return std::vector<FlowSpec>(static_cast<std::size_t>(topo.num_flows),
                               FlowSpec::of(spec.scheme));
}

// Spec validation for one flow of a (possibly heterogeneous) topology.
void validate_flow_spec(const ScenarioSpec& spec, const FlowSpec& flow,
                        const SchemeInfo& scheme) {
  if (spec.topology.kind == TopologySpec::Kind::kSharedQueue &&
      !scheme.shared_queue_capable) {
    throw std::invalid_argument("scheme not supported in shared-queue: " +
                                scheme.name);
  }
  if (flow.start < Duration::zero() || flow.start >= spec.run_time) {
    throw std::invalid_argument("flow start outside [0, run_time): " +
                                scheme.name);
  }
  if (flow.stop.has_value() && *flow.stop <= flow.start) {
    throw std::invalid_argument("flow stop not after its start: " +
                                scheme.name);
  }
  // A flow whose activity window misses the measurement window entirely
  // would report all-zero metrics that silently poison cross-flow
  // aggregates; reject the spec instead.
  const Duration stop = flow.stop.value_or(spec.run_time);
  if (stop <= spec.warmup) {
    throw std::invalid_argument(
        "flow activity window does not overlap the measurement window: " +
        scheme.name);
  }
}

}  // namespace

namespace detail {

// Builds one direction's queue policy.  Called once per direction, forward
// first, so stochastic policies (PIE) fork deterministic per-direction
// seeds in a fixed order; DropTail is the absence of a policy.
std::unique_ptr<AqmPolicy> make_aqm_policy(LinkAqm aqm, Rng& seeder) {
  switch (aqm) {
    case LinkAqm::kAuto:
    case LinkAqm::kDropTail:
      return nullptr;
    case LinkAqm::kCoDel:
      return std::make_unique<CodelPolicy>();
    case LinkAqm::kPie:
      return std::make_unique<PiePolicy>(PieParams{}, seeder.fork_seed());
  }
  return nullptr;
}

// Reconciles the spec's explicit link policy with the policies the flows'
// schemes request.  The queue policy is a property of the LINK, not of any
// one flow: under kAuto it is inferred from the mix (the unique requesting
// scheme wins; two different requests are ambiguous and rejected).  An
// explicit policy wins over silence, but contradicting a flow's own request
// (kPie under a Cubic-CoDel flow) would silently redefine that scheme — a
// conflicting request is rejected instead.
LinkAqm resolve_link_aqm(const ScenarioSpec& spec,
                         const std::vector<const SchemeInfo*>& schemes) {
  const SchemeInfo* requester = nullptr;
  for (const SchemeInfo* s : schemes) {
    if (s->link_aqm == LinkAqm::kAuto) continue;
    if (spec.link_aqm != LinkAqm::kAuto && s->link_aqm != spec.link_aqm) {
      throw std::invalid_argument(
          "explicit link AQM " + to_string(spec.link_aqm) +
          " conflicts with the policy requested by " + s->name);
    }
    if (requester != nullptr && requester->link_aqm != s->link_aqm) {
      throw std::invalid_argument(
          "conflicting link AQM policies in one shared queue: " +
          requester->name + " vs " + s->name);
    }
    requester = s;
  }
  if (spec.link_aqm != LinkAqm::kAuto) return spec.link_aqm;
  return requester != nullptr ? requester->link_aqm : LinkAqm::kDropTail;
}

}  // namespace detail

namespace {

ScenarioResult run_flows(const ScenarioSpec& spec, const ResolvedLink& link) {
  const std::vector<FlowSpec> flow_specs = effective_flow_specs(spec);

  std::vector<const SchemeInfo*> schemes;
  schemes.reserve(flow_specs.size());
  for (const FlowSpec& f : flow_specs) {
    const SchemeInfo& scheme = SchemeRegistry::instance().info(f.scheme);
    validate_flow_spec(spec, f, scheme);
    schemes.push_back(&scheme);
  }

  const LinkAqm link_aqm = detail::resolve_link_aqm(spec, schemes);

  Simulator sim;
  Rng seeder(spec.seed);

  CellsimConfig fwd_cfg;
  fwd_cfg.propagation_delay = spec.propagation_delay_fwd;
  fwd_cfg.loss_rate = spec.loss_rate_fwd;
  fwd_cfg.seed = seeder.fork_seed();
  CellsimConfig rev_cfg = fwd_cfg;
  rev_cfg.propagation_delay = spec.propagation_delay_rev;
  rev_cfg.loss_rate = spec.loss_rate_rev;
  rev_cfg.seed = seeder.fork_seed();

  std::unique_ptr<AqmPolicy> fwd_policy =
      detail::make_aqm_policy(link_aqm, seeder);
  std::unique_ptr<AqmPolicy> rev_policy =
      detail::make_aqm_policy(link_aqm, seeder);

  RelaySink fwd_egress;
  RelaySink rev_egress;
  CellsimLink fwd_link(sim, Trace(*link.forward), fwd_cfg, fwd_egress,
                       std::move(fwd_policy));
  CellsimLink rev_link(sim, Trace(*link.reverse), rev_cfg, rev_egress,
                       std::move(rev_policy));

  DemuxSink fwd_demux;  // data arriving at the receivers
  DemuxSink rev_demux;  // feedback arriving at the senders

  SproutParams default_params;
  default_params.confidence_percent = spec.sprout_confidence;
  // In deployment the sender assumes one-way propagation = min RTT / 2;
  // under an asymmetric split that is the mean of the two directions.
  // Symmetric defaults leave this at the historical 20 ms.
  default_params.assumed_propagation =
      (spec.propagation_delay_fwd + spec.propagation_delay_rev) / 2;

  // §4.3 SproutTunnel: one server/mobile endpoint pair sits between every
  // flow and the links.  Flows push into the near endpoint's ingress; the
  // far endpoint decapsulates into the demux, which keeps the per-flow
  // byte ledger either way.  The tunnel's own Sprout session (flow id 100)
  // starts before any flow does.
  std::unique_ptr<TunnelEndpoint> server_tunnel;
  std::unique_ptr<TunnelEndpoint> mobile_tunnel;
  PacketSink* fwd_ingress = &fwd_link;
  PacketSink* rev_ingress = &rev_link;
  ByteCount mtu = kMtuBytes;
  if (spec.topology.via_tunnel) {
    constexpr std::int64_t kTunnelFlowId = 100;
    server_tunnel = std::make_unique<TunnelEndpoint>(
        sim, default_params, SproutVariant::kBayesian, kTunnelFlowId);
    mobile_tunnel = std::make_unique<TunnelEndpoint>(
        sim, default_params, SproutVariant::kBayesian, kTunnelFlowId);
    server_tunnel->attach_network(fwd_link);
    mobile_tunnel->attach_network(rev_link);
    fwd_egress.set_target(mobile_tunnel->network_sink());
    rev_egress.set_target(server_tunnel->network_sink());
    fwd_ingress = &server_tunnel->ingress();
    rev_ingress = &mobile_tunnel->ingress();
    mtu = server_tunnel->client_mtu();
    server_tunnel->start();
    mobile_tunnel->start();
  } else {
    fwd_egress.set_target(fwd_demux);
    rev_egress.set_target(rev_demux);
  }

  const TimePoint meas_from = TimePoint{} + spec.warmup;
  const TimePoint meas_to = TimePoint{} + spec.run_time;

  // Each flow is measured over its own activity window clipped to the
  // measurement window; cross-flow comparisons use the co-active window,
  // the interval where EVERY flow was live.  Pure functions of the spec,
  // so computable before the run — the streaming histograms and timeline
  // recorders need the windows up front.
  std::vector<TimePoint> flow_from(flow_specs.size());
  std::vector<TimePoint> flow_to(flow_specs.size());
  TimePoint co_from = meas_from;
  TimePoint co_to = meas_to;
  for (std::size_t f = 0; f < flow_specs.size(); ++f) {
    const FlowSpec& fs = flow_specs[f];
    flow_from[f] = std::max(meas_from, TimePoint{} + fs.start);
    flow_to[f] =
        fs.stop.has_value() ? std::min(meas_to, TimePoint{} + *fs.stop)
                            : meas_to;
    co_from = std::max(co_from, flow_from[f]);
    co_to = std::min(co_to, flow_to[f]);
  }
  const bool coactive = co_from < co_to;

  // Each flow keeps a streaming delay histogram over its window alongside
  // the retained record list, in the geometry the tower's users use too
  // (kDelayHistBin, kDelayHistMax), so delay_hist.stats() reports the same
  // fixed-bin p50/p95/p99/p999 on every topology.
  std::vector<StreamingMetricsConfig> delay_cfgs(flow_specs.size());
  for (std::size_t f = 0; f < flow_specs.size(); ++f) {
    delay_cfgs[f] = {flow_from[f], flow_to[f]};
  }

  // Flight recorders (if asked): one per flow for forecast + delivery
  // columns, plus one link-level recorder whose queue-depth and drop
  // columns finalize() grafts onto every flow's timeline (the queue is a
  // property of the shared link, not of any one flow).
  std::vector<std::unique_ptr<FlowTimelineRecorder>> flow_recs;
  std::unique_ptr<FlowTimelineRecorder> link_rec;
  if (spec.record_timeline) {
    flow_recs.reserve(flow_specs.size());
    for (std::size_t f = 0; f < flow_specs.size(); ++f) {
      flow_recs.push_back(std::make_unique<FlowTimelineRecorder>(
          spec.timeline_bin, TimePoint{}, meas_to));
    }
    link_rec = std::make_unique<FlowTimelineRecorder>(spec.timeline_bin,
                                                      TimePoint{}, meas_to);
    fwd_link.set_timeline_recorder(link_rec.get());
  }

  // Declared before the flows: each SchemeFlow holds references to its
  // gates, so they must outlive the flows at scope exit.
  std::vector<std::unique_ptr<GateSink>> gates;
  std::vector<std::unique_ptr<SchemeFlow>> flows;
  flows.reserve(flow_specs.size());
  for (std::size_t f = 0; f < flow_specs.size(); ++f) {
    const FlowSpec& fs = flow_specs[f];
    const std::int64_t id = static_cast<std::int64_t>(f) + 1;
    // A stopping flow's traffic is gated at BOTH ingresses: after the stop
    // instant neither its data nor its feedback enters a queue.
    PacketSink* flow_fwd = fwd_ingress;
    PacketSink* flow_rev = rev_ingress;
    if (fs.stop.has_value()) {
      const TimePoint close_at = TimePoint{} + *fs.stop;
      gates.push_back(std::make_unique<GateSink>(sim, *fwd_ingress, close_at));
      flow_fwd = gates.back().get();
      gates.push_back(std::make_unique<GateSink>(sim, *rev_ingress, close_at));
      flow_rev = gates.back().get();
    }
    FlowContext ctx{sim,
                    fs.sprout_params.value_or(default_params),
                    id,
                    static_cast<int>(f),
                    *flow_fwd,
                    *flow_rev,
                    fwd_link.trace(),
                    spec.propagation_delay_fwd,
                    spec.run_time,
                    /*streaming_metrics=*/nullptr,
                    &delay_cfgs[f],
                    spec.record_timeline ? flow_recs[f].get() : nullptr,
                    mtu};
    auto flow = schemes[f]->make_flow(ctx);
    fwd_demux.route(id, flow->data_egress());
    if (PacketSink* feedback = flow->feedback_egress()) {
      rev_demux.route(id, *feedback);
    }
    if (spec.topology.via_tunnel) {
      mobile_tunnel->set_egress(id, fwd_demux);
      server_tunnel->set_egress(id, rev_demux);
    }
    // A flow starting at the origin starts before the event loop runs,
    // exactly as the homogeneous engine always did; a late joiner's clocks
    // begin at its start instant.
    if (fs.start == Duration::zero()) {
      flow->start();
    } else {
      sim.at(TimePoint{} + fs.start, [raw = flow.get()] { raw->start(); });
    }
    flows.push_back(std::move(flow));
  }

  sim.run_until(TimePoint{} + spec.run_time);

  ScenarioResult r;
  r.coactive_from_s = coactive ? to_seconds(co_from.time_since_epoch()) : 0.0;
  r.coactive_to_s = coactive ? to_seconds(co_to.time_since_epoch()) : 0.0;
  r.coactive_capacity_kbps =
      coactive ? link_capacity_kbps(fwd_link.trace(), co_from, co_to) : 0.0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const FlowMetrics& m = flows[f]->metrics();
    const TimePoint from = flow_from[f];
    const TimePoint to = flow_to[f];
    FlowResult fr;
    fr.label = schemes[f]->name;
    fr.scheme = schemes[f]->id;
    fr.active_from_s = to_seconds(from.time_since_epoch());
    fr.active_to_s = to_seconds(to.time_since_epoch());
    fr.throughput_kbps = m.throughput_kbps(from, to);
    fr.delay95_ms = m.delay_percentile_ms(95.0, from, to);
    fr.mean_delay_ms = m.mean_delay_ms(from, to);
    fr.delivered_bytes =
        fwd_demux.delivered_bytes(static_cast<std::int64_t>(f) + 1);
    fr.delay_hist = m.histogram();
    if (spec.record_timeline) {
      fr.timeline = flow_recs[f]->finalize(&fwd_link.trace(), link_rec.get());
    }
    if (coactive) {
      fr.coactive_throughput_kbps = m.throughput_kbps(co_from, co_to);
      fr.capacity_share = r.coactive_capacity_kbps > 0.0
                              ? fr.coactive_throughput_kbps /
                                    r.coactive_capacity_kbps
                              : 0.0;
    }
    // Aggregate as bytes over the MEASUREMENT window: each flow's rate is
    // weighted by its own window length, so staggered flows contribute
    // the bytes delivered inside their activity windows and utilization
    // stays <= 1.  Bytes a stopped flow's standing queue drains after its
    // stop instant are attributed to no flow (they show up in
    // packets_delivered only) — see the FlowResult window note.
    r.aggregate_throughput_kbps +=
        fr.throughput_kbps * (fr.active_to_s - fr.active_from_s) /
        to_seconds(meas_to - meas_from);
    r.max_delay95_ms = std::max(r.max_delay95_ms, fr.delay95_ms);
    r.flows.push_back(std::move(fr));
  }
  if (coactive) {
    std::vector<double> shares;
    shares.reserve(r.flows.size());
    for (const FlowResult& fr : r.flows) {
      shares.push_back(fr.coactive_throughput_kbps);
    }
    r.jain_index = jain_fairness(shares);
  } else {
    // No instant where all flows were live: cross-flow fairness is
    // undefined, and any number here would be fabricated.
    r.jain_index = std::numeric_limits<double>::quiet_NaN();
  }
  r.capacity_kbps = link_capacity_kbps(fwd_link.trace(), meas_from, meas_to);
  r.aggregate_utilization =
      r.capacity_kbps > 0.0 ? r.aggregate_throughput_kbps / r.capacity_kbps
                            : 0.0;
  // The baseline measures the data path only, so it rides the forward
  // propagation; the reverse direction delays feedback, not deliveries.
  r.omniscient_delay95_ms = omniscient_delay_percentile_ms(
      fwd_link.trace(), 95.0, meas_from, meas_to, spec.propagation_delay_fwd);
  r.packets_delivered = fwd_link.delivered_packets();
  r.link_drops = fwd_link.random_drops() + fwd_link.queue_drops();
  return r;
}

}  // namespace

double scheme_cost_weight(SchemeId scheme) {
  // Wall time per simulated second relative to Cubic, measured on the 60 s
  // Verizon-LTE-downlink single-flow scenario (best of 3 reps, warm trace
  // cache, Release -O2, 2026-08, banded + SIMD inference as shipped).  Raw
  // timings, seconds per 60 simulated seconds: Sprout 0.42, Sprout-EWMA
  // 0.028, Skype 0.009, Facetime 0.010, Hangout 0.010, Cubic 0.040, Vegas
  // 0.025, Compound 0.029, LEDBAT 0.028, Cubic-CoDel 0.022, Omniscient
  // 0.017, GCC 0.010, FAST 0.032, Cubic-PIE 0.027, Sprout-Adaptive 2.41,
  // Sprout-MMPP 0.027, Sprout-Empirical 0.44, NewReno 0.035.  The banded
  // evolve compressed the forecaster-bearing schemes' lead: Sprout fell
  // from 30x Cubic to ~11x and the Adaptive ensemble from 190x to ~60x
  // (Empirical barely moved — its windowed quantiles were never
  // matrix-bound).  Folding the forecast's horizon evolution into tables
  // (2026-10) cut the two forecaster-bearing schemes again; re-measured the
  // same way (a Release build, gcc 12.2, a shared 4-vCPU 2.1 GHz Xeon), the
  // medians of 7 rounds of best-of-3 are Cubic 0.043, Sprout 0.130 and
  // Sprout-Adaptive 1.05 s per 60 simulated seconds: Sprout ~3x Cubic, the
  // ensemble ~24x.  Tiling the evolve, tabling the observe likelihoods and
  // galloping the forecast search (2026-10) cut them again; re-measured the
  // same way, the medians are Cubic 0.055, Sprout 0.092 and
  // Sprout-Adaptive 0.71 s: Sprout ~1.7x Cubic, the ensemble ~13x.  A
  // one-way session now forecasts only at its data receiver, not at the
  // sender for the heartbeat stream (2026-10).  Re-measured the same way on
  // a shared 4-vCPU Xeon (gcc 12.2 Release), medians of 14 rounds: Cubic
  // 0.025, Sprout 0.041, Sprout-EWMA 0.014, Sprout-Adaptive 0.28,
  // Sprout-MMPP 0.015 and Sprout-Empirical 0.23 s, so the five Sprout-family
  // weights are 1.6, 0.55, 11, 0.6 and 9.3 (the same host read 2.7, 0.68,
  // 20, 0.91 and 17 with both receivers).  The other schemes run no
  // forecaster and keep their weights.  Sprout-bearing cells still dominate
  // shard makespans, so LPT plans keyed on these weights remain far better
  // than cell-count balance.
  // Constants are rounded: they are ordering keys, not wall-clock
  // predictions.
  switch (scheme) {
    case SchemeId::kSprout: return 1.6;
    case SchemeId::kSproutEwma: return 0.55;
    case SchemeId::kSkype: return 0.24;
    case SchemeId::kFacetime: return 0.26;
    case SchemeId::kHangout: return 0.24;
    case SchemeId::kCubic: return 1.0;
    case SchemeId::kVegas: return 0.65;
    case SchemeId::kCompound: return 0.75;
    case SchemeId::kLedbat: return 0.7;
    case SchemeId::kCubicCodel: return 0.55;
    case SchemeId::kOmniscient: return 0.45;
    case SchemeId::kGcc: return 0.25;
    case SchemeId::kFast: return 0.8;
    case SchemeId::kCubicPie: return 0.65;
    case SchemeId::kSproutAdaptive: return 11.0;
    case SchemeId::kSproutMmpp: return 0.6;
    case SchemeId::kSproutEmpirical: return 9.3;
    case SchemeId::kReno: return 0.9;
  }
  return 1.0;
}

double estimated_cost(const ScenarioSpec& spec) {
  // Simulated work scales with how long the event loop runs and with the
  // per-scheme weight of every endpoint pair feeding it.  The tunnel
  // scenario sums its fixed flow pair, plus a Sprout-weight surcharge
  // when the pair rides SproutTunnel (measured: the tunnel's two
  // forecasters, one per direction, cost 1.07 one-way Sprout flows, which
  // run one each); shared queues sum their flow list (or num_flows
  // copies); a single flow is its own weight.
  double weight = 0.0;
  switch (spec.topology.kind) {
    case TopologySpec::Kind::kSingleFlow:
      weight = scheme_cost_weight(spec.scheme);
      break;
    case TopologySpec::Kind::kSharedQueue:
      if (spec.topology.flows.empty()) {
        weight = static_cast<double>(std::max(spec.topology.num_flows, 1)) *
                 scheme_cost_weight(spec.scheme);
      } else {
        for (const FlowSpec& f : spec.topology.flows) {
          weight += scheme_cost_weight(f.scheme);
        }
      }
      break;
    case TopologySpec::Kind::kTunnelContention:
      for (const FlowSpec& f : effective_flow_specs(spec)) {
        weight += scheme_cost_weight(f.scheme);
      }
      if (spec.topology.via_tunnel) {
        weight += scheme_cost_weight(SchemeId::kSprout);
      }
      break;
    case TopologySpec::Kind::kTower: {
      // Expected user-seconds: each of the expected arrivals (initial
      // population plus Poisson newcomers) contributes its expected session
      // length, clamped to the run; weight each user-second by the mix's
      // mean scheme weight.
      const TowerSpec& t = spec.topology.tower_spec;
      const double run_s = to_seconds(spec.run_time);
      const double session_s = t.mean_session_s > 0.0
                                   ? std::min(t.mean_session_s, run_s)
                                   : run_s;
      const double expected_users =
          static_cast<double>(t.num_users) + t.arrival_rate_per_s * run_s;
      double mean_weight = 0.0;
      double total = 0.0;
      for (const UserMixEntry& e : t.mix) {
        mean_weight += e.weight * scheme_cost_weight(e.scheme);
        total += e.weight;
      }
      mean_weight = total > 0.0 ? mean_weight / total : 1.0;
      return expected_users * session_s * mean_weight;
    }
  }
  return to_seconds(spec.run_time) * weight;
}

ScenarioResult run_scenario(const ScenarioSpec& spec, ScenarioCache* cache) {
  if (spec.propagation_delay_fwd < Duration::zero() ||
      spec.propagation_delay_rev < Duration::zero()) {
    throw std::invalid_argument("propagation delays must be >= 0");
  }
  if (spec.record_timeline && spec.timeline_bin <= Duration::zero()) {
    throw std::invalid_argument(
        "record_timeline needs a positive timeline_bin");
  }
  // All topology-internal consistency rules (flow-list-vs-num_flows
  // precedence, per-kind field constraints) live in validate_topology —
  // the builders ran it at construction, this re-checks hand-assembled
  // specs.
  validate_topology(spec.topology);
  if (spec.topology.kind == TopologySpec::Kind::kTower) {
    if (spec.warmup >= spec.run_time) {
      throw std::invalid_argument("tower warmup must be < run_time");
    }
    return detail::run_tower(spec);
  }
  return run_flows(spec, resolve_link(spec.link, spec.run_time, cache));
}

}  // namespace sprout
