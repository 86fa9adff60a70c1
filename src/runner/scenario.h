// The unified scenario engine.
//
// One ScenarioSpec describes everything the runner can simulate: which
// scheme, over which link (a named preset, caller-supplied traces, trace
// files on disk, or a synthetic Cox-process spec), in which topology (one
// flow on a dedicated queue, N flows commingled in one shared queue, the
// §5.7 tunnel-contention pair, or a PF cell tower), for how long, under
// what loss and seed.  run_scenario() is the single entry point every
// bench, example and test builds on.  Every topology but the tower runs on
// one runner, whose flows come from the scheme registry.
//
// Topology (data flowing in the link's forward direction):
//
//   sender endpoint(s) --> Cellsim(fwd trace) --> [demux+metrics] --> rcvr(s)
//        ^                                                             |
//        +------------ Cellsim(rev trace) <-- feedback/acks -----------+
//
// Both directions use the same network's traces (e.g. "Verizon LTE
// downlink" carries the data, "Verizon LTE uplink" the feedback), a 20 ms
// propagation delay each way (40 ms minimum RTT), and optional Bernoulli
// loss and AQM, exactly as in §4.2.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/params.h"
#include "metrics/histogram.h"
#include "metrics/recorder.h"
#include "runner/schemes.h"
#include "synth/synth.h"
#include "trace/presets.h"
#include "trace/synthetic.h"
#include "trace/trace.h"
#include "util/units.h"

namespace sprout {

// Where the two directions' delivery traces come from.
struct LinkSpec {
  enum class Source {
    kPreset,     // one of the eight traced networks (trace/presets.h)
    kTraces,     // caller-supplied in-memory traces
    kTraceFiles, // mahimahi-format files, parsed (and cached) by the engine
    kSynthetic,  // generate from explicit Cox-process parameters
    kSynth,      // full channel-synthesis spec: base model + op chain
  };

  Source source = Source::kPreset;

  // kPreset: data direction; feedback uses the same network's twin.
  std::string network = "Verizon LTE";
  LinkDirection direction = LinkDirection::kDownlink;

  // kTraces.
  Trace forward_trace;
  Trace reverse_trace;

  // kTraceFiles.
  std::string forward_path;
  std::string reverse_path;

  // kSynthetic: per-direction process parameters and generator seeds.
  CellProcessParams forward_process;
  CellProcessParams reverse_process;
  std::uint64_t forward_process_seed = 1;
  std::uint64_t reverse_process_seed = 2;

  // kSynth: per-direction channel-synthesis specs (synth/synth.h) — a base
  // model or saved trace plus composable overlay/augmentation ops, each
  // with its own root seed.
  SynthSpec forward_synth;
  SynthSpec reverse_synth;

  [[nodiscard]] static LinkSpec preset(const LinkPreset& preset);
  [[nodiscard]] static LinkSpec preset(const std::string& network,
                                       LinkDirection direction);
  [[nodiscard]] static LinkSpec traces(Trace forward, Trace reverse);
  [[nodiscard]] static LinkSpec trace_files(std::string forward_path,
                                            std::string reverse_path);
  [[nodiscard]] static LinkSpec synthetic(CellProcessParams forward,
                                          CellProcessParams reverse,
                                          std::uint64_t forward_seed = 1,
                                          std::uint64_t reverse_seed = 2);
  [[nodiscard]] static LinkSpec synth(SynthSpec forward, SynthSpec reverse);

  // Human-readable link label ("Verizon LTE downlink", a file path, ...).
  [[nodiscard]] std::string name() const;
};

// One flow of a shared-queue topology.  The default FlowSpec inherits the
// scenario's scheme and Sprout parameters and is active for the whole run;
// heterogeneous topologies list one FlowSpec per flow, each with its own
// scheme, an optional full SproutParams override (ablation sweeps), and a
// staggered activity window for ramp-up / late-joiner dynamics.
struct FlowSpec {
  SchemeId scheme = SchemeId::kSprout;
  // Full per-flow Sprout parameter override.  When absent the flow uses
  // the scenario's defaults (SproutParams with spec.sprout_confidence).
  std::optional<SproutParams> sprout_params;
  // When the flow's clocks start, relative to the scenario origin.
  Duration start = Duration::zero();
  // When the flow leaves the network (its packets stop entering either
  // queue).  Absent = active until the end of the run.
  std::optional<Duration> stop;

  // Value-returning builders, safe to chain on temporaries:
  //   FlowSpec::of(SchemeId::kCubic).active(sec(60), sec(180))
  [[nodiscard]] static FlowSpec of(SchemeId scheme);
  [[nodiscard]] FlowSpec with_params(const SproutParams& params) const;
  [[nodiscard]] FlowSpec active(
      Duration start, std::optional<Duration> stop = std::nullopt) const;
};

// One entry of a tower's user mix: a scheme and its sampling weight.
// Each arriving user draws its scheme from the mix, weights normalized
// over the list (so {Cubic:3, Sprout:1} is 75% / 25%).
struct UserMixEntry {
  SchemeId scheme = SchemeId::kCubic;
  double weight = 1.0;
};

// A cell tower serving a churning population: N per-user downlink queues
// scheduled by the proportional-fair rule, each user's radio channel an
// independent synth-model rate process, users arriving under a Poisson
// process and departing after exponentially-distributed sessions.  Every
// random draw derives from the scenario seed, so tower sweeps stay
// bit-identical serial vs thread-pool vs process-sharded.
struct TowerSpec {
  // Users attached at t = 0 (ids 1..num_users).
  int num_users = 64;
  // Poisson arrival rate of NEW users after t = 0; 0 = closed population.
  double arrival_rate_per_s = 0.0;
  // Mean exponential session length; 0 = users stay until the end.
  double mean_session_s = 0.0;
  // PF scheduler slot (one user served per slot).
  Duration slot = msec(2);
  // EWMA horizon of the PF rule's per-user average-rate estimate.
  Duration pf_window = msec(1500);
  // Per-user channel process.  Must be a live model (brownian/markov) with
  // no op chain: the tower steps each user's process lazily as scheduled,
  // never materializing whole traces.  Each user's process forks its own
  // seed from channel.seed and the user id.
  SynthSpec channel;
  // Scheme mix sampled per arriving user; must be non-empty with positive
  // weights.
  std::vector<UserMixEntry> mix = {UserMixEntry{}};
};

// How many flows, and how they share the emulated queues.
struct TopologySpec {
  enum class Kind {
    kSingleFlow,        // one sender/receiver pair, dedicated queues
    kSharedQueue,       // flows commingled in ONE queue (§7, heterogeneous)
    // §5.7: the two-flow queue {Cubic, Skype} — a bulk download and a
    // call, Cubic as flow 1 — direct or through SproutTunnel.
    kTunnelContention,
    kTower,             // PF cell tower, per-user queues, Poisson churn
  };

  Kind kind = Kind::kSingleFlow;
  // kSharedQueue with an empty `flows` list: num_flows identical copies of
  // the scenario's scheme (the paper's §7 homogeneous shape).  A non-empty
  // `flows` list describes each flow explicitly and num_flows must equal
  // flows.size(); validate_topology() rejects any other combination as a
  // contradiction rather than silently preferring one field.
  int num_flows = 1;
  std::vector<FlowSpec> flows;
  // kTunnelContention only: every flow's data and feedback ride one
  // server/mobile SproutTunnel endpoint pair (§4.3) instead of entering
  // the links directly, and flows size packets to the tunnel's client MTU.
  bool via_tunnel = false;
  // kTower.  The tower owns its own link model (the PF cell) and scheme
  // choice (the mix), so a tower scenario ignores ScenarioSpec::scheme /
  // link.
  TowerSpec tower_spec;

  [[nodiscard]] static TopologySpec single_flow();
  [[nodiscard]] static TopologySpec shared_queue(int num_flows);
  // Heterogeneous shared queue; throws std::invalid_argument for an empty
  // flow list.
  [[nodiscard]] static TopologySpec heterogeneous_queue(
      std::vector<FlowSpec> flows);
  [[nodiscard]] static TopologySpec tunnel_contention(bool via_tunnel);
  [[nodiscard]] static TopologySpec tower(TowerSpec spec);
};

// Validates a topology's internal consistency — the ONE place the
// num_flows-vs-flows precedence rule and the per-kind field constraints
// live.  Every builder above funnels through it, and run_scenario()
// re-checks hand-assembled specs.  Throws std::invalid_argument.
//
// The precedence rule: a non-empty `flows` list is authoritative for what
// each flow runs, and `num_flows` must equal flows.size().  Any other
// combination is a contradiction and is rejected, never silently resolved.
void validate_topology(const TopologySpec& topology);

// The one scenario description.  Defaults reproduce the paper's §5 setup:
// 300 s runs, the first minute skipped by all metrics, 20 ms propagation
// each way, no loss, the 95%-confidence forecast.
struct ScenarioSpec {
  SchemeId scheme = SchemeId::kSprout;  // ignored by tunnel contention
  LinkSpec link;
  TopologySpec topology;
  // Queue policy on both emulated links.  kAuto infers it from the flow mix
  // exactly as before this field existed (the unique scheme requesting a
  // policy wins; two different requests are rejected).  An explicit value
  // pairs any scheme with any discipline — but a value contradicting a
  // flow's own request (kPie under a Cubic-CoDel flow) is rejected, since
  // that flow's identity IS its queue policy.
  LinkAqm link_aqm = LinkAqm::kAuto;
  Duration run_time = sec(300);
  Duration warmup = sec(60);        // skipped by all metrics (§5.1)
  // One-way propagation, split by direction: _fwd delays the data-carrying
  // link, _rev the feedback link (min RTT = fwd + rev).  The paper's
  // symmetric 20 ms each way is the fwd == rev case; asymmetric values
  // model e.g. satellite-backhauled uplinks.  The omniscient delay
  // baseline rides the forward link only; Sprout's assumed one-way
  // propagation (min RTT / 2 in deployment) is derived as (fwd + rev) / 2
  // unless a flow's explicit SproutParams override says otherwise.
  Duration propagation_delay_fwd = msec(20);
  Duration propagation_delay_rev = msec(20);
  // Bernoulli loss (§5.6), split by direction: _fwd drops packets entering
  // the data-carrying link, _rev packets entering the feedback link.  The
  // paper's symmetric "each-way loss" is the fwd == rev case; asymmetric
  // values model lossy uplinks under clean downlinks (and vice versa).
  double loss_rate_fwd = 0.0;
  double loss_rate_rev = 0.0;
  double sprout_confidence = 95.0;  // Figure 9 sweeps this
  std::uint64_t seed = 42;
  // Flight recorder (metrics/recorder.h): when set, every flow in every
  // topology — tower included — records a fixed-bin timeline (forecast vs
  // realized capacity, throughput, queue depth, drops, per-bin delay; the
  // series Figure 1 plots) into FlowResult::timeline.  Pure observability:
  // these two fields are EXCLUDED from scenario_fingerprint, so a
  // timeline-on cell shares its fingerprint, derived seed and simulated
  // bytes with the timeline-off cell — which is what lets the
  // timeline_roundtrip ctest byte-diff a stripped timeline-on sweep
  // against a timeline-off one.
  bool record_timeline = false;
  Duration timeline_bin = msec(500);

  // Legacy symmetric view of the split loss fields: sets both directions,
  // exactly what assigning the old `loss_rate` field did.
  ScenarioSpec& set_loss_rate(double each_way) {
    loss_rate_fwd = each_way;
    loss_rate_rev = each_way;
    return *this;
  }

  // Legacy symmetric view of the split propagation fields: sets both
  // directions, exactly what assigning the old `propagation_delay` did.
  ScenarioSpec& set_propagation_delay(Duration each_way) {
    propagation_delay_fwd = each_way;
    propagation_delay_rev = each_way;
    return *this;
  }
};

// Convenience constructors for the common shapes.
[[nodiscard]] ScenarioSpec single_flow_scenario(SchemeId scheme,
                                                const LinkPreset& link);
[[nodiscard]] ScenarioSpec shared_queue_scenario(SchemeId scheme,
                                                 int num_flows,
                                                 const LinkPreset& link);
// Heterogeneous shared queue: one FlowSpec per flow in one queue.
[[nodiscard]] ScenarioSpec heterogeneous_scenario(std::vector<FlowSpec> flows,
                                                  const LinkPreset& link);
[[nodiscard]] ScenarioSpec tunnel_scenario(const std::string& network,
                                           bool via_tunnel);

// One flow's measured outcome (§5.1 metrics).  Throughput and delay are
// measured over the flow's own active window intersected with the
// scenario's measurement window; the coactive fields are measured over the
// window where EVERY flow was active (the only interval where cross-flow
// shares are comparable).
//
// Window semantics for a stopping flow: measurement ends at the stop
// instant.  Packets already queued then still drain through the link (and
// count in ScenarioResult::packets_delivered) but are attributed to no
// flow's throughput or delay — extending the delay window past the stop
// would instead ramp the §5.1 sawtooth without bound once arrivals cease,
// which is an artifact of departure, not queueing.
struct FlowResult {
  std::string label;             // scheme name
  SchemeId scheme = SchemeId::kSprout;
  double active_from_s = 0.0;    // this flow's measurement window
  double active_to_s = 0.0;
  double throughput_kbps = 0.0;
  double delay95_ms = 0.0;       // 95% end-to-end delay
  double mean_delay_ms = 0.0;
  double coactive_throughput_kbps = 0.0;  // over the co-active window
  double capacity_share = 0.0;   // coactive throughput / coactive capacity
  // Wire bytes delivered to this flow over the WHOLE run, counted at the
  // forward-link demux — including warmup and any bytes the flow's standing
  // queue drained after its stop instant.  This is the ledger that closes
  // the drain-tail gap described above: windowed metrics ignore the tail,
  // delivered_bytes attributes it to the flow that sent it.
  ByteCount delivered_bytes = 0;
  // Streaming per-packet one-way delay histogram over the flow's
  // measurement window.  The tower streams it (no retained records); the
  // other topologies maintain it alongside their retained records, so
  // delay_hist.stats() reports p50/p95/p99/p999 on EVERY topology.
  DelayHistogram delay_hist;
  // Flight-recorder timeline (if spec.record_timeline).  Fingerprint-
  // ignored, merge-preserved, omitted from JSON when unconfigured, and
  // erasable via erase_result_field (runner/shard.h).
  FlowTimeline timeline;
};

// Per-cell execution telemetry, stamped by the orchestrator's workers when
// --metrics-out asks for it (OrchestratorOptions::metrics_out).  Pure
// observability: scenario fingerprints hash SPECS, never results, so the
// field is fingerprint-invisible by construction, merge carries it along
// untouched, and the JSON writer emits it only when `recorded` — an
// untelemetered run's bytes are unchanged.
struct CellRuntime {
  bool recorded = false;
  double wall_s = 0.0;               // wall time of the cell's run_shard
  std::int64_t peak_rss_bytes = 0;   // getrusage RU_MAXRSS of the worker
  int attempt = 0;                   // 1-based dispatch attempt that landed
};

// The unified result: per-flow metrics plus link-level aggregates.  The
// single-flow accessors mirror the paper's headline metrics for flows[0].
struct ScenarioResult {
  std::vector<FlowResult> flows;

  double capacity_kbps = 0.0;            // forward link, measurement window
  // All flows' delivered bytes over the measurement window, as a rate:
  // staggered flows contribute weighted by their own activity window, so
  // aggregate_utilization is a true fraction of the link's capacity.
  double aggregate_throughput_kbps = 0.0;
  double aggregate_utilization = 0.0;
  // Cross-flow fairness over the co-active window [coactive_from_s,
  // coactive_to_s): Jain's index of the flows' coactive throughputs.
  // NaN when the flows' activity windows are disjoint (no instant where
  // all flows were live, so no fairness number exists); the coactive_*
  // fields are 0 in that case.
  double jain_index = 1.0;
  double coactive_from_s = 0.0;
  double coactive_to_s = 0.0;
  double coactive_capacity_kbps = 0.0;
  double max_delay95_ms = 0.0;
  double omniscient_delay95_ms = 0.0;    // baseline on the same trace
  std::int64_t packets_delivered = 0;    // forward link
  std::int64_t link_drops = 0;           // forward link random + queue drops
  // Population-wide per-packet delay histogram: the exact merge of every
  // flow's delay_hist.  Configured only for streaming topologies (tower).
  DelayHistogram population_delay_hist;
  // Execution telemetry (orchestrator --metrics-out runs only; see
  // CellRuntime).  Not a simulation output — excluded from fingerprints
  // and from the obs_roundtrip byte diff via erase_result_field.
  CellRuntime runtime;

  // Single-flow views (flows[0]).
  [[nodiscard]] double throughput_kbps() const;
  [[nodiscard]] double delay95_ms() const;
  [[nodiscard]] double mean_delay_ms() const;
  [[nodiscard]] double utilization() const;
  // The paper's headline delay metric: max(0, delay95 - omniscient delay95).
  [[nodiscard]] double self_inflicted_delay_ms() const;

  // Population delay summary (p50/p95/p99/p999/mean) from the merged
  // histogram; all zeros when no streaming topology ran.
  [[nodiscard]] DelayStats population_delay() const;
};

// Shared, immutable cache of resolved link traces (generated presets,
// parsed trace files, synthetic runs).  A sweep hands one cache to every
// cell so each distinct trace is materialized once; entries are
// deterministic functions of their key, so first-writer-wins is safe and
// results do not depend on thread interleaving.
//
// Trace FILES are keyed by path alone: the cache assumes a file's
// contents do not change during the cache's lifetime.  Rewriting a trace
// file between runs requires a fresh ScenarioCache — every run_shard or
// run_sweep call makes one — or a new path, or the old contents will be
// silently reused.
class ScenarioCache {
 public:
  // Returns the cached trace for `key`, building it with `build` on miss.
  // Lookups feed the process-wide obs registry counters
  // "cache.traces.hits" / "cache.traces.misses" (src/obs/metrics.h).
  [[nodiscard]] std::shared_ptr<const Trace> trace(
      const std::string& key, const std::function<Trace()>& build);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Trace>> traces_;
};

// Canonical cache key for a synthetic trace: enumerates every
// CellProcessParams field plus seed and duration.  The sweep's content
// fingerprint hashes this same string, so a params field added here keeps
// caching and seed derivation consistent by construction.
[[nodiscard]] std::string synthetic_link_key(const CellProcessParams& params,
                                             std::uint64_t seed,
                                             Duration duration);

// Relative wall-clock weight of simulating one flow of `scheme` for one
// simulated second, normalized to Cubic == 1.  Forecaster-bearing schemes
// cost one to two orders of magnitude more than window-based TCP (the
// per-tick Bayesian update dominates); the constants and their provenance
// are recorded at the definition.
[[nodiscard]] double scheme_cost_weight(SchemeId scheme);

// Relative cost estimate of simulating one cell: simulated seconds times
// the summed scheme_cost_weight of the flows sharing the run (so a Sprout
// cell correctly outweighs a Cubic cell of the same duration).  Not a
// wall-clock prediction — just a stable ordering key, so a sweep can
// schedule its longest cells first (sweep.h) and the LPT cut can balance
// uneven grids across shards (shard.h).
[[nodiscard]] double estimated_cost(const ScenarioSpec& spec);

// Runs one scenario.  With a cache, expensive per-run precomputation
// (trace generation/parsing) is shared across calls; without one, each
// call materializes its own traces.  Throws std::invalid_argument for
// specs the topology or scheme cannot satisfy.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          ScenarioCache* cache = nullptr);

}  // namespace sprout
