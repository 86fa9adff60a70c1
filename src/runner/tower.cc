#include "runner/tower.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>

#include "link/cellsim.h"
#include "link/tower_cell.h"
#include "metrics/flow_metrics.h"
#include "obs/metrics.h"
#include "runner/detail.h"
#include "runner/registry.h"
#include "sim/relay.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sprout {

namespace {

// splitmix64: the standard seed scrambler, also used by the sweep's
// derive_cell_seed.  Keeps per-user channel seeds decorrelated even for
// adjacent user ids and small base seeds.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t user_channel_seed(std::uint64_t base, std::int64_t user_id) {
  return splitmix64(base ^ splitmix64(static_cast<std::uint64_t>(user_id)));
}

}  // namespace

std::vector<TowerUserSession> derive_tower_sessions(const TowerSpec& tower,
                                                    Duration run_time,
                                                    std::uint64_t churn_seed) {
  Rng rng(churn_seed);

  double total_weight = 0.0;
  for (const UserMixEntry& e : tower.mix) total_weight += e.weight;

  const auto draw_scheme = [&] {
    const double x = rng.uniform(0.0, total_weight);
    double cum = 0.0;
    for (const UserMixEntry& e : tower.mix) {
      cum += e.weight;
      if (x < cum) return e.scheme;
    }
    return tower.mix.back().scheme;
  };
  const auto draw_departure = [&](Duration arrival) {
    if (tower.mean_session_s <= 0.0) return run_time;
    const double length_s = rng.exponential(1.0 / tower.mean_session_s);
    return std::min(run_time, arrival + from_seconds(length_s));
  };
  const auto make_session = [&](std::int64_t id, Duration arrival) {
    TowerUserSession s;
    s.user_id = id;
    s.arrival = arrival;
    s.scheme = draw_scheme();
    s.departure = draw_departure(arrival);
    s.channel_seed = user_channel_seed(tower.channel.seed, id);
    return s;
  };

  std::vector<TowerUserSession> sessions;
  sessions.reserve(static_cast<std::size_t>(tower.num_users));
  for (int u = 0; u < tower.num_users; ++u) {
    sessions.push_back(make_session(u + 1, Duration::zero()));
  }
  if (tower.arrival_rate_per_s > 0.0) {
    Duration t = Duration::zero();
    std::int64_t next_id = tower.num_users + 1;
    for (;;) {
      t += from_seconds(rng.exponential(tower.arrival_rate_per_s));
      if (t >= run_time) break;
      sessions.push_back(make_session(next_id++, t));
    }
  }
  return sessions;
}

namespace detail {

ScenarioResult run_tower(const ScenarioSpec& spec) {
  const TowerSpec& tower = spec.topology.tower_spec;

  // Seed derivation order is part of the determinism contract: churn and
  // reverse-path streams fork first, then per-user forward-link seeds and
  // AQM policies in user-id order.
  Rng seeder(spec.seed);
  const std::uint64_t churn_seed = seeder.fork_seed();
  const std::uint64_t rev_seed = seeder.fork_seed();

  const std::vector<TowerUserSession> sessions =
      derive_tower_sessions(tower, spec.run_time, churn_seed);

  // The shared queue policy is resolved from the mix's schemes exactly as
  // a heterogeneous shared queue would (one link, one discipline).
  std::vector<const SchemeInfo*> mix_schemes;
  mix_schemes.reserve(tower.mix.size());
  for (const UserMixEntry& e : tower.mix) {
    mix_schemes.push_back(&SchemeRegistry::instance().info(e.scheme));
  }
  const LinkAqm link_aqm = resolve_link_aqm(spec, mix_schemes);

  // --- Phase 1: drive the PF cell over the whole churn timeline, slot by
  // slot, yielding each user's delivery-opportunity trace.  Channels are
  // stepped lazily inside the cell; no whole-population trace is ever
  // materialized.  Arrivals/departures take effect at the first slot
  // boundary at or after their instant.
  const Duration horizon = spec.run_time + sec(1);
  TowerCellParams cell_params;
  cell_params.slot = tower.slot;
  cell_params.pf_window = tower.pf_window;
  TowerCell cell(cell_params);

  struct ChurnEvent {
    Duration time;
    bool departure;  // arrivals sort first at equal times
    std::size_t session;
  };
  std::vector<ChurnEvent> churn;
  churn.reserve(sessions.size() * 2);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    churn.push_back({sessions[i].arrival, false, i});
    churn.push_back({sessions[i].departure, true, i});
  }
  std::sort(churn.begin(), churn.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return std::tie(a.time, a.departure, a.session) <
                     std::tie(b.time, b.departure, b.session);
            });

  std::vector<std::vector<TimePoint>> user_opps(sessions.size());
  std::vector<bool> detached(sessions.size(), false);
  std::size_t next_churn = 0;
  const TimePoint sim_end = TimePoint{} + spec.run_time;
  const bool obs_on = obs::enabled();
  std::int64_t attached = 0;
  while (cell.now() < sim_end) {
    while (next_churn < churn.size() &&
           TimePoint{} + churn[next_churn].time <= cell.now()) {
      const ChurnEvent& ev = churn[next_churn++];
      const TowerUserSession& s = sessions[ev.session];
      if (ev.departure) {
        user_opps[ev.session] = cell.remove_user(s.user_id);
        detached[ev.session] = true;
        if (obs_on) {
          static obs::Counter& departures =
              obs::Registry::instance().counter("tower.churn.departures");
          departures.add();
          --attached;
        }
      } else {
        cell.add_user(s.user_id,
                      make_tower_channel(tower.channel, s.channel_seed));
        if (obs_on) {
          static obs::Counter& arrivals =
              obs::Registry::instance().counter("tower.churn.arrivals");
          arrivals.add();
          obs::Registry::instance()
              .gauge("tower.attached_users.peak")
              .set_max(static_cast<double>(++attached));
        }
      }
    }
    cell.step();
  }
  if (obs_on) {
    // One PF decision per elapsed slot; slots_served() excludes the slots
    // where no user was attached, so the pair exposes idle airtime too.
    static obs::Counter& slots =
        obs::Registry::instance().counter("tower.pf.slots_served");
    slots.add(cell.slots_served());
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (!detached[i]) user_opps[i] = cell.remove_user(sessions[i].user_id);
  }

  // --- Phase 2: the event-driven run.  Each user gets a dedicated
  // downlink CellsimLink over its PF trace; feedback shares one
  // fixed-delay reverse pipe (per-user feedback is tiny and uncontended).
  Simulator sim;

  DelayLink rev_link(sim, spec.propagation_delay_rev, spec.loss_rate_rev,
                     rev_seed);
  DemuxSink rev_demux;
  rev_link.set_target(rev_demux);

  SproutParams default_params;
  default_params.confidence_percent = spec.sprout_confidence;
  default_params.assumed_propagation =
      (spec.propagation_delay_fwd + spec.propagation_delay_rev) / 2;

  const TimePoint meas_from = TimePoint{} + spec.warmup;
  const TimePoint meas_to = TimePoint{} + spec.run_time;

  struct UserRun {
    std::unique_ptr<RelaySink> egress;
    std::unique_ptr<CellsimLink> link;
    std::unique_ptr<SchemeFlow> flow;
    Simulator::ScopeId scope = Simulator::kRootScope;
  };
  std::vector<UserRun> users;
  users.reserve(sessions.size());

  // Flight recorders (if asked): each user owns a dedicated downlink, so
  // its flow recorder pairs with its own link-level recorder (queue depth
  // and drops), indexed in session order.  Declared before `users` so the
  // taps outlive the flows that feed them.
  std::vector<std::unique_ptr<FlowTimelineRecorder>> flow_recs;
  std::vector<std::unique_ptr<FlowTimelineRecorder>> link_recs;
  if (spec.record_timeline) {
    flow_recs.reserve(sessions.size());
    link_recs.reserve(sessions.size());
  }

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const TowerUserSession& s = sessions[i];

    CellsimConfig cfg;
    cfg.propagation_delay = spec.propagation_delay_fwd;
    cfg.loss_rate = spec.loss_rate_fwd;
    cfg.seed = seeder.fork_seed();
    std::unique_ptr<AqmPolicy> policy = make_aqm_policy(link_aqm, seeder);

    // A user the PF rule never served still needs a non-empty trace
    // (CellsimLink requires one); a single sentinel opportunity at the
    // departure instant is unreachable by construction — the user's scope
    // is cancelled there.
    if (user_opps[i].empty()) {
      user_opps[i].push_back(TimePoint{} + s.departure);
    }
    Trace trace(std::move(user_opps[i]), horizon);

    StreamingMetricsConfig streaming;
    streaming.from = std::max(meas_from, TimePoint{} + s.arrival);
    streaming.to = std::min(meas_to, TimePoint{} + s.departure);

    UserRun u;
    u.scope = sim.new_scope();
    {
      // Everything the user wires or schedules — the link's opportunity
      // loop, the endpoints' clocks, the deferred start — lands in its
      // scope, so departure cancels the whole causal chain at once.
      Simulator::ScopeGuard guard(sim, u.scope);
      u.egress = std::make_unique<RelaySink>();
      u.link = std::make_unique<CellsimLink>(sim, std::move(trace), cfg,
                                             *u.egress, std::move(policy));
      if (spec.record_timeline) {
        flow_recs.push_back(std::make_unique<FlowTimelineRecorder>(
            spec.timeline_bin, TimePoint{}, meas_to));
        link_recs.push_back(std::make_unique<FlowTimelineRecorder>(
            spec.timeline_bin, TimePoint{}, meas_to));
        u.link->set_timeline_recorder(link_recs.back().get());
      }
      FlowContext ctx{sim,
                      default_params,
                      s.user_id,
                      static_cast<int>(i),
                      *u.link,
                      rev_link,
                      u.link->trace(),
                      spec.propagation_delay_fwd,
                      spec.run_time,
                      &streaming,
                      /*delay_histogram=*/nullptr,
                      spec.record_timeline ? flow_recs.back().get() : nullptr};
      u.flow = SchemeRegistry::instance().info(s.scheme).make_flow(ctx);
      u.egress->set_target(u.flow->data_egress());
      if (PacketSink* feedback = u.flow->feedback_egress()) {
        rev_demux.route(s.user_id, *feedback);
      }
      if (s.arrival == Duration::zero()) {
        u.flow->start();
      } else {
        sim.at(TimePoint{} + s.arrival, [raw = u.flow.get()] { raw->start(); });
      }
    }
    // The departure cancel is scheduled from the ROOT scope (outside the
    // guard) so it cannot cancel itself; being scheduled at setup time it
    // also sorts before any same-instant runtime event.  Nothing of the
    // user runs after it, so its standing queue is freed there too: the
    // results read only the link's counters and trace.
    if (s.departure < spec.run_time) {
      sim.at(TimePoint{} + s.departure,
             [&sim, scope = u.scope, link = u.link.get()] {
               sim.cancel_scope(scope);
               link->release_backlog();
             });
    }
    users.push_back(std::move(u));
  }

  sim.run_until(meas_to);

  // --- Results.  Per-user metrics come from the streaming histograms and
  // windowed byte counters; the population histogram is their exact merge.
  // Under churn there is no instant where ALL users are live, so the
  // coactive fields stay zero and Jain's index is computed over the
  // windowed per-user throughputs instead (documented deviation from the
  // shared-queue topology's co-active convention).  There is also no
  // single forward trace for the omniscient baseline; that field stays 0.
  ScenarioResult r;
  r.population_delay_hist = DelayHistogram(kDelayHistBin, kDelayHistMax);
  std::vector<double> throughputs;
  ByteCount capacity_bytes = 0;
  r.flows.reserve(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const TowerUserSession& s = sessions[i];
    const UserRun& u = users[i];
    const FlowMetrics& m = u.flow->metrics();
    const TimePoint from = std::max(meas_from, TimePoint{} + s.arrival);
    const TimePoint to = std::min(meas_to, TimePoint{} + s.departure);

    FlowResult fr;
    fr.label = SchemeRegistry::instance().info(s.scheme).name;
    fr.scheme = s.scheme;
    fr.active_from_s = to_seconds(from.time_since_epoch());
    fr.active_to_s = to_seconds(to.time_since_epoch());
    fr.delivered_bytes = m.total_bytes();
    if (from < to) {
      fr.throughput_kbps = m.window_throughput_kbps();
      fr.delay_hist = m.histogram();
      if (fr.delay_hist.samples() > 0) {
        fr.delay95_ms = fr.delay_hist.percentile_ms(95.0);
        fr.mean_delay_ms = fr.delay_hist.mean_ms();
      }
      r.population_delay_hist.merge(fr.delay_hist);
      // capacity_share: achieved throughput over what the PF scheduler
      // granted this user inside its own window.
      const double granted_kbps =
          kbps(u.link->trace().deliverable_bytes(from, to), to - from);
      fr.capacity_share =
          granted_kbps > 0.0 ? fr.throughput_kbps / granted_kbps : 0.0;
      throughputs.push_back(fr.throughput_kbps);
      r.aggregate_throughput_kbps += fr.throughput_kbps *
                                     to_seconds(to - from) /
                                     to_seconds(meas_to - meas_from);
      r.max_delay95_ms = std::max(r.max_delay95_ms, fr.delay95_ms);
    }
    if (spec.record_timeline) {
      fr.timeline =
          flow_recs[i]->finalize(&u.link->trace(), link_recs[i].get());
    }
    capacity_bytes += u.link->trace().deliverable_bytes(meas_from, meas_to);
    r.packets_delivered += u.link->delivered_packets();
    r.link_drops += u.link->random_drops() + u.link->queue_drops();
    r.flows.push_back(std::move(fr));
  }
  r.capacity_kbps = kbps(capacity_bytes, meas_to - meas_from);
  r.aggregate_utilization =
      r.capacity_kbps > 0.0 ? r.aggregate_throughput_kbps / r.capacity_kbps
                            : 0.0;
  r.jain_index = throughputs.empty()
                     ? std::numeric_limits<double>::quiet_NaN()
                     : jain_fairness(throughputs);
  return r;
}

}  // namespace detail

}  // namespace sprout
