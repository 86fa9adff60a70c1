#include "spec/scenario_io.h"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/rate_model.h"
#include "runner/registry.h"
#include "spec/json_writer.h"
#include "spec/synth_io.h"
#include "trace/presets.h"

namespace sprout::spec {

namespace {

// --- shared vocabulary ---------------------------------------------------

SchemeId read_scheme(const Field& f) {
  const std::string& name = f.as_string();
  const std::optional<SchemeId> id = scheme_from_name(name);
  if (!id.has_value()) f.fail("unknown scheme \"" + name + "\"");
  if (SchemeRegistry::instance().find(*id) == nullptr) {
    f.fail("scheme \"" + name + "\" is not registered in this build");
  }
  return *id;
}

LinkAqm read_link_aqm(const Field& f) {
  const std::string& name = f.as_string();
  for (const LinkAqm aqm : {LinkAqm::kAuto, LinkAqm::kDropTail, LinkAqm::kCoDel,
                            LinkAqm::kPie}) {
    if (name == to_string(aqm)) return aqm;
  }
  f.fail("unknown link AQM \"" + name +
         "\" (expected \"auto\", \"DropTail\", \"CoDel\" or \"PIE\")");
}

// --- readers -------------------------------------------------------------

SproutParams read_sprout_params(const Field& doc) {
  doc.allow_keys({"num_bins", "max_rate_pps", "tick_s", "sigma_pps_per_sqrt_s",
                  "outage_escape_rate_per_s", "forecast_horizon_ticks",
                  "confidence_percent", "max_count", "count_noise_in_forecast",
                  "band_epsilon", "sender_lookahead_ticks",
                  "throwaway_window_s", "assumed_propagation_s", "mtu_bytes",
                  "heartbeat_bytes"});
  SproutParams p;
  if (const auto f = doc.get("num_bins")) p.num_bins = static_cast<int>(f->int_at_least(2));
  if (const auto f = doc.get("max_rate_pps")) p.max_rate_pps = f->positive();
  if (const auto f = doc.get("tick_s")) p.tick = f->positive_seconds();
  if (const auto f = doc.get("sigma_pps_per_sqrt_s")) p.sigma_pps_per_sqrt_s = f->non_negative();
  if (const auto f = doc.get("outage_escape_rate_per_s")) p.outage_escape_rate_per_s = f->non_negative();
  if (const auto f = doc.get("forecast_horizon_ticks")) p.forecast_horizon_ticks = static_cast<int>(f->int_at_least(1));
  if (const auto f = doc.get("confidence_percent")) p.confidence_percent = f->in_range(0.0, 100.0);
  if (const auto f = doc.get("max_count")) p.max_count = static_cast<int>(f->int_at_least(1));
  if (const auto f = doc.get("count_noise_in_forecast")) p.count_noise_in_forecast = f->as_bool();
  if (const auto f = doc.get("band_epsilon")) p.band_epsilon = f->in_range(0.0, 1e-3);
  if (const auto f = doc.get("sender_lookahead_ticks")) p.sender_lookahead_ticks = static_cast<int>(f->int_at_least(0));
  if (const auto f = doc.get("throwaway_window_s")) p.throwaway_window = f->non_negative_seconds();
  if (const auto f = doc.get("assumed_propagation_s")) p.assumed_propagation = f->non_negative_seconds();
  if (const auto f = doc.get("mtu_bytes")) p.mtu = f->int_at_least(1);
  if (const auto f = doc.get("heartbeat_bytes")) p.heartbeat_bytes = f->int_at_least(0);
  // The grid must hold the rate walk, or the kernel cannot be built; fail
  // here, with the path, rather than when a run builds it.
  try {
    (void)outage_escape_row(p);
  } catch (const std::invalid_argument& e) {
    doc.fail(e.what());
  }
  return p;
}

LinkSpec read_link(const Field& doc) {
  const std::string source =
      doc.has("source") ? doc.at("source").as_string() : "preset";
  if (source == "preset") {
    doc.allow_keys({"source", "network", "direction"});
    std::string network = "Verizon LTE";
    LinkDirection direction = LinkDirection::kDownlink;
    if (const auto f = doc.get("network")) network = f->as_string();
    if (const auto f = doc.get("direction")) direction = direction_from_field(*f);
    // Resolve now so a typo'd network name fails at lint time with the
    // spec path, not at run time deep inside a shard process.
    try {
      (void)find_link_preset(network, direction);
    } catch (const std::exception&) {
      if (const auto f = doc.get("network")) {
        f->fail("unknown network \"" + network + "\"");
      }
      doc.fail("unknown network \"" + network + "\"");
    }
    return LinkSpec::preset(network, direction);
  }
  if (source == "trace-files") {
    doc.allow_keys({"source", "forward_path", "reverse_path"});
    return LinkSpec::trace_files(doc.at("forward_path").as_string(),
                                 doc.at("reverse_path").as_string());
  }
  if (source == "synthetic") {
    doc.allow_keys({"source", "forward_process", "reverse_process",
                    "forward_seed", "reverse_seed"});
    CellProcessParams forward;
    CellProcessParams reverse;
    if (const auto f = doc.get("forward_process")) {
      forward = cell_process_from_field(*f);
    }
    if (const auto f = doc.get("reverse_process")) {
      reverse = cell_process_from_field(*f);
    }
    std::uint64_t forward_seed = 1;
    std::uint64_t reverse_seed = 2;
    if (const auto f = doc.get("forward_seed")) forward_seed = f->as_u64();
    if (const auto f = doc.get("reverse_seed")) reverse_seed = f->as_u64();
    return LinkSpec::synthetic(forward, reverse, forward_seed, reverse_seed);
  }
  if (source == "synth") {
    doc.allow_keys({"source", "forward", "reverse"});
    SynthSpec forward;
    if (const auto f = doc.get("forward")) forward = synth_from_field(*f);
    // An absent reverse direction mirrors the "synthetic" source's default
    // seeds: the default model on its own stream (seed 2, vs forward's 1).
    SynthSpec reverse = SynthSpec{}.with_seed(2);
    if (const auto f = doc.get("reverse")) reverse = synth_from_field(*f);
    return LinkSpec::synth(std::move(forward), std::move(reverse));
  }
  doc.at("source").fail("unknown link source \"" + source +
                        "\" (expected \"preset\", \"trace-files\", "
                        "\"synthetic\" or \"synth\")");
}

FlowSpec read_flow(const Field& doc) {
  doc.allow_keys({"scheme", "sprout_params", "start_s", "stop_s"});
  FlowSpec flow;
  if (const auto f = doc.get("scheme")) flow.scheme = read_scheme(*f);
  if (const auto f = doc.get("sprout_params")) {
    flow.sprout_params = read_sprout_params(*f);
  }
  if (const auto f = doc.get("start_s")) flow.start = f->non_negative_seconds();
  if (const auto f = doc.get("stop_s")) {
    flow.stop = f->positive_seconds();
    if (*flow.stop <= flow.start) f->fail("must be > start_s");
  }
  return flow;
}

TopologySpec read_topology(const Field& doc) {
  doc.allow_keys({"kind", "num_flows", "flows", "via_tunnel", "tower"});
  const std::string kind =
      doc.has("kind") ? doc.at("kind").as_string() : "single-flow";

  if (kind == "single-flow") {
    // num_flows/flows/via_tunnel mean nothing here, and stray values would
    // still be fingerprinted — reject them rather than hash dead weight.
    doc.allow_keys({"kind"});
    return TopologySpec::single_flow();
  }
  if (kind == "shared-queue") {
    doc.allow_keys({"kind", "num_flows", "flows"});
    if (const auto flows_field = doc.get("flows")) {
      std::vector<FlowSpec> flows;
      for (const Field& f : flows_field->items()) flows.push_back(read_flow(f));
      if (flows.empty()) flows_field->fail("needs at least one flow");
      if (const auto n = doc.get("num_flows")) {
        if (n->int_at_least(1) != static_cast<std::int64_t>(flows.size())) {
          n->fail("disagrees with the flows list (" +
                  std::to_string(flows.size()) + " flows); omit num_flows");
        }
      }
      return TopologySpec::heterogeneous_queue(std::move(flows));
    }
    int num_flows = 1;
    if (const auto n = doc.get("num_flows")) {
      num_flows = static_cast<int>(n->int_at_least(1));
    }
    return TopologySpec::shared_queue(num_flows);
  }
  if (kind == "tunnel-contention") {
    doc.allow_keys({"kind", "via_tunnel"});
    bool via_tunnel = false;
    if (const auto f = doc.get("via_tunnel")) via_tunnel = f->as_bool();
    return TopologySpec::tunnel_contention(via_tunnel);
  }
  if (kind == "tower") {
    doc.allow_keys({"kind", "tower"});
    TowerSpec t;
    if (const auto tf = doc.get("tower")) {
      tf->allow_keys({"num_users", "arrival_rate_per_s", "mean_session_s",
                      "slot_s", "pf_window_s", "channel", "mix"});
      if (const auto f = tf->get("num_users")) {
        t.num_users = static_cast<int>(f->int_at_least(1));
      }
      if (const auto f = tf->get("arrival_rate_per_s")) {
        t.arrival_rate_per_s = f->non_negative();
      }
      if (const auto f = tf->get("mean_session_s")) {
        t.mean_session_s = f->non_negative();
      }
      if (const auto f = tf->get("slot_s")) t.slot = f->positive_seconds();
      if (const auto f = tf->get("pf_window_s")) {
        t.pf_window = f->positive_seconds();
      }
      if (const auto f = tf->get("channel")) t.channel = synth_from_field(*f);
      if (const auto mix = tf->get("mix")) {
        std::vector<UserMixEntry> entries;
        for (const Field& e : mix->items()) {
          e.allow_keys({"scheme", "weight"});
          UserMixEntry entry;
          if (const auto s = e.get("scheme")) entry.scheme = read_scheme(*s);
          if (const auto wf = e.get("weight")) entry.weight = wf->positive();
          entries.push_back(entry);
        }
        if (entries.empty()) mix->fail("needs at least one mix entry");
        t.mix = std::move(entries);
      }
    }
    // The builder runs the full cross-field validation (channel base, PF
    // window vs slot); rewrap its error with the spec path so `sweep list`
    // points at the file, not a C++ call site.
    try {
      return TopologySpec::tower(std::move(t));
    } catch (const std::invalid_argument& e) {
      doc.fail(e.what());
    }
  }
  doc.at("kind").fail("unknown topology kind \"" + kind +
                      "\" (expected \"single-flow\", \"shared-queue\", "
                      "\"tunnel-contention\" or \"tower\")");
}

}  // namespace

ScenarioSpec scenario_from_field(const Field& doc) {
  doc.allow_keys({"scheme", "link", "topology", "link_aqm", "run_time_s",
                  "warmup_s", "propagation_delay_s", "propagation_delay_fwd_s",
                  "propagation_delay_rev_s", "loss_rate", "loss_rate_fwd",
                  "loss_rate_rev", "sprout_confidence", "seed",
                  "record_timeline", "timeline_bin_s"});
  ScenarioSpec spec;
  if (const auto f = doc.get("topology")) spec.topology = read_topology(*f);
  if (spec.topology.kind == TopologySpec::Kind::kTower) {
    // A tower cell draws every scheme from the mix and every channel from
    // the tower's synth spec; a scenario-level scheme/link would be
    // silently ignored (and is deliberately not fingerprinted), so reject
    // it at lint time rather than let a spec lie about what it runs.
    if (doc.has("scheme")) {
      doc.at("scheme").fail(
          "tower topologies draw schemes from topology.tower.mix; remove "
          "scheme");
    }
    if (doc.has("link")) {
      doc.at("link").fail(
          "tower topologies draw channels from topology.tower.channel; "
          "remove link");
    }
  }
  if (const auto f = doc.get("link")) spec.link = read_link(*f);
  if (const auto f = doc.get("scheme")) {
    spec.scheme = read_scheme(*f);
  } else if (!spec.topology.flows.empty()) {
    // Mirror heterogeneous_scenario(): an explicit flow list without a
    // scenario-level scheme takes the lead flow's — otherwise a dumped
    // heterogeneous cell would silently re-read as scheme=Sprout and
    // change its fingerprint.
    spec.scheme = spec.topology.flows.front().scheme;
  }
  if (const auto f = doc.get("link_aqm")) spec.link_aqm = read_link_aqm(*f);
  if (const auto f = doc.get("run_time_s")) spec.run_time = f->positive_seconds();
  if (const auto f = doc.get("warmup_s")) spec.warmup = f->non_negative_seconds();
  if (spec.warmup >= spec.run_time) {
    (doc.has("warmup_s") ? doc.at("warmup_s") : doc.at("run_time_s"))
        .fail("warmup_s must be < run_time_s (every flow's metrics window "
              "would be empty)");
  }
  if (const auto f = doc.get("propagation_delay_s")) {
    if (doc.has("propagation_delay_fwd_s") ||
        doc.has("propagation_delay_rev_s")) {
      f->fail("conflicts with propagation_delay_fwd_s/propagation_delay_rev_s;"
              " use either the symmetric or the split spelling, not both");
    }
    spec.set_propagation_delay(f->non_negative_seconds());
  }
  if (const auto f = doc.get("propagation_delay_fwd_s")) {
    spec.propagation_delay_fwd = f->non_negative_seconds();
  }
  if (const auto f = doc.get("propagation_delay_rev_s")) {
    spec.propagation_delay_rev = f->non_negative_seconds();
  }
  if (const auto f = doc.get("loss_rate")) {
    if (doc.has("loss_rate_fwd") || doc.has("loss_rate_rev")) {
      f->fail("conflicts with loss_rate_fwd/loss_rate_rev; use either the "
              "symmetric or the split spelling, not both");
    }
    spec.set_loss_rate(f->in_range(0.0, 1.0));
  }
  if (const auto f = doc.get("loss_rate_fwd")) {
    spec.loss_rate_fwd = f->in_range(0.0, 1.0);
  }
  if (const auto f = doc.get("loss_rate_rev")) {
    spec.loss_rate_rev = f->in_range(0.0, 1.0);
  }
  if (const auto f = doc.get("sprout_confidence")) {
    spec.sprout_confidence = f->in_range(0.0, 100.0);
  }
  if (const auto f = doc.get("seed")) spec.seed = f->as_u64();
  if (const auto f = doc.get("record_timeline")) {
    spec.record_timeline = f->as_bool();
  }
  if (const auto f = doc.get("timeline_bin_s")) {
    spec.timeline_bin = f->positive_seconds();
  }

  // Cross-field checks run_scenario would reject anyway, surfaced here
  // with spec paths so `sweep list` catches them before any shard runs.
  if (const auto topo = doc.get("topology")) {
    if (const auto flows = topo->get("flows")) {
      const std::vector<Field> items = flows->items();
      for (std::size_t i = 0; i < items.size(); ++i) {
        const FlowSpec& f = spec.topology.flows[i];
        if (f.start >= spec.run_time) {
          items[i].at("start_s").fail("must be < run_time_s");
        }
        if (f.stop.value_or(spec.run_time) <= spec.warmup) {
          items[i].fail("flow activity window ends inside warmup; nothing "
                        "would be measured");
        }
      }
    }
  }
  return spec;
}

ScenarioSpec parse_scenario_json(std::string_view text) {
  const JsonValue doc = parse_spec_document(text, "scenario");
  return scenario_from_field(Field(doc, ""));
}

// --- writer --------------------------------------------------------------

namespace {

void write_sprout_params(std::ostream& os, const SproutParams& p, int indent) {
  const SproutParams d;
  ObjectWriter w(os, indent);
  if (p.num_bins != d.num_bins) w.integer("num_bins", p.num_bins);
  if (p.max_rate_pps != d.max_rate_pps) w.number("max_rate_pps", p.max_rate_pps);
  if (p.tick != d.tick) w.seconds("tick_s", p.tick);
  if (p.sigma_pps_per_sqrt_s != d.sigma_pps_per_sqrt_s) {
    w.number("sigma_pps_per_sqrt_s", p.sigma_pps_per_sqrt_s);
  }
  if (p.outage_escape_rate_per_s != d.outage_escape_rate_per_s) {
    w.number("outage_escape_rate_per_s", p.outage_escape_rate_per_s);
  }
  if (p.forecast_horizon_ticks != d.forecast_horizon_ticks) {
    w.integer("forecast_horizon_ticks", p.forecast_horizon_ticks);
  }
  if (p.confidence_percent != d.confidence_percent) {
    w.number("confidence_percent", p.confidence_percent);
  }
  if (p.max_count != d.max_count) w.integer("max_count", p.max_count);
  if (p.count_noise_in_forecast != d.count_noise_in_forecast) {
    w.boolean("count_noise_in_forecast", p.count_noise_in_forecast);
  }
  if (p.band_epsilon != d.band_epsilon) w.number("band_epsilon", p.band_epsilon);
  if (p.sender_lookahead_ticks != d.sender_lookahead_ticks) {
    w.integer("sender_lookahead_ticks", p.sender_lookahead_ticks);
  }
  if (p.throwaway_window != d.throwaway_window) {
    w.seconds("throwaway_window_s", p.throwaway_window);
  }
  if (p.assumed_propagation != d.assumed_propagation) {
    w.seconds("assumed_propagation_s", p.assumed_propagation);
  }
  if (p.mtu != d.mtu) w.integer("mtu_bytes", p.mtu);
  if (p.heartbeat_bytes != d.heartbeat_bytes) {
    w.integer("heartbeat_bytes", p.heartbeat_bytes);
  }
  w.close();
}

void write_link(std::ostream& os, const LinkSpec& link, int indent) {
  ObjectWriter w(os, indent);
  switch (link.source) {
    case LinkSpec::Source::kPreset:
      w.str("source", "preset");
      w.str("network", link.network);
      w.str("direction", to_string(link.direction));
      break;
    case LinkSpec::Source::kTraces:
      throw SpecError(
          "link.source: in-memory traces cannot be serialized to a spec "
          "file; use trace-files or a synthetic process instead");
    case LinkSpec::Source::kTraceFiles:
      w.str("source", "trace-files");
      w.str("forward_path", link.forward_path);
      w.str("reverse_path", link.reverse_path);
      break;
    case LinkSpec::Source::kSynthetic:
      w.str("source", "synthetic");
      write_cell_process_json(w.key("forward_process"), link.forward_process,
                              indent + 2);
      write_cell_process_json(w.key("reverse_process"), link.reverse_process,
                              indent + 2);
      w.integer("forward_seed",
                static_cast<std::int64_t>(link.forward_process_seed));
      w.integer("reverse_seed",
                static_cast<std::int64_t>(link.reverse_process_seed));
      break;
    case LinkSpec::Source::kSynth:
      w.str("source", "synth");
      write_synth_json(w.key("forward"), link.forward_synth, indent + 2);
      write_synth_json(w.key("reverse"), link.reverse_synth, indent + 2);
      break;
  }
  w.close();
}

void write_flow(std::ostream& os, const FlowSpec& flow, int indent) {
  ObjectWriter w(os, indent);
  w.str("scheme", to_string(flow.scheme));
  if (flow.sprout_params.has_value()) {
    write_sprout_params(w.key("sprout_params"), *flow.sprout_params,
                        indent + 2);
  }
  if (flow.start != Duration::zero()) w.seconds("start_s", flow.start);
  if (flow.stop.has_value()) w.seconds("stop_s", *flow.stop);
  w.close();
}

void write_topology(std::ostream& os, const TopologySpec& topo, int indent) {
  ObjectWriter w(os, indent);
  switch (topo.kind) {
    case TopologySpec::Kind::kSingleFlow:
      w.str("kind", "single-flow");
      break;
    case TopologySpec::Kind::kSharedQueue:
      w.str("kind", "shared-queue");
      if (topo.flows.empty()) {
        w.integer("num_flows", topo.num_flows);
      } else {
        std::ostream& fs = w.key("flows");
        fs << "[";
        for (std::size_t i = 0; i < topo.flows.size(); ++i) {
          if (i > 0) fs << ", ";
          write_flow(fs, topo.flows[i], indent + 2);
        }
        fs << "]";
      }
      break;
    case TopologySpec::Kind::kTunnelContention:
      w.str("kind", "tunnel-contention");
      if (topo.via_tunnel) w.boolean("via_tunnel", true);
      break;
    case TopologySpec::Kind::kTower: {
      w.str("kind", "tower");
      const TowerSpec d;
      const TowerSpec& t = topo.tower_spec;
      ObjectWriter tw(w.key("tower"), indent + 2);
      if (t.num_users != d.num_users) tw.integer("num_users", t.num_users);
      if (t.arrival_rate_per_s != d.arrival_rate_per_s) {
        tw.number("arrival_rate_per_s", t.arrival_rate_per_s);
      }
      if (t.mean_session_s != d.mean_session_s) {
        tw.number("mean_session_s", t.mean_session_s);
      }
      if (t.slot != d.slot) tw.seconds("slot_s", t.slot);
      if (t.pf_window != d.pf_window) tw.seconds("pf_window_s", t.pf_window);
      write_synth_json(tw.key("channel"), t.channel, indent + 4);
      const bool default_mix =
          t.mix.size() == 1 && t.mix.front().scheme == d.mix.front().scheme &&
          t.mix.front().weight == d.mix.front().weight;
      if (!default_mix) {
        std::ostream& ms = tw.key("mix");
        ms << "[";
        for (std::size_t i = 0; i < t.mix.size(); ++i) {
          if (i > 0) ms << ", ";
          ObjectWriter ew(ms, indent + 4);
          ew.str("scheme", to_string(t.mix[i].scheme));
          if (t.mix[i].weight != 1.0) ew.number("weight", t.mix[i].weight);
          ew.close();
        }
        ms << "]";
      }
      tw.close();
      break;
    }
  }
  w.close();
}

}  // namespace

void write_scenario_json(std::ostream& os, const ScenarioSpec& spec,
                         int indent) {
  // Seeds: u64 beyond the 2^53 exact double range must travel as decimal
  // strings (the reader accepts both spellings).
  constexpr std::uint64_t kExactLimit = 1ull << 53;
  const ScenarioSpec defaults;

  ObjectWriter w(os, indent);
  // Tower cells carry their schemes and channel inside the topology; the
  // scenario-level fields are ignored there, and the reader rejects them.
  if (spec.topology.kind != TopologySpec::Kind::kTower) {
    w.str("scheme", to_string(spec.scheme));
    write_link(w.key("link"), spec.link, indent + 2);
  }
  if (spec.topology.kind != TopologySpec::Kind::kSingleFlow) {
    write_topology(w.key("topology"), spec.topology, indent + 2);
  }
  if (spec.link_aqm != LinkAqm::kAuto) {
    w.str("link_aqm", to_string(spec.link_aqm));
  }
  w.seconds("run_time_s", spec.run_time);
  w.seconds("warmup_s", spec.warmup);
  if (spec.propagation_delay_fwd == spec.propagation_delay_rev) {
    if (spec.propagation_delay_fwd != defaults.propagation_delay_fwd) {
      w.seconds("propagation_delay_s", spec.propagation_delay_fwd);
    }
  } else {
    w.seconds("propagation_delay_fwd_s", spec.propagation_delay_fwd);
    w.seconds("propagation_delay_rev_s", spec.propagation_delay_rev);
  }
  if (spec.loss_rate_fwd == spec.loss_rate_rev) {
    if (spec.loss_rate_fwd != 0.0) w.number("loss_rate", spec.loss_rate_fwd);
  } else {
    w.number("loss_rate_fwd", spec.loss_rate_fwd);
    w.number("loss_rate_rev", spec.loss_rate_rev);
  }
  if (spec.sprout_confidence != defaults.sprout_confidence) {
    w.number("sprout_confidence", spec.sprout_confidence);
  }
  if (spec.seed != defaults.seed) {
    if (spec.seed < kExactLimit) {
      w.integer("seed", static_cast<std::int64_t>(spec.seed));
    } else {
      w.str("seed", std::to_string(spec.seed));
    }
  }
  if (spec.record_timeline) {
    w.boolean("record_timeline", true);
    if (spec.timeline_bin != defaults.timeline_bin) {
      w.seconds("timeline_bin_s", spec.timeline_bin);
    }
  }
  w.close();
}

std::string scenario_to_json(const ScenarioSpec& spec) {
  std::ostringstream os;
  write_scenario_json(os, spec);
  return os.str();
}

}  // namespace sprout::spec
