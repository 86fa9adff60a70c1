// perf_e2e: the end-to-end simulator benchmark.
//
// Runs one checked-in workload (workloads/<NAME>.json, parsed with
// spec::parse_experiment_file) through the public engine API on one thread,
// cell after cell in grid order.  The loop is closed: each cell starts when
// the previous one returns.  It reports what a user of the simulator pays:
//
//   sim_s_per_wall_s  simulated seconds per wall second of the run phase
//   setup_s           wall time before the first cell runs
//   peak_rss_mb       getrusage ru_maxrss of this process after set-up and
//                     the first pass
//   passed_cell_frac  cells whose outputs pass the check / cells attempted
//
// --traced adds one instrumented pass (obs counters on, one obs::Span
// around each harness call into a layer) and isolated replays of each
// layer's hot call.  Together they split wall time across the spec, trace,
// core, sim, link, metrics and runner layers.  A Chrome trace is written
// beside --out.  Nothing here reaches inside the engine: every number comes
// from timing a public call or reading an existing obs::Registry counter.
//
// Usage:
//   perf_e2e --workload NAME [--seed S] [--seconds T] [--traced]
//            [--out FILE] [--bless]
//
//   --seed     overrides the workload's base_seed; per-cell seeds derive
//              from it by content, exactly as in run_sweep
//   --seconds  repeat whole passes over the workload until T wall seconds
//              have elapsed (default 0: one pass)
//   --out      write the stamped results JSON here
//   --bless    run the default seed once and rewrite expected/<NAME>.json
//
// Exit status: 0 when every cell passed its check, 1 otherwise, 2 on a
// usage error.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/forecaster.h"
#include "core/rate_model.h"
#include "link/cellsim.h"
#include "link/tower_cell.h"
#include "metrics/flow_metrics.h"
#include "metrics/histogram.h"
#include "metrics/recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runner/shard.h"
#include "runner/tower.h"
#include "sim/simulator.h"
#include "spec/grid.h"
#include "spec/json_writer.h"
#include "synth/synth.h"
#include "trace/presets.h"
#include "util/kernels.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace sprout::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// The reference workloads; README.md records why each exists.  Only
// sweep_grid counts its sweep-JSON write + read in the run phase: its cells
// are short, so per-cell overheads and shard IO are what it measures.
struct WorkloadDef {
  const char* name;
  bool sweep_io_in_run;
};
constexpr WorkloadDef kWorkloads[] = {
    {"paper_cells", false},
    {"shared_queue", false},
    {"tower_1000", false},
    {"sweep_grid", true},
};

// Cold set-up samples per run: one in this process, the rest in forked
// children.  The forecast-table and transition-matrix caches are
// process-wide and cannot be emptied, so only a fresh process sets up cold.
// At least kSetupMinSamples; more while they sum to under kSetupTargetS,
// since a sub-millisecond set-up needs many samples for a steady median.
constexpr int kSetupMinSamples = 5;
constexpr int kSetupMaxSamples = 51;
constexpr double kSetupTargetS = 0.5;

// Output-check tolerances: the golden-metrics relative tolerance, and one
// DelayHistogram bin as the floor for delays.
constexpr double kRelTol = 5e-4;
constexpr double kDelayBinMs = 5.0;

// Replays keep the best of this many repetitions: preemption only ever
// inflates a repetition.  The receiver replay walks a whole trace (about a
// second per repetition on a 300 s link), so it takes fewer.
constexpr int kReplayReps = 3;
constexpr int kReceiverReplayReps = 2;

struct Options {
  const WorkloadDef* workload = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  bool traced = false;
  bool bless = false;
  std::string out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---------------------------------------------------------------- helpers ---

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Times fn(); when `traced`, also records it as one obs::Span.
template <typename Fn>
double timed_ms(bool traced, const char* span, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  if (traced) {
    const obs::Span s(span, "perf_e2e");
    fn();
  } else {
    fn();
  }
  return ms_since(t0);
}

// Best-of-kReplayReps wall time of fn(), per call, where one fn() makes
// `calls` calls.
template <typename Fn>
double best_ns_per_call(std::int64_t calls, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReplayReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    fn();
    best = std::min(best, ns_between(t0, Clock::now()) /
                              static_cast<double>(calls));
  }
  return best;
}

double median(const std::vector<double>& v) {
  PercentileEstimator e;
  for (const double x : v) e.add(x);
  return e.median();
}

// a / b, or 0 when there is nothing to divide by (keeps every reported
// value finite).
double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string digest_of(const std::string& bytes) {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ------------------------------------------------------------------ stamp ---

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned int regs[12] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    const std::size_t b = s.find_first_not_of(' ');
    const std::size_t e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// Where these numbers came from, so results from different machines or
// builds are never compared by mistake.  The checkout may not be a git
// repository, so the SHA comes from the caller (run.sh sets it).
void write_stamp(std::ostream& os, int indent) {
  const char* sha = std::getenv("PERF_E2E_GIT_SHA");
  spec::ObjectWriter w(os, indent);
  w.str("kernel_backend", kernels::active_backend());
  w.str("build_type", PERF_E2E_BUILD_TYPE);
  w.str("compiler", compiler());
  w.integer("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  w.str("cpu_model", cpu_model());
  w.str("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
  w.close();
}

// ------------------------------------------------------------------ setup ---

LinkDirection opposite(LinkDirection d) {
  return d == LinkDirection::kDownlink ? LinkDirection::kUplink
                                       : LinkDirection::kDownlink;
}

// The SproutParams run_scenario gives a Sprout flow without an override
// (scenario.cc): the scenario's confidence and the mean one-way propagation.
SproutParams scenario_sprout_params(const ScenarioSpec& s) {
  SproutParams p;
  p.confidence_percent = s.sprout_confidence;
  p.assumed_propagation =
      (s.propagation_delay_fwd + s.propagation_delay_rev) / 2;
  return p;
}

// Parameters of every Bayesian forecaster a cell builds.
std::vector<SproutParams> sprout_params_of(const ScenarioSpec& s) {
  const TopologySpec& topo = s.topology;
  std::vector<SproutParams> out;
  switch (topo.kind) {
    case TopologySpec::Kind::kTunnelContention:
      if (topo.via_tunnel) out.push_back(scenario_sprout_params(s));
      break;
    case TopologySpec::Kind::kTower:
      for (const UserMixEntry& e : topo.tower_spec.mix) {
        if (e.scheme == SchemeId::kSprout) {
          out.push_back(scenario_sprout_params(s));
        }
      }
      break;
    case TopologySpec::Kind::kSingleFlow:
    case TopologySpec::Kind::kSharedQueue: {
      std::vector<FlowSpec> flows = topo.flows;
      if (flows.empty()) {
        flows.assign(static_cast<std::size_t>(topo.num_flows),
                     FlowSpec::of(s.scheme));
      }
      for (const FlowSpec& f : flows) {
        if (f.scheme == SchemeId::kSprout) {
          out.push_back(f.sprout_params.value_or(scenario_sprout_params(s)));
        }
      }
      break;
    }
  }
  return out;
}

// Materializes a cell's two link traces into `cache` under the keys
// run_scenario looks them up by (resolve_link in scenario.cc), so the run
// phase only hits; trace.cache_hit_ratio in the traced pass shows whether
// it did.  Returns the forward trace.
std::shared_ptr<const Trace> materialize_link(const ScenarioSpec& s,
                                              ScenarioCache& cache) {
  if (s.link.source != LinkSpec::Source::kPreset) {
    throw std::invalid_argument("perf_e2e workloads use preset links only");
  }
  const Duration needed = s.run_time + sec(2);
  const auto get = [&](const LinkPreset& p) {
    return cache.trace(
        "preset|" + p.name() + "|" + std::to_string(needed.count()),
        [&] { return preset_trace(p, needed); });
  };
  std::shared_ptr<const Trace> fwd =
      get(find_link_preset(s.link.network, s.link.direction));
  (void)get(find_link_preset(s.link.network, opposite(s.link.direction)));
  return fwd;
}

struct Setup {
  SweepSpec grid;                   // as parsed; base_seed from --seed
  std::uint64_t default_seed = 0;   // the workload's own base_seed
  std::vector<ScenarioSpec> cells;  // per-cell seeds derived, as run_sweep
  std::uint64_t fingerprint = 0;
  std::vector<std::uint64_t> cell_fingerprints;
  std::unique_ptr<ScenarioCache> cache = std::make_unique<ScenarioCache>();
  // Replay inputs: the first link's forward trace, the first Sprout flow's
  // parameters, and the first tower with its time-averaged population.
  std::shared_ptr<const Trace> replay_trace;
  SproutParams replay_params;
  std::optional<ScenarioSpec> tower_cell;
  double tower_mean_users = 0.0;
  double parse_ms = 0.0;
  double materialize_ms = 0.0;
  double core_ms = 0.0;
  double seconds = 0.0;
};

Setup run_setup(const WorkloadDef& def, const Options& opt, bool traced) {
  const Clock::time_point t0 = Clock::now();
  Setup s;
  s.parse_ms = timed_ms(traced, "spec.parse", [&] {
    spec::ExperimentSpec e = spec::parse_experiment_file(
        std::string(PERF_E2E_DIR) + "/workloads/" + def.name + ".json");
    if (!e.sweep.base_seed.has_value()) {
      throw std::runtime_error(std::string(def.name) + " has no base_seed");
    }
    s.default_seed = *e.sweep.base_seed;
    if (opt.seed.has_value()) e.sweep.base_seed = *opt.seed;
    s.grid = std::move(e.sweep);
    s.fingerprint = sweep_fingerprint(s.grid);
    for (const ScenarioSpec& cell : s.grid.cells) {
      s.cell_fingerprints.push_back(scenario_fingerprint(cell));
      s.cells.push_back(cell);
      s.cells.back().seed = derive_cell_seed(*s.grid.base_seed, cell);
    }
  });
  s.materialize_ms = timed_ms(traced, "trace.materialize", [&] {
    for (const ScenarioSpec& cell : s.cells) {
      if (cell.topology.kind != TopologySpec::Kind::kTower) {
        std::shared_ptr<const Trace> fwd = materialize_link(cell, *s.cache);
        if (!s.replay_trace) s.replay_trace = std::move(fwd);
        continue;
      }
      // A tower has no link traces (its channels run live); its set-up is
      // the churn timeline, derived as the tower runner derives it: from
      // the first fork of the cell seed.
      const std::vector<TowerUserSession> sessions = derive_tower_sessions(
          cell.topology.tower_spec, cell.run_time, Rng(cell.seed).fork_seed());
      if (!s.tower_cell.has_value()) {
        Duration attached{};
        for (const TowerUserSession& u : sessions) {
          attached += u.departure - u.arrival;
        }
        s.tower_cell = cell;
        s.tower_mean_users = to_seconds(attached) / to_seconds(cell.run_time);
      }
    }
  });
  s.core_ms = timed_ms(traced, "core.setup", [&] {
    bool first = true;
    for (const ScenarioSpec& cell : s.cells) {
      for (const SproutParams& p : sprout_params_of(cell)) {
        // Construction fills the process-wide table and matrix caches;
        // repeats of one parameter set are cache hits.
        const DeliveryForecaster forecaster(p);
        const SproutBayesFilter filter(p);
        if (first) s.replay_params = p;
        first = false;
      }
    }
  });
  s.seconds = ms_since(t0) / 1000.0;
  return s;
}

// One more cold set-up sample, taken in a forked child before this process
// sets up (so the child starts with empty caches).
double cold_setup_seconds(const WorkloadDef& def, const Options& opt) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    double seconds = -1.0;
    try {
      seconds = run_setup(def, opt, /*traced=*/false).seconds;
    } catch (...) {
      // Reported to the parent as a negative sample.
    }
    const ssize_t n = write(fds[1], &seconds, sizeof seconds);
    _exit(n == static_cast<ssize_t>(sizeof seconds) ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const ssize_t n = read(fds[0], &seconds, sizeof seconds);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof seconds) || seconds < 0.0) {
    throw std::runtime_error("set-up failed in a forked sample");
  }
  return seconds;
}

// ------------------------------------------------------------------- pass ---

// One run of every cell, then the sweep-JSON write + read.
struct Pass {
  double run_s = 0.0;  // run-phase wall time
  double sim_s = 0.0;  // simulated seconds of the completed cells
  std::vector<double> cell_ms;
  std::string error;  // what stopped the pass early, if anything
  SweepResult sweep;  // the cells that completed
  std::string json;   // write_sweep_json(sweep)
  double write_ms = 0.0;
  double read_ms = 0.0;
  SweepResult read_back;
};

void sweep_io(Pass& p, bool traced) {
  p.write_ms = timed_ms(traced, "runner.shard_write", [&] {
    std::ostringstream os;
    write_sweep_json(os, p.sweep);
    p.json = os.str();
  });
  p.read_ms = timed_ms(traced, "runner.shard_read",
                       [&] { p.read_back = read_sweep_json(p.json); });
}

Pass run_pass(const WorkloadDef& def, const Setup& s, bool traced) {
  Pass p;
  p.sweep.fingerprint = s.fingerprint;
  p.sweep.cell_fingerprints = s.cell_fingerprints;
  const Clock::time_point t0 = Clock::now();
  try {
    for (const ScenarioSpec& cell : s.cells) {
      p.cell_ms.push_back(timed_ms(traced, "runner.cell", [&] {
        p.sweep.cells.push_back(run_scenario(cell, s.cache.get()));
      }));
      p.sim_s += to_seconds(cell.run_time);
    }
    if (def.sweep_io_in_run) sweep_io(p, traced);
    p.run_s = ms_since(t0) / 1000.0;
    if (!def.sweep_io_in_run) sweep_io(p, traced);
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  return p;
}

// ------------------------------------------------------------------ check ---

struct ExpectedFlow {
  std::string label;
  double throughput_kbps = 0.0;
  double delay95_ms = 0.0;
};

struct ExpectedCell {
  std::int64_t packets_delivered = 0;
  std::int64_t link_drops = 0;
  std::vector<ExpectedFlow> flows;
};

std::string expected_path(const WorkloadDef& def) {
  return std::string(PERF_E2E_DIR) + "/expected/" + def.name + ".json";
}

std::vector<ExpectedCell> read_expected(const WorkloadDef& def,
                                        std::uint64_t seed) {
  const JsonValue doc = JsonValue::parse(read_file(expected_path(def)));
  if (doc.at("seed").as_string() != std::to_string(seed)) {
    throw std::runtime_error(expected_path(def) + " is for seed " +
                             doc.at("seed").as_string());
  }
  std::vector<ExpectedCell> cells;
  for (const JsonValue& c : doc.at("cells").as_array()) {
    ExpectedCell cell;
    cell.packets_delivered =
        static_cast<std::int64_t>(c.at("packets_delivered").as_number());
    cell.link_drops = static_cast<std::int64_t>(c.at("link_drops").as_number());
    for (const JsonValue& f : c.at("flows").as_array()) {
      cell.flows.push_back({f.at("label").as_string(),
                            f.at("throughput_kbps").as_number(),
                            f.at("delay95_ms").as_number()});
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

void write_expected(std::ostream& os, const WorkloadDef& def,
                    std::uint64_t seed, const SweepResult& sweep) {
  os << "{\n  \"workload\": ";
  write_json_string(os, def.name);
  os << ",\n  \"seed\": ";
  write_json_string(os, std::to_string(seed));
  os << ",\n  \"cells\": [";
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const ScenarioResult& r = sweep.cells[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"packets_delivered\": "
       << r.packets_delivered << ", \"link_drops\": " << r.link_drops
       << ", \"flows\": [";
    for (std::size_t f = 0; f < r.flows.size(); ++f) {
      os << (f == 0 ? "\n" : ",\n") << "      {\"label\": ";
      write_json_string(os, r.flows[f].label);
      os << ", \"throughput_kbps\": ";
      spec::write_double(os, r.flows[f].throughput_kbps);
      os << ", \"delay95_ms\": ";
      spec::write_double(os, r.flows[f].delay95_ms);
      os << "}";
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
}

bool within(double actual, double expected, double abs_floor) {
  return std::fabs(actual - expected) <=
         std::max(kRelTol * std::fabs(expected), abs_floor);
}

// Empty when `r` matches the expected cell.
std::string compare_cell(const ScenarioResult& r, const ExpectedCell& e) {
  if (r.packets_delivered != e.packets_delivered) {
    return "packets_delivered " + std::to_string(r.packets_delivered) +
           " != " + std::to_string(e.packets_delivered);
  }
  if (r.link_drops != e.link_drops) {
    return "link_drops " + std::to_string(r.link_drops) +
           " != " + std::to_string(e.link_drops);
  }
  if (r.flows.size() != e.flows.size()) {
    return std::to_string(r.flows.size()) + " flows, expected " +
           std::to_string(e.flows.size());
  }
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const FlowResult& f = r.flows[i];
    const ExpectedFlow& x = e.flows[i];
    const std::string who = "flow " + std::to_string(i) + " (" + f.label + ")";
    if (f.label != x.label) return who + " expected " + x.label;
    if (!within(f.throughput_kbps, x.throughput_kbps, 0.0)) {
      return who + " throughput_kbps " + std::to_string(f.throughput_kbps) +
             " vs " + std::to_string(x.throughput_kbps);
    }
    if (!within(f.delay95_ms, x.delay95_ms, kDelayBinMs)) {
      return who + " delay95_ms " + std::to_string(f.delay95_ms) + " vs " +
             std::to_string(x.delay95_ms);
    }
  }
  return "";
}

// Empty when every metric of `r` is finite and >= 0 and the link's
// utilization is at most 1.
std::string check_invariants(const ScenarioResult& r) {
  std::string bad;
  const auto need = [&](const std::string& what, double v) {
    if (bad.empty() && (!std::isfinite(v) || v < 0.0)) {
      bad = what + " = " + std::to_string(v);
    }
  };
  need("capacity_kbps", r.capacity_kbps);
  need("aggregate_throughput_kbps", r.aggregate_throughput_kbps);
  need("aggregate_utilization", r.aggregate_utilization);
  need("jain_index", r.jain_index);
  need("coactive_capacity_kbps", r.coactive_capacity_kbps);
  need("max_delay95_ms", r.max_delay95_ms);
  need("omniscient_delay95_ms", r.omniscient_delay95_ms);
  need("packets_delivered", static_cast<double>(r.packets_delivered));
  need("link_drops", static_cast<double>(r.link_drops));
  for (const FlowResult& f : r.flows) {
    need(f.label + " throughput_kbps", f.throughput_kbps);
    need(f.label + " delay95_ms", f.delay95_ms);
    need(f.label + " mean_delay_ms", f.mean_delay_ms);
    need(f.label + " coactive_throughput_kbps", f.coactive_throughput_kbps);
    need(f.label + " capacity_share", f.capacity_share);
    need(f.label + " delivered_bytes", static_cast<double>(f.delivered_bytes));
  }
  if (bad.empty() && r.aggregate_utilization > 1.0) {
    bad = "aggregate_utilization " + std::to_string(r.aggregate_utilization) +
          " > 1";
  }
  return bad;
}

// Checks one pass and returns how many of its cells failed, appending a
// reason per failure.  A pass that stopped early fails every cell it did
// not finish; a sweep-level failure (round trip, digest) fails them all.
std::int64_t check_pass(const Pass& p, const Setup& s,
                        const std::vector<ExpectedCell>* expected,
                        const std::string& reference_digest,
                        std::vector<std::string>& failures) {
  const auto total = static_cast<std::int64_t>(s.cells.size());
  const auto done = static_cast<std::int64_t>(p.sweep.cells.size());
  std::int64_t failed = 0;
  if (!p.error.empty()) {
    failures.push_back("pass stopped at cell " + std::to_string(done) + ": " +
                       p.error);
    failed += total - done;
  }
  for (std::int64_t i = 0; i < done; ++i) {
    const ScenarioResult& r = p.sweep.cells[static_cast<std::size_t>(i)];
    std::string why = check_invariants(r);
    if (why.empty() && expected != nullptr) {
      why = i < static_cast<std::int64_t>(expected->size())
                ? compare_cell(r, (*expected)[static_cast<std::size_t>(i)])
                : "no expected entry";
    }
    if (!why.empty()) {
      failures.push_back("cell " + std::to_string(i) + ": " + why);
      ++failed;
    }
  }
  if (!p.error.empty()) return failed;

  std::string why;
  try {
    std::ostringstream again;
    write_sweep_json(again, p.read_back);
    verify_sweep_result(p.read_back, s.grid);
    if (again.str() != p.json) {
      why = "sweep JSON write -> read -> write is not byte-identical";
    } else if (!reference_digest.empty() &&
               digest_of(p.json) != reference_digest) {
      why = "result digest " + digest_of(p.json) + " differs from " +
            reference_digest;
    }
  } catch (const std::exception& e) {
    why = e.what();
  }
  if (why.empty()) return failed;
  failures.push_back("sweep: " + why);
  return total;
}

// ---------------------------------------------------------------- replays ---
// Isolated per-call costs of each layer's hot call, on the workload's own
// first forward trace and Sprout parameters.

std::vector<int> per_tick_counts(const Trace& trace, Duration tick) {
  const auto ticks = static_cast<std::size_t>(trace.duration() / tick);
  std::vector<int> counts(ticks, 0);
  for (const TimePoint t : trace.opportunities()) {
    const auto i = static_cast<std::size_t>(t.time_since_epoch() / tick);
    if (i < ticks) ++counts[i];
  }
  return counts;
}

struct ReceiverCosts {
  double evolve_ns = 0.0;
  double observe_ns = 0.0;
  double forecast_ns = 0.0;
  double tick_us = 0.0;
};

// The receiver's per-tick work (evolve, observe, forecast) replayed on the
// trace's per-tick delivery counts, as a link-limited receiver sees them.
ReceiverCosts replay_receiver(const SproutParams& params, const Trace& trace) {
  const std::vector<int> counts = per_tick_counts(trace, params.tick);
  const auto n = static_cast<double>(counts.size());
  ReceiverCosts best{std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::infinity()};
  ByteCount live = 0;
  for (int rep = 0; rep < kReceiverReplayReps; ++rep) {
    SproutBayesFilter filter(params);
    const DeliveryForecaster forecaster(params);
    double evolve = 0.0;
    double observe = 0.0;
    double forecast = 0.0;
    TimePoint now{};
    for (const int count : counts) {
      const Clock::time_point t0 = Clock::now();
      filter.evolve();
      const Clock::time_point t1 = Clock::now();
      filter.observe(count);
      const Clock::time_point t2 = Clock::now();
      live += forecaster.forecast(filter.distribution(), now)
                  .cumulative_at(params.forecast_horizon_ticks);
      const Clock::time_point t3 = Clock::now();
      now += params.tick;
      evolve += ns_between(t0, t1);
      observe += ns_between(t1, t2);
      forecast += ns_between(t2, t3);
    }
    best.evolve_ns = std::min(best.evolve_ns, evolve / n);
    best.observe_ns = std::min(best.observe_ns, observe / n);
    best.forecast_ns = std::min(best.forecast_ns, forecast / n);
    best.tick_us =
        std::min(best.tick_us, (evolve + observe + forecast) / n / 1000.0);
  }
  if (live < 0) std::abort();  // keeps the forecasts observable
  return best;
}

// Simulator::at + step with 1000 self-rescheduling timers: the event
// loop's per-event cost at a tower-sized pending-event heap.
double replay_sim_event_ns() {
  Simulator sim;
  struct Timer {
    Simulator* sim;
    Duration period;
    void operator()() const { sim->after(period, *this); }
  };
  for (int i = 0; i < 1000; ++i) {
    const Duration period = usec(1000 + 7 * i);
    sim.at(TimePoint{} + period, Timer{&sim, period});
  }
  constexpr std::int64_t kSteps = 200000;
  return best_ns_per_call(kSteps, [&] {
    for (std::int64_t i = 0; i < kSteps; ++i) sim.step();
  });
}

class CountingSink final : public PacketSink {
 public:
  void receive(Packet&&) override { ++received; }
  std::int64_t received = 0;
};

// A saturating source through one CellsimLink, event loop included: wall
// time per delivered packet.  No propagation delay, so the refill loop
// sees the queue it keeps full directly.
double replay_cellsim_pkt_ns(const Trace& trace) {
  const Duration span = std::min(trace.duration(), sec(60));
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReplayReps; ++rep) {
    Simulator sim;
    CountingSink sink;
    CellsimConfig cfg;
    cfg.propagation_delay = Duration::zero();
    CellsimLink link(sim, trace, cfg, sink);
    std::int64_t offered = 0;
    std::function<void()> refill = [&] {
      while (offered - sink.received < 64) {
        Packet p;
        p.size = kMtuBytes;
        p.sent_at = sim.now();
        link.receive(std::move(p));
        ++offered;
      }
      sim.after(msec(1), refill);
    };
    sim.at(TimePoint{}, refill);
    const Clock::time_point t0 = Clock::now();
    sim.run_until(TimePoint{} + span);
    const double ns = ns_between(t0, Clock::now());
    best = std::min(best, ratio(ns, static_cast<double>(sink.received)));
  }
  return best;
}

// TowerCell::step with `users` attached: the PF scheduler's per-slot cost.
double replay_pf_slot_ns(const TowerSpec& tower, int users) {
  TowerCellParams params;
  params.slot = tower.slot;
  params.pf_window = tower.pf_window;
  TowerCell cell(params);
  for (int u = 1; u <= users; ++u) {
    cell.add_user(u, make_tower_channel(
                         tower.channel,
                         tower.channel.seed + static_cast<std::uint64_t>(u)));
  }
  constexpr std::int64_t kSlots = 5000;
  return best_ns_per_call(kSlots, [&] {
    for (std::int64_t i = 0; i < kSlots; ++i) (void)cell.step();
  });
}

struct MetricsCosts {
  double record_ns = 0.0;
  double hist_add_ns = 0.0;
  double recorder_ns = 0.0;
};

// One delivery per trace opportunity, each after 20-99 ms in the network,
// through the three per-delivery metrics paths at the engine's geometry
// (5 ms delay bins up to 20 s, 500 ms timeline bins).
MetricsCosts replay_metrics(const Trace& trace) {
  std::vector<DeliveryRecord> deliveries;
  std::int64_t i = 0;
  for (const TimePoint t : trace.opportunities()) {
    const Duration queued = msec(20 + i++ % 80);
    if (t.time_since_epoch() >= queued) {
      deliveries.push_back({t - queued, t, kMtuBytes});
    }
  }
  const auto calls = static_cast<std::int64_t>(deliveries.size());
  const TimePoint end = TimePoint{} + trace.duration();
  std::int64_t live = 0;
  MetricsCosts c;
  c.record_ns = best_ns_per_call(calls, [&] {
    FlowMetrics m;
    m.enable_histogram(msec(5), sec(20), TimePoint{}, end);
    for (const DeliveryRecord& d : deliveries) m.record(d);
    live += m.histogram().samples();
  });
  c.hist_add_ns = best_ns_per_call(calls, [&] {
    DelayHistogram h(msec(5), sec(20));
    for (const DeliveryRecord& d : deliveries) h.add(d.received_at - d.sent_at);
    live += h.samples();
  });
  c.recorder_ns = best_ns_per_call(calls, [&] {
    FlowTimelineRecorder rec(msec(500), TimePoint{}, end);
    for (const DeliveryRecord& d : deliveries) {
      rec.record_delivery(d.sent_at, d.received_at, d.size);
    }
    live += rec.finalize(nullptr, nullptr).points.empty() ? 0 : 1;
  });
  if (live < 0) std::abort();  // keeps the replays observable
  return c;
}

struct Replays {
  ReceiverCosts receiver;
  double sim_event_ns = 0.0;
  double cellsim_pkt_ns = 0.0;
  int pf_users = 0;
  double pf_slot_ns = 0.0;
  MetricsCosts metrics;
};

Replays run_replays(const Setup& s) {
  Replays r;
  // A tower has no link trace; its replays run on one user's channel.
  std::shared_ptr<const Trace> trace = s.replay_trace;
  if (!trace) {
    const ScenarioSpec& cell = *s.tower_cell;
    trace = std::make_shared<const Trace>(generate_synth_trace(
        cell.topology.tower_spec.channel, cell.run_time + sec(2)));
  }
  timed_ms(true, "replay.core", [&] {
    r.receiver = replay_receiver(s.replay_params, *trace);
  });
  timed_ms(true, "replay.sim", [&] { r.sim_event_ns = replay_sim_event_ns(); });
  timed_ms(true, "replay.link", [&] {
    r.cellsim_pkt_ns = replay_cellsim_pkt_ns(*trace);
    // Workloads without a tower time the PF scheduler on the default
    // 64-user tower; a tower workload at its time-averaged population.
    const TowerSpec tower =
        s.tower_cell ? s.tower_cell->topology.tower_spec : TowerSpec{};
    r.pf_users = s.tower_cell ? std::max(1, static_cast<int>(std::lround(
                                                s.tower_mean_users)))
                              : tower.num_users;
    r.pf_slot_ns = replay_pf_slot_ns(tower, r.pf_users);
  });
  timed_ms(true, "replay.metrics",
           [&] { r.metrics = replay_metrics(*trace); });
  return r;
}

// ---------------------------------------------------------------- metrics ---

// Counter counts and gauge values of the obs registry, by name.
std::map<std::string, double> registry_values() {
  std::map<std::string, double> v;
  for (const obs::MetricSample& m : obs::Registry::instance().snapshot()) {
    v[m.name] = m.kind == obs::MetricSample::Kind::kCounter
                    ? static_cast<double>(m.count)
                    : m.value;
  }
  return v;
}

double value_of(const std::map<std::string, double>& v,
                const std::string& name) {
  const auto it = v.find(name);
  return it == v.end() ? 0.0 : it->second;
}

// The traced pass's per-layer split.  Counts are the registry's deltas over
// that pass, per-call costs come from the replays, and each *.est_share is
// calls x per-call cost / the traced pass's run-phase wall time.
std::vector<Metric> layer_metrics(const Setup& s, const Pass& tp,
                                  const std::map<std::string, double>& before,
                                  const std::map<std::string, double>& after,
                                  double untraced_run_s, const Replays& r) {
  const auto delta = [&](const char* name) {
    return value_of(after, name) - value_of(before, name);
  };
  const double wall_ns = tp.run_s * 1e9;

  const double trace_hits = delta("cache.traces.hits");
  const double trace_lookups = trace_hits + delta("cache.traces.misses");
  const double table_hits = delta("cache.forecast_tables.hits");
  const double table_lookups =
      table_hits + delta("cache.forecast_tables.misses");

  const double batched = delta("filter.evolve.batched_flows");
  const double evolves =
      delta("filter.evolve.banded") + delta("filter.evolve.dense") + batched;
  const double observes = delta("filter.observe");
  const double forecasts = delta("forecast.single");
  // A forecast evolves a private copy once per horizon tick; forecast_ns
  // already covers those evolves, so they are not charged twice.
  const double filter_evolves = std::max(
      0.0, evolves - forecasts * s.replay_params.forecast_horizon_ticks);
  const double core_share =
      ratio(filter_evolves * r.receiver.evolve_ns +
                observes * r.receiver.observe_ns +
                forecasts * r.receiver.forecast_ns,
            wall_ns);
  const double pf_slots = delta("tower.pf.slots_served");
  const double pf_share = ratio(pf_slots * r.pf_slot_ns, wall_ns);

  double delivered = 0.0;
  double drops = 0.0;
  double retained_mb = 0.0;
  for (std::size_t i = 0; i < tp.sweep.cells.size(); ++i) {
    const ScenarioResult& cell = tp.sweep.cells[i];
    delivered += static_cast<double>(cell.packets_delivered);
    drops += static_cast<double>(cell.link_drops);
    // Every non-tower topology retains one DeliveryRecord per delivered
    // packet until its cell returns; the largest cell sets the peak.
    if (s.cells[i].topology.kind != TopologySpec::Kind::kTower) {
      retained_mb = std::max(
          retained_mb, static_cast<double>(cell.packets_delivered) *
                           sizeof(DeliveryRecord) / (1024.0 * 1024.0));
    }
  }
  const double tick_us = to_seconds(s.replay_params.tick) * 1e6;

  return {
      {"spec.parse_ms", s.parse_ms, "ms"},
      {"trace.materialize_ms", s.materialize_ms, "ms"},
      {"trace.cache_lookups", trace_lookups, "count"},
      {"trace.cache_hit_ratio",
       trace_lookups > 0.0 ? trace_hits / trace_lookups : 1.0, "ratio"},
      {"core.setup_ms", s.core_ms, "ms"},
      {"core.evolve_calls", evolves, "count"},
      {"core.observe_calls", observes, "count"},
      {"core.forecast_calls", forecasts, "count"},
      {"core.batched_evolve_share", ratio(batched, evolves), "ratio"},
      {"core.evolve_ns", r.receiver.evolve_ns, "ns"},
      {"core.observe_ns", r.receiver.observe_ns, "ns"},
      {"core.forecast_ns", r.receiver.forecast_ns, "ns"},
      {"core.receiver_tick_us", r.receiver.tick_us, "us"},
      {"core.receiver_core_pct", 100.0 * r.receiver.tick_us / tick_us, "%"},
      {"core.table_cache_lookups", table_lookups, "count"},
      {"core.table_cache_hit_ratio",
       table_lookups > 0.0 ? table_hits / table_lookups : 1.0, "ratio"},
      {"core.est_share", core_share, "ratio"},
      {"sim.event_ns", r.sim_event_ns, "ns"},
      {"link.delivered_pkts", delivered, "count"},
      {"link.drops", drops, "count"},
      {"link.cellsim_pkt_ns", r.cellsim_pkt_ns, "ns"},
      {"link.pf_users", static_cast<double>(r.pf_users), "count"},
      {"link.pf_slot_ns", r.pf_slot_ns, "ns"},
      {"link.pf_slots", pf_slots, "count"},
      {"link.pf_est_share", pf_share, "ratio"},
      {"runner.tower_arrivals", delta("tower.churn.arrivals"), "count"},
      {"runner.tower_departures", delta("tower.churn.departures"), "count"},
      {"runner.tower_peak_users", value_of(after, "tower.attached_users.peak"),
       "count"},
      {"runner.cell_samples", static_cast<double>(tp.cell_ms.size()),
       "count"},
      {"runner.cell_ms_p50", median(tp.cell_ms), "ms"},
      {"runner.cell_ms_max",
       tp.cell_ms.empty()
           ? 0.0
           : *std::max_element(tp.cell_ms.begin(), tp.cell_ms.end()),
       "ms"},
      {"runner.shard_write_ms", tp.write_ms, "ms"},
      {"runner.shard_read_ms", tp.read_ms, "ms"},
      {"runner.shard_bytes", static_cast<double>(tp.json.size()), "bytes"},
      {"metrics.record_ns", r.metrics.record_ns, "ns"},
      {"metrics.hist_add_ns", r.metrics.hist_add_ns, "ns"},
      {"metrics.recorder_ns", r.metrics.recorder_ns, "ns"},
      {"metrics.retained_records_mb", retained_mb, "MiB"},
      {"other.est_share", 1.0 - core_share - pf_share, "ratio"},
      {"obs.overhead_pct", 100.0 * (ratio(tp.run_s, untraced_run_s) - 1.0),
       "%"},
  };
}

void write_metrics(std::ostream& os, const std::vector<Metric>& metrics,
                   int indent) {
  spec::ObjectWriter w(os, indent);
  for (const Metric& m : metrics) {
    std::ostream& o = w.key(m.name);
    o << "{\"value\": ";
    spec::write_double(o, m.value);
    o << ", \"unit\": ";
    write_json_string(o, m.unit);
    o << "}";
  }
  w.close();
}

// ------------------------------------------------------------------- main ---

int bless(const WorkloadDef& def, const Setup& s) {
  const Pass p = run_pass(def, s, /*traced=*/false);
  std::vector<std::string> failures;
  if (check_pass(p, s, nullptr, "", failures) > 0) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "perf_e2e: %s\n", f.c_str());
    }
    return 1;
  }
  const std::string path = expected_path(def);
  std::ofstream out(path, std::ios::binary);
  write_expected(out, def, *s.grid.base_seed, p.sweep);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

std::string trace_path(const Options& opt, const WorkloadDef& def) {
  if (opt.out.empty()) return std::string(def.name) + ".trace.json";
  const std::string suffix = ".json";
  std::string stem = opt.out;
  if (stem.size() > suffix.size() &&
      stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) == 0) {
    stem.resize(stem.size() - suffix.size());
  }
  return stem + ".trace.json";
}

int run(const Options& opt) {
  const WorkloadDef& def = *opt.workload;
  std::vector<double> setup_samples;
  double setup_total_s = 0.0;
  while (!opt.bless) {
    const auto taken = static_cast<int>(setup_samples.size()) + 1;
    if (taken >= kSetupMaxSamples ||
        (taken >= kSetupMinSamples && setup_total_s >= kSetupTargetS)) {
      break;
    }
    setup_samples.push_back(cold_setup_seconds(def, opt));
    setup_total_s += setup_samples.back();
  }
  if (opt.traced) obs::Tracer::instance().start();
  const Setup s = run_setup(def, opt, opt.traced);
  setup_samples.push_back(s.seconds);
  const std::uint64_t seed = *s.grid.base_seed;
  if (opt.bless) {
    if (seed != s.default_seed) {
      throw std::runtime_error("--bless records the default seed; drop --seed");
    }
    return bless(def, s);
  }

  std::vector<ExpectedCell> expected;
  const bool check_expected = seed == s.default_seed;
  if (check_expected) expected = read_expected(def, seed);
  const std::vector<ExpectedCell>* exp = check_expected ? &expected : nullptr;

  const auto cells = static_cast<std::int64_t>(s.cells.size());
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::string digest;
  std::vector<double> rates;
  std::vector<double> run_walls;
  int passes = 0;
  // Taken after the first pass: later passes add only allocator
  // fragmentation, which would tie the number to how many passes the
  // host's speed allowed.
  double rss_mb = 0.0;
  const Clock::time_point t0 = Clock::now();
  do {
    const Pass p = run_pass(def, s, /*traced=*/false);
    ++passes;
    attempted += cells;
    failed += check_pass(p, s, exp, digest, failures);
    if (passes == 1) rss_mb = peak_rss_mb();
    if (!p.error.empty()) break;
    if (digest.empty()) digest = digest_of(p.json);
    rates.push_back(p.sim_s / p.run_s);
    run_walls.push_back(p.run_s);
  } while (ms_since(t0) / 1000.0 < opt.seconds);

  std::vector<Metric> layers;
  std::string traced_digest;
  if (opt.traced) {
    const std::map<std::string, double> before = registry_values();
    obs::set_enabled(true);
    const Pass tp = run_pass(def, s, /*traced=*/true);
    obs::set_enabled(false);
    const std::map<std::string, double> after = registry_values();
    ++passes;
    attempted += cells;
    failed += check_pass(tp, s, exp, digest, failures);
    if (tp.error.empty()) traced_digest = digest_of(tp.json);
    const Replays r = run_replays(s);
    obs::Tracer::instance().stop();
    layers = layer_metrics(s, tp, before, after, median(run_walls), r);
    const std::string path = trace_path(opt, def);
    std::ofstream trace(path, std::ios::binary);
    obs::Tracer::instance().write_json(trace);
    if (!trace) throw std::runtime_error("cannot write " + path);
  }

  const std::vector<Metric> e2e = {
      {"sim_s_per_wall_s", median(rates), "s/s"},
      {"setup_s", median(setup_samples), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
      {"passed_cell_frac",
       1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "fraction"},
  };

  for (const std::string& f : failures) {
    std::fprintf(stderr, "perf_e2e: %s: %s\n", def.name, f.c_str());
  }
  // The report shows what this run is for: the end-to-end metrics untraced,
  // the per-layer split traced.  The results file carries both.
  std::printf("%s digest %s\n", def.name, digest.c_str());
  if (opt.traced) {
    std::printf("%s traced_digest %s\n", def.name, traced_digest.c_str());
  }
  for (const Metric& m : opt.traced ? layers : e2e) {
    std::printf("%s %s %.6g %s\n", def.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }

  if (!opt.out.empty()) {
    std::ofstream out(opt.out, std::ios::binary);
    spec::ObjectWriter w(out, 0);
    w.str("schema", "perf-e2e-results-v1");
    w.str("workload", def.name);
    w.str("seed", std::to_string(seed));
    w.boolean("traced", opt.traced);
    w.number("seconds", opt.seconds);
    write_stamp(w.key("stamp"), 2);
    w.boolean("correct", failed == 0);
    w.integer("attempted", attempted);
    w.integer("failed", failed);
    w.integer("passes", passes);
    std::ostream& pr = w.key("pass_run_s");
    pr << "[";
    for (std::size_t i = 0; i < run_walls.size(); ++i) {
      if (i > 0) pr << ", ";
      spec::write_double(pr, run_walls[i]);
    }
    pr << "]";
    w.str("digest", digest);
    if (opt.traced) w.str("traced_digest", traced_digest);
    write_metrics(w.key("end_to_end"), e2e, 2);
    write_metrics(w.key("per_layer"), layers, 2);
    std::ostream& f = w.key("failures");
    f << "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) f << ", ";
      write_json_string(f, failures[i]);
    }
    f << "]";
    w.close();
    out << "\n";
    if (!out) throw std::runtime_error("cannot write " + opt.out);
  }
  return failed == 0 ? 0 : 1;
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "perf_e2e: %s\n"
               "usage: perf_e2e --workload NAME [--seed S] [--seconds T] "
               "[--traced] [--out FILE] [--bless]\n"
               "workloads:",
               why.c_str());
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const WorkloadDef& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) usage_error("unknown workload " + name);
    } else if (arg == "--seed") {
      const std::string v = value();
      std::uint64_t seed = 0;
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), seed);
      if (ec != std::errc() || end != v.data() + v.size()) {
        usage_error("--seed needs an unsigned integer, got " + v);
      }
      opt.seed = seed;
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !std::isfinite(opt.seconds) ||
          opt.seconds < 0.0) {
        usage_error("--seconds needs a number >= 0, got " + v);
      }
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--bless") {
      opt.bless = true;
    } else {
      usage_error("unknown argument " + arg);
    }
  }
  if (opt.workload == nullptr) usage_error("--workload is required");
  if (opt.bless && opt.traced) usage_error("--bless runs untraced");
  return opt;
}

}  // namespace
}  // namespace sprout::e2e

int main(int argc, char** argv) {
  const sprout::e2e::Options opt = sprout::e2e::parse_options(argc, argv);
  try {
    return sprout::e2e::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_e2e: %s\n", e.what());
    return 1;
  }
}
