// spec_lint — validate and pretty-expand a declarative experiment spec.
//
// The spec subsystem's reader is strict and path-aware, so linting is just
// parsing: a clean exit means every cell of the expanded grid passed the
// same validation the runner applies, and the printed fingerprint is the
// exact content address `sweep run/merge` will stamp on results.
//
//   spec_lint FILE              summary: cells, cost, fingerprint
//   spec_lint FILE --expand     per-cell table of the expanded grid
//   spec_lint FILE --shards N   the LPT cut `sweep run --shard I/N` runs
//   spec_lint FILE --wall-clock [--threads T]
//                               wall-clock estimate: per-cell estimated_cost
//                               (Cubic-equivalent seconds) packed onto T
//                               threads (default: all cores) by the same
//                               greedy LPT rule the shard cut uses, the
//                               resulting makespan divided by a rate
//                               MEASURED here by timing one short Cubic
//                               cell — so one dominant cell shows up as the
//                               floor it really is instead of being
//                               averaged away
//
// Exit codes: 0 valid, 1 invalid (the SpecError diagnostic goes to
// stderr), 2 usage.
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "spec/grid.h"
#include "util/table.h"

namespace {

using namespace sprout;

// One line describing a cell's flows: "Sprout" for a single flow,
// "Sprout + Cubic" for a heterogeneous queue, "4 x Vegas" for a
// homogeneous fleet, "Cubic + Skype (tunnel)" for tunnel contention.
std::string flows_summary(const ScenarioSpec& cell) {
  switch (cell.topology.kind) {
    case TopologySpec::Kind::kSingleFlow:
      return to_string(cell.scheme);
    case TopologySpec::Kind::kSharedQueue: {
      if (cell.topology.flows.empty()) {
        return std::to_string(cell.topology.num_flows) + " x " +
               to_string(cell.scheme);
      }
      std::string out;
      for (const FlowSpec& f : cell.topology.flows) {
        if (!out.empty()) out += " + ";
        out += to_string(f.scheme);
      }
      return out;
    }
    case TopologySpec::Kind::kTunnelContention:
      return cell.topology.via_tunnel ? "Cubic + Skype (tunnel)"
                                      : "Cubic + Skype (direct)";
  }
  return "?";
}

// Measures how many Cubic-equivalent simulated seconds one thread of THIS
// machine retires per wall-clock second: one short Cubic cell, timed on
// its second run so trace generation and table warmup stay out of the
// number.  estimated_cost is in exactly these units (simulated seconds ×
// scheme_cost_weight, Cubic ≡ 1), so cost / rate is a wall-clock estimate.
// Strict positive-int flag parse.  std::atoi reads "4x" as 4, parses "-2"
// happily, and overflows silently — a zero/negative or garbage count here
// used to flow straight into the makespan bound as a worker count.  A bad
// value exits 2 with a path-style diagnostic instead.
int parse_positive_int(const std::string& flag, const std::string& text) {
  std::size_t pos = 0;
  long v = 0;
  try {
    v = std::stol(text, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != text.size() || v < 1 || v > INT_MAX) {
    std::cerr << "spec_lint: " << flag
              << ": must be a positive integer, got \"" << text << "\"\n";
    std::exit(2);
  }
  return static_cast<int>(v);
}

double measure_cubic_seconds_per_wall_second() {
  ScenarioSpec probe;
  probe.scheme = SchemeId::kCubic;
  probe.link = LinkSpec::preset("Verizon LTE", LinkDirection::kDownlink);
  probe.run_time = sec(4);
  probe.warmup = sec(1);
  ScenarioCache cache;
  (void)run_scenario(probe, &cache);  // warm the trace cache
  const auto start = std::chrono::steady_clock::now();
  (void)run_scenario(probe, &cache);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return to_seconds(probe.run_time) / std::max(wall, 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: spec_lint FILE [--expand] [--shards N] [--wall-clock] "
      "[--threads T]\n";
  std::string path;
  bool expand = false;
  bool wall_clock = false;
  int shards = 0;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--expand") {
      expand = true;
    } else if (arg == "--wall-clock") {
      wall_clock = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = parse_positive_int(arg, argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = parse_positive_int(arg, argv[++i]);
    } else if (arg.rfind("--", 0) == 0 || !path.empty()) {
      std::cerr << kUsage;
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  spec::ExperimentSpec experiment;
  try {
    experiment = spec::parse_experiment_file(path);
  } catch (const std::exception& e) {
    std::cerr << "spec_lint: " << e.what() << "\n";
    return 1;
  }

  double total_cost = 0.0;
  for (const ScenarioSpec& cell : experiment.sweep.cells) {
    total_cost += estimated_cost(cell);
  }
  std::cout << "spec:        " << path << "\n"
            << "name:        "
            << (experiment.name.empty() ? "(unnamed)" : experiment.name)
            << "\n"
            << "cells:       " << experiment.sweep.cells.size() << "\n"
            << "est. cost:   " << format_double(total_cost, 0)
            << " Cubic-equivalent seconds\n"
            << "base seed:   "
            << (experiment.sweep.base_seed.has_value()
                    ? std::to_string(*experiment.sweep.base_seed)
                    : std::string("(per-cell seeds)"))
            << "\n"
            << "fingerprint: " << sweep_fingerprint(experiment.sweep) << "\n";

  if (wall_clock) {
    const double rate = measure_cubic_seconds_per_wall_second();
    if (threads < 1) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads < 1) threads = 1;
    }
    const double serial_s = total_cost / rate;
    // Pack cells onto threads the way a real run does — greedy LPT over
    // estimated_cost — and report the resulting makespan.  Cells cannot be
    // split, so total/threads is a fantasy whenever one expensive cell
    // (a Sprout-Adaptive grid point, say) towers over the rest; the LPT
    // makespan keeps that cell visible as the floor it is.
    double makespan = 0.0;
    for (const std::vector<std::size_t>& bucket :
         lpt_partition(experiment.sweep.cells, threads)) {
      double cost = 0.0;
      for (const std::size_t i : bucket) {
        cost += estimated_cost(experiment.sweep.cells[i]);
      }
      makespan = std::max(makespan, cost);
    }
    std::cout << "wall-clock:  ~" << format_double(serial_s, 1)
              << " s single-thread, ~" << format_double(makespan / rate, 1)
              << " s on " << threads
              << " threads (LPT makespan; measured " << format_double(rate, 0)
              << " Cubic-s/s per thread)\n";
  }

  if (expand) {
    std::cout << "\n";
    TableWriter t({"Cell", "Flows", "Link", "Run (s)", "Est. cost",
                   "Fingerprint"});
    for (std::size_t i = 0; i < experiment.sweep.cells.size(); ++i) {
      const ScenarioSpec& cell = experiment.sweep.cells[i];
      t.row()
          .cell(static_cast<std::int64_t>(i))
          .cell(flows_summary(cell))
          .cell(cell.link.name())
          .cell(to_seconds(cell.run_time), 0)
          .cell(estimated_cost(cell), 0)
          .cell(std::to_string(scenario_fingerprint(cell)));
    }
    t.print(std::cout);
  }

  if (shards > 0) {
    std::cout << "\n";
    TableWriter t({"Shard", "Cells", "Est. cost"});
    const std::vector<std::vector<std::size_t>> cut =
        lpt_partition(experiment.sweep.cells, shards);
    for (int s = 0; s < shards; ++s) {
      const std::vector<std::size_t>& indices =
          cut[static_cast<std::size_t>(s)];
      double cost = 0.0;
      std::string cells;
      for (const std::size_t i : indices) {
        cost += estimated_cost(experiment.sweep.cells[i]);
        if (!cells.empty()) cells += ",";
        cells += std::to_string(i);
      }
      t.row()
          .cell(std::to_string(s + 1) + "/" + std::to_string(shards))
          .cell(cells.empty() ? "(none)" : cells)
          .cell(cost, 0);
    }
    t.print(std::cout);
  }
  return 0;
}
