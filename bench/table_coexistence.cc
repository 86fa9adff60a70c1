// Coexistence: Sprout sharing ONE bottleneck queue with a loss-based or
// delay-based competitor — the question the paper's per-user-queue
// assumption (§2.1) sets aside and that later work (C2TCP, Abbasloo et
// al.) benchmarks directly.  Each cell runs a heterogeneous shared-queue
// scenario: one Sprout flow and one competitor flow (Cubic, NewReno,
// Vegas, GCC) commingled on a cellular downlink, across three traced
// networks, as one parallel sweep.
//
// Reported per pairing: each flow's throughput and 95% end-to-end delay,
// Jain's fairness index over the co-active window, and each flow's share
// of the link capacity actually available while both flows were live.
//
// Flags:
//   --smoke           one tiny cell (Sprout vs Cubic on Verizon LTE) — the
//                     CI bench-smoke job's shape
//   --json PATH       also dump the combined table as JSON (CI artifact)
//   --dump-spec PATH  write the grid as a declarative experiment spec
//                     (spec/grid.h) and exit without simulating; the file
//                     feeds `sweep run --spec` and `sweep list --spec`
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "spec/grid.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sprout;

  bool smoke = false;
  std::string json_path;
  std::string dump_spec_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dump-spec") == 0 && i + 1 < argc) {
      dump_spec_path = argv[++i];
    } else {
      std::cerr << "usage: table_coexistence [--smoke] [--json PATH] "
                   "[--dump-spec PATH]\n";
      return 2;
    }
  }

  std::cout << "=== Coexistence: Sprout vs loss/delay-based flows in one "
               "shared cellular queue ===\n\n";

  std::vector<std::string> networks = {"Verizon LTE", "AT&T LTE",
                                       "T-Mobile 3G (UMTS)"};
  std::vector<SchemeId> rivals = coexistence_schemes();
  if (smoke) {
    networks = {"Verizon LTE"};
    rivals = {SchemeId::kCubic};
  }

  // network x rival grid, one heterogeneous two-flow cell each.
  std::vector<ScenarioSpec> specs;
  for (const std::string& network : networks) {
    const LinkPreset& link = find_link_preset(network, LinkDirection::kDownlink);
    for (const SchemeId rival : rivals) {
      specs.push_back(bench::hetero_spec(
          {FlowSpec::of(SchemeId::kSprout), FlowSpec::of(rival)}, link));
    }
  }

  if (!dump_spec_path.empty()) {
    spec::ExperimentSpec experiment;
    experiment.name = smoke ? "coexistence-bench-smoke" : "coexistence-bench";
    experiment.sweep.cells = specs;
    std::ofstream out(dump_spec_path);
    if (!out) {
      std::cerr << "cannot write " << dump_spec_path << "\n";
      return 1;
    }
    spec::write_experiment_json(out, experiment);
    std::cout << "spec (" << specs.size() << " cells) written to "
              << dump_spec_path << "\n";
    return 0;
  }

  const std::vector<ScenarioResult> results = bench::sweep(specs);

  TableWriter combined({"Network", "Rival", "Sprout kbps", "Sprout d95 ms",
                        "Rival kbps", "Rival d95 ms", "Jain", "Sprout share",
                        "Rival share"});
  std::size_t cell = 0;
  for (const std::string& network : networks) {
    std::cout << "--- " << network << " downlink ---\n";
    TableWriter t({"Rival", "Sprout kbps", "Sprout d95 (ms)", "Rival kbps",
                   "Rival d95 (ms)", "Jain", "Sprout share", "Rival share"});
    for (std::size_t k = 0; k < rivals.size(); ++k) {
      const ScenarioResult& r = results[cell++];
      const FlowResult& sprout = r.flows.at(0);
      const FlowResult& other = r.flows.at(1);
      // One row feeds both the per-network table and the combined JSON
      // table, so the printed output and the CI artifact cannot drift.
      const std::vector<std::string> row = {
          other.label,
          format_double(sprout.throughput_kbps, 0),
          format_double(sprout.delay95_ms, 0),
          format_double(other.throughput_kbps, 0),
          format_double(other.delay95_ms, 0),
          format_double(r.jain_index, 3),
          format_double(sprout.capacity_share, 2),
          format_double(other.capacity_share, 2),
      };
      t.row();
      for (const std::string& v : row) t.cell(v);
      combined.row().cell(network);
      for (const std::string& v : row) combined.cell(v);
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    combined.write_json(out);
    std::cout << "JSON written to " << json_path << "\n\n";
  }

  std::cout
      << "Reading: against loss-based flows (Cubic, NewReno) Sprout's\n"
         "cautious window cannot defend its share — the loss-based flow\n"
         "fills the common queue, takes most of the capacity, and drives\n"
         "everyone's delay up by seconds (the paper's §2.1 commingling\n"
         "argument, now measured).  Against delay-sensitive peers (Vegas,\n"
         "GCC) the split is far closer to fair and delay stays bounded:\n"
         "coexistence is a property of the rival's congestion signal, not\n"
         "of Sprout's forecast.\n";
  return 0;
}
