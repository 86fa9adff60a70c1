// Independent-substrate check: do the paper's results survive on traces
// that do NOT come from the Cox process Sprout's filter assumes?
//
// The §2.1 proportional-fair cell (link/tower_cell.h, over fading users
// from make_fading_channel) generates per-user delivery traces from first
// principles — fading channels, Shannon-capped rates, PF scheduling,
// contention from other users.  This bench runs the headline schemes over
// one user's downlink (with another user's trace as the uplink) and
// prints the Figure-7-style comparison.  If the orderings match the
// Cox-trace results, the reproduction's conclusions are not an artifact of
// generator/model match — addressing the same concern DESIGN.md §4 raises
// about synthetic traces.
#include <iostream>

#include "bench_common.h"
#include "link/tower_cell.h"
#include "trace/analysis.h"
#include "util/table.h"

int main() {
  using namespace sprout;

  std::cout << "=== Ablation: schemes over the proportional-fair cell "
               "(first-principles traces) ===\n\n";

  // Four users at a 5 dB mean SNR contend for 1 ms slots; user 0's trace
  // is our downlink, user 1's the feedback path.
  constexpr int kUsers = 4;
  constexpr std::uint64_t kSeed = 21;
  TowerCellParams cell_params;
  cell_params.slot = msec(1);
  TowerCell cell(cell_params);
  for (int u = 0; u < kUsers; ++u) {
    cell.add_user(u, make_fading_channel(5.0, kSeed + u));
  }
  const Duration run_time = bench::run_seconds();
  const Duration horizon = run_time + sec(2);
  while (cell.now() < TimePoint{} + horizon) cell.step();
  std::vector<Trace> traces;
  for (int u = 0; u < kUsers; ++u) {
    traces.emplace_back(cell.remove_user(u), horizon);
  }

  std::cout << "Cell: " << kUsers << " users (seeds " << kSeed << "-"
            << kSeed + kUsers - 1 << "), " << kFadingBandwidthHz / 1e6
            << " MHz shared.  User-0 trace: "
            << traces[0].average_rate_kbps() << " kbps avg, dynamic range "
            << rate_dynamic_range(traces[0], sec(1)) << "x at 1 s windows\n\n";

  // To keep the comparison honest we write the traces to disk in mahimahi
  // format and run over LinkSpec::trace_files — the same path a user with
  // real captures would take.  The sweep's shared cache parses each file
  // once for the whole scheme grid.
  const std::string fwd_path = "/tmp/sprout_pfcell_down.trace";
  const std::string rev_path = "/tmp/sprout_pfcell_up.trace";
  write_trace_file(traces[0], fwd_path);
  write_trace_file(traces[1], rev_path);

  const std::vector<SchemeId> schemes = {
      SchemeId::kSprout, SchemeId::kSproutEwma, SchemeId::kSkype,
      SchemeId::kCubic,  SchemeId::kVegas,      SchemeId::kCubicCodel};
  std::vector<ScenarioSpec> specs;
  for (const SchemeId scheme : schemes) {
    ScenarioSpec c;
    c.scheme = scheme;
    c.link = LinkSpec::trace_files(fwd_path, rev_path);
    c.run_time = run_time;
    c.warmup = run_time / 4;
    specs.push_back(c);
  }
  const std::vector<ScenarioResult> results = bench::sweep(specs);

  TableWriter t({"Scheme", "Throughput (kbps)", "Self-inflicted delay (ms)",
                 "Utilization"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const ScenarioResult& r = results[i];
    t.row()
        .cell(to_string(schemes[i]))
        .cell(r.throughput_kbps(), 0)
        .cell(r.self_inflicted_delay_ms(), 0)
        .cell(r.utilization(), 2);
  }
  t.print(std::cout);

  std::cout
      << "\nReading (measured at the default 120 s): Sprout keeps the\n"
         "lowest self-inflicted delay, though Sprout-EWMA comes within\n"
         "5 ms of it while moving 2.8x Sprout's throughput.  At this seed\n"
         "Cubic does not saturate the link: it runs at 0.11 utilization\n"
         "under 0.5 s of delay, and Cubic-CoDel's delay is higher, not\n"
         "lower.  Cubic's mode depends on the cell's seed: over cells\n"
         "whose users start at seeds 21-28, it saturated the link\n"
         "(utilization 1.00, 47-63 s of delay) on 4 of 8, where CoDel\n"
         "cut its delay 74-226x, and ran at 0.10-0.13 utilization on the\n"
         "other 4.  Sprout kept the lowest delay on all 8.  Every\n"
         "scheme's ABSOLUTE utilization is low (<= 0.17 here): a\n"
         "slot-scheduled link is a harsher regime than the paper's\n"
         "Poisson model.\n";
  return 0;
}
