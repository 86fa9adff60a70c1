// trace_synth — generate, inspect and export synthetic cellular traces.
//
// The CLI front door of the channel-synthesis subsystem (synth/synth.h):
// pick a base model by name or load a full SynthSpec from JSON (the same
// object a scenario spec's "synth" link embeds), materialize a trace of
// any duration, print its statistics, optionally plot the delivered rate
// as an ASCII timeline, and optionally export a mahimahi-format trace
// file any emulator (including this repo's Cellsim) can replay.
//
//   trace_synth --model brownian --duration 60 --seed 7
//   trace_synth --model markov --plot
//   trace_synth --synth channel.json --duration 120 --out channel.tr
//
// Generation is deterministic: the same inputs produce byte-identical
// traces in any process (the CI synth-smoke job diffs two runs).
//
// Exit codes: 0 ok, 1 generation/IO failure, 2 usage.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "spec/synth_io.h"
#include "synth/synth.h"
#include "util/ascii_plot.h"
#include "util/table.h"

namespace {

using namespace sprout;

int usage() {
  std::cerr <<
      "usage: trace_synth (--model brownian|markov|cox | --synth FILE.json)\n"
      "                   [--duration S] [--seed N] [--out TRACE.tr]\n"
      "                   [--plot] [--bin S]\n";
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Delivered rate per bin, as an ASCII timeline: one row per bin, bar
// length proportional to the bin's average rate (util/ascii_plot.h, the
// renderer sweep_report's charts share).
void plot(const Trace& trace, Duration bin) {
  const double bin_s = to_seconds(bin);
  const auto& opportunities = trace.opportunities();
  const std::size_t bins = static_cast<std::size_t>(
      to_seconds(trace.duration()) / bin_s);
  if (bins == 0) return;
  std::vector<double> counts(bins, 0.0);
  for (const TimePoint t : opportunities) {
    const auto b = static_cast<std::size_t>(
        to_seconds(t.time_since_epoch()) / bin_s);
    if (b < bins) counts[b] += 1.0;
  }
  const double peak = *std::max_element(counts.begin(), counts.end());
  std::cout << "\nrate over time (one row per " << format_double(bin_s, 1)
            << " s, full bar = " << format_double(
                   peak > 0.0 ? peak / bin_s : 0.0, 0)
            << " pkt/s):\n";
  AsciiPlotOptions opt;
  opt.bin_s = bin_s;
  render_ascii_plot(std::cout, counts, opt);
}

}  // namespace

int main(int argc, char** argv) {
  std::string model;
  std::string synth_path;
  std::string out_path;
  double duration_s = 60.0;
  std::uint64_t seed = 1;
  bool seed_given = false;
  bool want_plot = false;
  double bin_s = 1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--model") model = value();
      else if (arg == "--synth") synth_path = value();
      else if (arg == "--duration") duration_s = std::stod(value());
      else if (arg == "--seed") {
        seed = std::stoull(value());
        seed_given = true;
      }
      else if (arg == "--out") out_path = value();
      else if (arg == "--plot") want_plot = true;
      else if (arg == "--bin") bin_s = std::stod(value());
      else return usage();
    } catch (const std::exception& e) {
      std::cerr << "trace_synth: " << e.what() << "\n";
      return 2;
    }
  }
  if (model.empty() == synth_path.empty()) return usage();  // exactly one
  if (duration_s <= 0.0 || bin_s <= 0.0) {
    std::cerr << "trace_synth: --duration and --bin must be > 0\n";
    return 2;
  }

  try {
    SynthSpec spec;
    if (!synth_path.empty()) {
      spec = sprout::spec::parse_synth_json(read_file(synth_path));
    } else if (model == "brownian") {
      spec = SynthSpec::brownian_model({}, seed);
    } else if (model == "markov") {
      spec = SynthSpec::markov_model({}, seed);
    } else if (model == "cox") {
      spec = SynthSpec::cox_model({}, seed);
    } else {
      std::cerr << "trace_synth: unknown model \"" << model
                << "\" (expected brownian, markov or cox)\n";
      return 2;
    }
    // --seed overrides whatever the source carried — including a --synth
    // file's embedded seed, so shell-driven seed ensembles actually vary.
    if (!model.empty() || seed_given) spec = spec.with_seed(seed);

    const Duration duration = from_seconds(duration_s);
    const Trace trace = generate_synth_trace(spec, duration);

    const auto gaps = trace.interarrivals();
    Duration longest_gap = Duration::zero();
    for (const Duration g : gaps) longest_gap = std::max(longest_gap, g);
    double outage_s = 0.0;  // time spent in >200 ms delivery silences
    for (const Duration g : gaps) {
      if (g > msec(200)) outage_s += to_seconds(g);
    }

    std::cout << "channel:       " << spec.label() << "\n"
              << "key:           " << synth_key(spec, duration) << "\n"
              << "duration:      " << format_double(duration_s, 1) << " s\n"
              << "opportunities: " << trace.size() << "\n"
              << "mean rate:     " << format_double(trace.average_rate_kbps(), 0)
              << " kbit/s ("
              << format_double(static_cast<double>(trace.size()) / duration_s, 0)
              << " pkt/s)\n"
              << "longest gap:   "
              << format_double(to_seconds(longest_gap) * 1e3, 0) << " ms\n"
              << "outage time:   " << format_double(outage_s, 1)
              << " s in gaps > 200 ms\n";

    if (want_plot) plot(trace, from_seconds(bin_s));

    if (!out_path.empty()) {
      write_trace_file(trace, out_path);
      std::cout << "trace written to " << out_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "trace_synth: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
