// sweep_report — render, export, validate and strip what sweeps emit.
//
//   sweep_report metrics      METRICS.jsonl   telemetry feed tables
//                                             (sweep run --metrics-out)
//   sweep_report runtime      SWEEP.json      runtime stamps of a merged
//                                             sweep
//   sweep_report chart        SWEEP.json [--cell I] [--flow F]
//   sweep_report export       SWEEP.json --out PATH [--format jsonl|csv]
//                                        [--cell I] [--flow F]
//   sweep_report export-trace SWEEP.json --out TRACE.json
//                                        [--merge TRACE_IN.json]
//   sweep_report validate     metrics|trace|timeline FILE
//   sweep_report strip        runtime|timeline IN.json OUT.json
//
// `metrics` prints the slowest cells, per-worker utilization, the fault
// log, and — from the registry snapshots — cache hit rates.  `runtime`
// prints the per-cell wall/RSS stamps a --metrics-out run leaves in its
// results.  `chart` draws the paper's Figure-6-style view of a --timeline
// sweep in the terminal (util/ascii_plot.h): realized capacity bars with
// the cautious forecast marked on the same scale, then the per-bin delay.
// `export` flattens timelines to JSONL or CSV; `export-trace` emits them
// as Chrome counter tracks ("ph": "C", chrome://tracing /
// ui.perfetto.dev), optionally merged into a --trace-out file so one trace
// shows worker spans above per-flow counters.  `validate` is the strict
// schema gate: path-aware errors, non-zero exit on the first violation;
// integers go through runner/shard.h's bounded readers.  `strip` erases
// every "runtime" or "timeline" member (erase_result_field,
// runner/shard.h) so a telemetered or recorded run byte-diffs clean
// against a plain one.
//
// Exit codes: 0 ok, 1 invalid input, 2 usage.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli_io.h"
#include "runner/shard.h"
#include "util/ascii_plot.h"
#include "util/table.h"

namespace {

using namespace sprout;
using cli::UsageError;
using cli::read_file;
using cli::require;
using cli::write_file;

// One of the bounded integer readers (read_i64, read_size; runner/shard.h)
// applied to `v`, its errors led by `context`: the value's file:line or
// JSON path.
template <typename Read>
auto read_at(Read read, const JsonValue& v, const std::string& context) {
  try {
    return read(v);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(context + ": " + e.what());
  }
}

// Calls `fn(cell_index, result, context)` for every cells[i].result of a
// sweep or shard document; `context` names the member's path
// ("file: cells[3].result") so a violation points at the offending value.
void for_each_result(
    const std::string& path, const JsonValue& doc,
    const std::function<void(std::int64_t, const JsonValue&,
                             const std::string&)>& fn) {
  const std::vector<JsonValue>& cells = doc.at("cells").as_array();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::string context = path + ": cells[" + std::to_string(c) + "]";
    fn(read_at(read_i64, cells[c].at("index"), context + ".index"),
       cells[c].at("result"), context + ".result");
  }
}

// --- runtime: metrics.jsonl feed and merged-sweep stamps -----------------

struct CellEvent {
  std::size_t index = 0;
  std::int64_t worker = -1;  // -1: not recorded (merged-sweep stamps)
  std::int64_t attempt = 0;
  double wall_s = 0.0;
  std::int64_t peak_rss_bytes = 0;
};

struct MetricsFeed {
  std::string sweep_fingerprint;
  std::size_t total_cells = 0;
  std::vector<CellEvent> cells;
  std::vector<std::string> faults;  // rendered retry/poison lines
  std::size_t progress_events = 0;
  bool have_summary = false;
  JsonValue summary;  // the whole summary event (carries "registry")
  // Worker parting snapshots: the cell work (cache lookups, filter math)
  // happens in the workers, so their registries carry those tallies.
  std::vector<JsonValue> worker_registries;
};

std::string as_count(const JsonValue& v, const std::string& context) {
  return std::to_string(read_at(read_i64, v, context));
}

// A summary's or worker_summary's registry snapshot.  `metrics` sums its
// counters, so each must be a bounded integer.
void check_registry(const JsonValue& v, const std::string& context,
                    const std::string& event) {
  require(v.at("registry").has("counters"), context,
          event + " registry without counters");
  for (const auto& [name, count] : v.at("registry").at("counters").members()) {
    (void)read_at(read_i64, count, context + ": counter " + name);
  }
}

// Parses and schema-checks a metrics.jsonl feed in one pass: rendering and
// `validate metrics` must not diverge on what counts as well-formed.
MetricsFeed parse_metrics(const std::string& path) {
  const std::string text = read_file(path);
  std::vector<std::string> lines;
  for (std::size_t start = 0, end; start < text.size(); start = end + 1) {
    end = std::min(text.find('\n', start), text.size());
    if (end > start) lines.push_back(text.substr(start, end - start));
  }
  require(!lines.empty(), path, "empty metrics file");

  MetricsFeed feed;
  const JsonValue header = JsonValue::parse(lines[0]);
  require(header.has("schema") &&
              header.at("schema").as_string() == "sprout-metrics-v1",
          path + ":1", "header schema is not sprout-metrics-v1");
  feed.sweep_fingerprint = header.at("sweep_fingerprint").as_string();
  feed.total_cells = read_at(read_size, header.at("total_cells"), path + ":1");

  for (std::size_t n = 1; n < lines.size(); ++n) {
    const std::string context = path + ":" + std::to_string(n + 1);
    const JsonValue v = JsonValue::parse(lines[n]);
    require(v.has("event"), context, "record without an \"event\" key");
    const std::string& event = v.at("event").as_string();
    if (event == "cell") {
      CellEvent c;
      c.index = read_at(read_size, v.at("index"), context);
      require(c.index < feed.total_cells, context, "cell index out of range");
      c.worker = read_at(read_i64, v.at("worker"), context);
      require(c.worker >= 0, context, "negative worker");
      c.attempt = read_at(read_i64, v.at("attempt"), context);
      c.wall_s = v.at("wall_s").as_number();
      c.peak_rss_bytes = read_at(read_i64, v.at("peak_rss_bytes"), context);
      feed.cells.push_back(c);
    } else if (event == "retry") {
      feed.faults.push_back(
          "cell " + as_count(v.at("index"), context) + " retry (attempt " +
          as_count(v.at("attempt"), context) + "): " +
          v.at("error").as_string());
    } else if (event == "poison") {
      feed.faults.push_back(
          "cell " + as_count(v.at("index"), context) + " POISONED after " +
          as_count(v.at("attempts"), context) +
          " attempts: " + v.at("error").as_string());
    } else if (event == "progress" || event == "summary") {
      (void)v.at("completed").as_number();
      (void)v.at("total").as_number();
      (void)v.at("elapsed_s").as_number();
      if (event == "progress") {
        ++feed.progress_events;
      } else {
        check_registry(v, context, event);
        feed.have_summary = true;
        feed.summary = v;
      }
    } else if (event == "worker_summary") {
      (void)v.at("worker").as_number();
      check_registry(v, context, event);
      feed.worker_registries.push_back(v.at("registry"));
    } else {
      require(false, context, "unknown event \"" + event + "\"");
    }
  }
  return feed;
}

std::string format_bytes(std::int64_t bytes) {
  if (bytes >= 1024 * 1024) {
    return format_double(static_cast<double>(bytes) / (1024.0 * 1024.0), 1) +
           " MiB";
  }
  return format_double(static_cast<double>(bytes) / 1024.0, 0) + " KiB";
}

void print_slowest_cells(std::vector<CellEvent> cells, std::size_t limit) {
  std::sort(cells.begin(), cells.end(),
            [](const CellEvent& a, const CellEvent& b) {
              if (a.wall_s != b.wall_s) return a.wall_s > b.wall_s;
              return a.index < b.index;
            });
  if (cells.size() > limit) cells.resize(limit);
  const bool with_worker = !cells.empty() && cells.front().worker >= 0;
  std::cout << "slowest cells:\n";
  TableWriter t(with_worker ? std::vector<std::string>{"Cell", "Worker",
                                                       "Attempt", "Wall s",
                                                       "Peak RSS"}
                            : std::vector<std::string>{"Cell", "Attempt",
                                                       "Wall s", "Peak RSS"});
  for (const CellEvent& c : cells) {
    auto& row = t.row().cell(static_cast<std::int64_t>(c.index));
    if (with_worker) row.cell(c.worker);
    row.cell(c.attempt)
        .cell(c.wall_s, 3)
        .cell(format_bytes(c.peak_rss_bytes));
  }
  t.print(std::cout);
}

void print_worker_utilization(const MetricsFeed& feed) {
  // One row per worker that completed a cell: the feed's worker ids are
  // keys, never sizes.
  struct Load {
    std::int64_t cells = 0;
    double wall_s = 0.0;
  };
  std::map<std::int64_t, Load> loads;
  double total_wall = 0.0;
  for (const CellEvent& c : feed.cells) {
    Load& load = loads[c.worker];
    ++load.cells;
    load.wall_s += c.wall_s;
    total_wall += c.wall_s;
  }
  std::cout << "\nworker utilization:\n";
  TableWriter t({"Worker", "Cells", "Busy s", "Share %"});
  for (const auto& [worker, load] : loads) {
    t.row()
        .cell(worker)
        .cell(load.cells)
        .cell(load.wall_s, 3)
        .cell(total_wall > 0.0 ? 100.0 * load.wall_s / total_wall : 0.0, 1);
  }
  t.print(std::cout);
}

std::int64_t registry_counter(const JsonValue& registry,
                              const std::string& name) {
  const JsonValue& counters = registry.at("counters");
  if (!counters.has(name)) return 0;
  return read_i64(counters.at(name));  // bounded by check_registry
}

// A counter summed over the coordinator's summary registry and every
// worker's parting snapshot — the whole process tree's tally.
std::int64_t feed_counter(const MetricsFeed& feed, const std::string& name) {
  std::int64_t total = feed.have_summary
                           ? registry_counter(feed.summary.at("registry"), name)
                           : 0;
  for (const JsonValue& r : feed.worker_registries) {
    total += registry_counter(r, name);
  }
  return total;
}

void print_registry_tables(const MetricsFeed& feed) {
  std::cout << "\ncache efficiency:\n";
  TableWriter caches({"Cache", "Hits", "Misses", "Hit %"});
  for (const char* cache :
       {"cache.traces", "cache.forecast_tables", "cache.transition_matrix"}) {
    const std::int64_t hits = feed_counter(feed, std::string(cache) + ".hits");
    const std::int64_t misses =
        feed_counter(feed, std::string(cache) + ".misses");
    const std::int64_t lookups = hits + misses;
    caches.row()
        .cell(cache)
        .cell(hits)
        .cell(misses)
        .cell(lookups > 0
                  ? 100.0 * static_cast<double>(hits) /
                        static_cast<double>(lookups)
                  : 0.0,
              1);
  }
  caches.print(std::cout);
}

int cmd_metrics(const std::string& path) {
  const MetricsFeed feed = parse_metrics(path);
  std::cout << "sweep " << feed.sweep_fingerprint << ": " << feed.cells.size()
            << " cell completions recorded (grid of " << feed.total_cells
            << ")\n";
  if (!feed.cells.empty()) {
    print_slowest_cells(feed.cells, 10);
    print_worker_utilization(feed);
  }
  if (!feed.faults.empty()) {
    std::cout << "\nfaults:\n";
    for (const std::string& f : feed.faults) std::cout << "  " << f << "\n";
  }
  if (feed.have_summary) {
    print_registry_tables(feed);
    std::cout << "\ncompleted " << feed.summary.at("completed").as_number()
              << "/" << feed.summary.at("total").as_number() << " in "
              << format_double(feed.summary.at("elapsed_s").as_number(), 2)
              << " s\n";
  }
  return 0;
}

int cmd_runtime(const std::string& path) {
  const JsonValue doc = JsonValue::parse(read_file(path));
  std::vector<CellEvent> cells;
  for_each_result(path, doc, [&](std::int64_t index, const JsonValue& result,
                                 const std::string& context) {
    if (!result.has("runtime")) return;
    const JsonValue& rt = result.at("runtime");
    CellEvent c;
    c.index = static_cast<std::size_t>(index);
    c.attempt = read_at(read_i64, rt.at("attempt"), context + ".runtime");
    c.wall_s = rt.at("wall_s").as_number();
    c.peak_rss_bytes =
        read_at(read_i64, rt.at("peak_rss_bytes"), context + ".runtime");
    cells.push_back(c);
  });
  std::cout << path << ": " << cells.size() << "/"
            << doc.at("cells").as_array().size()
            << " cells carry runtime stamps\n";
  if (cells.empty()) return 0;
  double wall = 0.0;
  std::int64_t retried = 0;
  for (const CellEvent& c : cells) {
    wall += c.wall_s;
    retried += c.attempt > 1 ? 1 : 0;
  }
  print_slowest_cells(cells, 10);
  std::cout << "total cell wall time " << format_double(wall, 2) << " s; "
            << retried << " cells needed a retry\n";
  return 0;
}

// --- timelines -----------------------------------------------------------

struct Point {
  double time_s = 0.0;
  double forecast_kbps = 0.0;
  double capacity_kbps = 0.0;
  double throughput_kbps = 0.0;
  std::int64_t queue_max_packets = 0;
  std::int64_t queue_max_bytes = 0;
  std::int64_t drops = 0;
  double mean_delay_ms = 0.0;
  double max_delay_ms = 0.0;
};

struct FlowTimeline {
  std::int64_t cell_index = 0;
  std::size_t flow_index = 0;
  std::string label;
  double bin_s = 0.0;
  std::vector<Point> points;
};

// Parses and schema-checks one "timeline" member.  Rendering, export and
// `validate timeline` all come through here, so they cannot diverge on
// what counts as well-formed.
std::vector<Point> parse_timeline(const JsonValue& t,
                                  const std::string& context) {
  const double bin_s = t.at("bin_s").as_number();
  const double from_s = t.at("from_s").as_number();
  require(bin_s > 0.0 && std::isfinite(bin_s), context, "bin_s must be > 0");
  require(from_s >= 0.0 && std::isfinite(from_s), context,
          "from_s must be >= 0");
  std::vector<Point> points;
  double last_time = from_s - bin_s;
  const std::vector<JsonValue>& tuples = t.at("points").as_array();
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const std::string at = context + ".points[" + std::to_string(i) + "]";
    const std::vector<JsonValue>& tuple = tuples[i].as_array();
    require(tuple.size() == 9, at, "expected a 9-tuple, got " +
                                       std::to_string(tuple.size()) +
                                       " elements");
    Point p;
    p.time_s = tuple[0].as_number();
    p.forecast_kbps = tuple[1].as_number();
    p.capacity_kbps = tuple[2].as_number();
    p.throughput_kbps = tuple[3].as_number();
    p.queue_max_packets = read_at(read_i64, tuple[4], at);
    p.queue_max_bytes = read_at(read_i64, tuple[5], at);
    p.drops = read_at(read_i64, tuple[6], at);
    p.mean_delay_ms = tuple[7].as_number();
    p.max_delay_ms = tuple[8].as_number();
    require(std::isfinite(p.time_s) && p.time_s >= from_s, at,
            "time_s outside the recording window");
    require(p.time_s > last_time, at, "time_s not strictly increasing");
    last_time = p.time_s;
    require(std::isfinite(p.forecast_kbps) && p.forecast_kbps >= 0.0, at,
            "forecast_kbps must be >= 0");
    require(std::isfinite(p.capacity_kbps) && p.capacity_kbps >= 0.0, at,
            "capacity_kbps must be >= 0");
    require(std::isfinite(p.throughput_kbps) && p.throughput_kbps >= 0.0, at,
            "throughput_kbps must be >= 0");
    require(p.queue_max_packets >= 0, at, "queue_max_packets must be >= 0");
    require(p.queue_max_bytes >= 0, at, "queue_max_bytes must be >= 0");
    require(p.drops >= 0, at, "drops must be >= 0");
    require(std::isfinite(p.mean_delay_ms) && p.mean_delay_ms >= 0.0, at,
            "mean_delay_ms must be >= 0");
    require(std::isfinite(p.max_delay_ms) &&
                p.max_delay_ms >= p.mean_delay_ms,
            at, "max_delay_ms must be >= mean_delay_ms");
    points.push_back(p);
  }
  return points;
}

// Every flow timeline of a sweep/shard file, schema-checked.
std::vector<FlowTimeline> read_timelines(const std::string& path) {
  std::vector<FlowTimeline> timelines;
  const JsonValue doc = JsonValue::parse(read_file(path));
  for_each_result(path, doc, [&](std::int64_t index, const JsonValue& result,
                                 const std::string& context) {
    const std::vector<JsonValue>& flows = result.at("flows").as_array();
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!flows[f].has("timeline")) continue;
      FlowTimeline t;
      t.cell_index = index;
      t.flow_index = f;
      t.label = flows[f].at("label").as_string();
      t.bin_s = flows[f].at("timeline").at("bin_s").as_number();
      t.points = parse_timeline(
          flows[f].at("timeline"),
          context + ".flows[" + std::to_string(f) + "].timeline");
      timelines.push_back(std::move(t));
    }
  });
  return timelines;
}

// The timelines matching --cell / --flow (all when unset); none is an
// error.
std::vector<FlowTimeline> select_timelines(
    const std::string& path, std::optional<std::int64_t> cell = std::nullopt,
    std::optional<std::size_t> flow = std::nullopt) {
  std::vector<FlowTimeline> selected;
  for (FlowTimeline& t : read_timelines(path)) {
    if ((!cell || *cell == t.cell_index) && (!flow || *flow == t.flow_index)) {
      selected.push_back(std::move(t));
    }
  }
  require(!selected.empty(), path,
          cell || flow ? "no timeline matches the requested cell/flow"
                       : "no timelines recorded (run with --timeline?)");
  return selected;
}

int cmd_chart(const std::string& path, std::optional<std::int64_t> cell,
              std::optional<std::size_t> flow) {
  const FlowTimeline t = select_timelines(path, cell, flow).front();
  std::vector<double> capacity;
  std::vector<double> forecast;
  std::vector<double> mean_delay;
  std::vector<double> max_delay;
  double peak_rate = 0.0;
  double peak_delay = 0.0;
  for (const Point& p : t.points) {
    capacity.push_back(p.capacity_kbps);
    forecast.push_back(p.forecast_kbps);
    mean_delay.push_back(p.mean_delay_ms);
    max_delay.push_back(p.max_delay_ms);
    peak_rate = std::max({peak_rate, p.capacity_kbps, p.forecast_kbps});
    peak_delay = std::max(peak_delay, p.max_delay_ms);
  }

  std::cout << path << ": cell " << t.cell_index << ", flow " << t.flow_index
            << " (" << t.label << "), " << t.points.size() << " bins of "
            << format_double(t.bin_s, 3) << " s\n";
  AsciiPlotOptions opt;
  opt.bin_s = t.bin_s;
  std::cout << "\nrealized capacity (#) vs cautious forecast (*), full bar = "
            << format_double(peak_rate, 0) << " kbps:\n";
  render_ascii_plot(std::cout, capacity, forecast, opt);
  std::cout << "\nper-bin delay: mean (#) and max (*), full bar = "
            << format_double(peak_delay, 0) << " ms:\n";
  render_ascii_plot(std::cout, mean_delay, max_delay, opt);
  return 0;
}

int cmd_export(const std::string& path, const std::string& out_path,
               const std::string& format, std::optional<std::int64_t> cell,
               std::optional<std::size_t> flow) {
  const std::vector<FlowTimeline> selected =
      select_timelines(path, cell, flow);
  std::size_t rows = 0;
  write_file(out_path, [&](std::ostream& os) {
    if (format == "csv") {
      os << "cell,flow,label,time_s,forecast_kbps,capacity_kbps,"
            "throughput_kbps,queue_max_packets,queue_max_bytes,drops,"
            "mean_delay_ms,max_delay_ms\n";
    }
    for (const FlowTimeline& t : selected) {
      for (const Point& p : t.points) {
        if (format == "csv") {
          os << t.cell_index << ',' << t.flow_index << ',' << t.label << ','
             << p.time_s << ',' << p.forecast_kbps << ',' << p.capacity_kbps
             << ',' << p.throughput_kbps << ',' << p.queue_max_packets << ','
             << p.queue_max_bytes << ',' << p.drops << ',' << p.mean_delay_ms
             << ',' << p.max_delay_ms << '\n';
        } else {
          os << "{\"cell\": " << t.cell_index
             << ", \"flow\": " << t.flow_index << ", \"label\": ";
          write_json_string(os, t.label);
          os << ", \"time_s\": " << p.time_s
             << ", \"forecast_kbps\": " << p.forecast_kbps
             << ", \"capacity_kbps\": " << p.capacity_kbps
             << ", \"throughput_kbps\": " << p.throughput_kbps
             << ", \"queue_max_packets\": " << p.queue_max_packets
             << ", \"queue_max_bytes\": " << p.queue_max_bytes
             << ", \"drops\": " << p.drops
             << ", \"mean_delay_ms\": " << p.mean_delay_ms
             << ", \"max_delay_ms\": " << p.max_delay_ms << "}\n";
        }
        ++rows;
      }
    }
  });
  std::cout << path << " -> " << out_path << " (" << rows << " " << format
            << " rows from " << selected.size() << " timelines)\n";
  return 0;
}

// Chrome counter tracks: one "C" event per bin per counter, each flow on
// its own tid so chrome://tracing stacks the tracks.  With --merge, the
// events of an existing trace (the orchestrator's --trace-out spans) are
// re-emitted first, composing worker spans and flow counters in one file.
int cmd_export_trace(const std::string& path, const std::string& out_path,
                     const std::string& merge_path) {
  const std::vector<FlowTimeline> timelines = select_timelines(path);

  std::string merged_events;
  if (!merge_path.empty()) {
    // Textual splice: the span events between the base file's traceEvents
    // '[' and its ']' are preserved byte-for-byte (JsonValue has no
    // writer, and re-serializing someone else's events would reformat
    // them).  Parse first so a damaged base file fails here, not in the
    // viewer.
    const std::string text = read_file(merge_path);
    (void)JsonValue::parse(text).at("traceEvents").as_array();
    const std::size_t open = text.find('[');
    const std::size_t close = text.rfind(']');
    require(open != std::string::npos && close != std::string::npos &&
                close > open,
            merge_path, "no traceEvents array to merge");
    merged_events = text.substr(open + 1, close - open - 1);
    if (merged_events.find_first_not_of(" \t\r\n") == std::string::npos) {
      merged_events.clear();
    }
  }

  std::size_t events = 0;
  write_file(out_path, [&](std::ostream& os) {
    os << "{\"traceEvents\": [" << merged_events;
    bool first = merged_events.empty();
    for (const FlowTimeline& t : timelines) {
      // tid 1000+flow keeps counter tracks clear of worker-lane tids.
      const std::int64_t tid = 1000 + static_cast<std::int64_t>(t.flow_index);
      const std::string track =
          "cell " + std::to_string(t.cell_index) + " " + t.label;
      for (const Point& p : t.points) {
        if (!first) os << ",";
        first = false;
        os << "\n  {\"name\": ";
        write_json_string(os, track + " rate (kbps)");
        os << ", \"cat\": \"timeline\", \"ph\": \"C\", \"pid\": "
           << t.cell_index << ", \"tid\": " << tid
           << ", \"ts\": " << p.time_s * 1e6
           << ", \"args\": {\"capacity\": " << p.capacity_kbps
           << ", \"forecast\": " << p.forecast_kbps
           << ", \"throughput\": " << p.throughput_kbps << "}},\n  ";
        os << "{\"name\": ";
        write_json_string(os, track + " queue/delay");
        os << ", \"cat\": \"timeline\", \"ph\": \"C\", \"pid\": "
           << t.cell_index << ", \"tid\": " << tid
           << ", \"ts\": " << p.time_s * 1e6
           << ", \"args\": {\"queue_packets\": " << p.queue_max_packets
           << ", \"drops\": " << p.drops
           << ", \"mean_delay_ms\": " << p.mean_delay_ms << "}}";
        events += 2;
      }
    }
    os << "\n]}\n";
  });
  // The splice above must compose to valid JSON; refuse to ship otherwise.
  (void)JsonValue::parse(read_file(out_path));
  std::cout << path << " -> " << out_path << " (" << events
            << " counter events"
            << (merge_path.empty() ? std::string()
                                   : ", merged with " + merge_path)
            << ")\n";
  return 0;
}

// --- validate ------------------------------------------------------------

int cmd_validate(const std::string& kind, const std::string& path) {
  if (kind == "metrics") {
    const MetricsFeed feed = parse_metrics(path);
    require(feed.have_summary, path, "no summary event (run did not finish?)");
    std::cout << path << ": ok (" << feed.cells.size() << " cell events, "
              << feed.progress_events << " progress events)\n";
  } else if (kind == "trace") {
    const JsonValue doc = JsonValue::parse(read_file(path));
    const std::vector<JsonValue>& events = doc.at("traceEvents").as_array();
    std::size_t spans = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const std::string context =
          path + ": traceEvents[" + std::to_string(i) + "]";
      const JsonValue& e = events[i];
      require(!e.at("name").as_string().empty(), context, "empty name");
      (void)e.at("cat").as_string();
      (void)e.at("pid").as_number();
      (void)e.at("tid").as_number();
      require(e.at("ts").as_number() >= 0.0, context, "negative timestamp");
      const std::string& ph = e.at("ph").as_string();
      if (ph == "X") {
        require(e.at("dur").as_number() >= 0.0, context, "negative duration");
        ++spans;
      } else {
        require(ph == "i", context, "unknown phase \"" + ph + "\"");
      }
    }
    std::cout << path << ": ok (" << events.size() << " events, " << spans
              << " spans)\n";
  } else {
    const std::vector<FlowTimeline> timelines = read_timelines(path);
    std::size_t points = 0;
    for (const FlowTimeline& t : timelines) points += t.points.size();
    std::cout << path << ": ok (" << timelines.size() << " timelines, "
              << points << " points)\n";
  }
  return 0;
}

int cmd_strip(const std::string& field, const std::string& in_path,
              const std::string& out_path) {
  std::string text = read_file(in_path);
  std::size_t erased = 0;
  try {
    erased = erase_result_field(text, field);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(in_path + ": " + e.what());
  }
  write_file(out_path, [&](std::ostream& os) { os << text; });
  std::cout << in_path << " -> " << out_path << " (" << erased << " "
            << field << " members removed)\n";
  return 0;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  sweep_report metrics      METRICS.jsonl\n"
      "  sweep_report runtime      SWEEP.json\n"
      "  sweep_report chart        SWEEP.json [--cell I] [--flow F]\n"
      "  sweep_report export       SWEEP.json --out PATH"
      " [--format jsonl|csv] [--cell I] [--flow F]\n"
      "  sweep_report export-trace SWEEP.json --out TRACE.json"
      " [--merge TRACE_IN.json]\n"
      "  sweep_report validate     metrics|trace|timeline FILE\n"
      "  sweep_report strip        runtime|timeline IN.json OUT.json\n"
      "exit codes: 0 ok, 1 invalid input, 2 usage\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];
  std::vector<std::string> positional;
  std::string out_path;
  std::string merge_path;
  std::string format = "jsonl";
  std::optional<std::int64_t> cell;
  std::optional<std::size_t> flow;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw UsageError(arg + ": needs a value");
        return argv[++i];
      };
      if (arg == "--out") out_path = value();
      else if (arg == "--merge") merge_path = value();
      else if (arg == "--format") format = value();
      else if (arg == "--cell") cell = cli::parse_int_at_least(arg, value(), 0);
      else if (arg == "--flow") flow = cli::parse_int_at_least(arg, value(), 0);
      else if (arg.rfind("--", 0) == 0) return usage();
      else positional.push_back(arg);
    }
    if (format != "jsonl" && format != "csv") {
      throw UsageError("--format: wants jsonl or csv, got \"" + format + "\"");
    }
    const std::size_t n = positional.size();

    if (command == "metrics" && n == 1) return cmd_metrics(positional[0]);
    if (command == "runtime" && n == 1) return cmd_runtime(positional[0]);
    if (command == "chart" && n == 1) {
      return cmd_chart(positional[0], cell, flow);
    }
    if (command == "export" && n == 1 && !out_path.empty()) {
      return cmd_export(positional[0], out_path, format, cell, flow);
    }
    if (command == "export-trace" && n == 1 && !out_path.empty()) {
      return cmd_export_trace(positional[0], out_path, merge_path);
    }
    if (command == "validate" && n == 2) {
      const std::string& kind = positional[0];
      if (kind != "metrics" && kind != "trace" && kind != "timeline") {
        throw UsageError("validate: wants metrics, trace or timeline, got \"" +
                         kind + "\"");
      }
      return cmd_validate(kind, positional[1]);
    }
    if (command == "strip" && n == 3) {
      const std::string& field = positional[0];
      if (field != "runtime" && field != "timeline") {
        throw UsageError("strip: wants runtime or timeline, got \"" + field +
                         "\"");
      }
      return cmd_strip(field, positional[1], positional[2]);
    }
    return usage();
  } catch (const UsageError& e) {
    std::cerr << "sweep_report: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "sweep_report: " << e.what() << "\n";
    return 1;
  }
}
