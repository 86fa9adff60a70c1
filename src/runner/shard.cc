#include "runner/shard.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/table.h"

namespace sprout {

std::uint64_t sweep_fingerprint(const SweepSpec& spec) {
  std::uint64_t h = kFnv1aOffsetBasis;
  h = fnv1a_u64(h, spec.cells.size());
  for (const ScenarioSpec& cell : spec.cells) {
    h = fnv1a_u64(h, scenario_fingerprint(cell));
  }
  h = fnv1a_u64(h, spec.base_seed.has_value() ? 1 : 0);
  if (spec.base_seed.has_value()) h = fnv1a_u64(h, *spec.base_seed);
  return h;
}

std::vector<std::size_t> shard_cell_indices(std::size_t total_cells,
                                            int shard_index, int shard_count) {
  if (shard_count < 1) {
    throw std::invalid_argument("shard count must be >= 1, got " +
                                std::to_string(shard_count));
  }
  if (shard_index < 0 || shard_index >= shard_count) {
    throw std::invalid_argument(
        "shard index " + std::to_string(shard_index) + " outside [0, " +
        std::to_string(shard_count) + ")");
  }
  std::vector<std::size_t> indices;
  for (std::size_t i = static_cast<std::size_t>(shard_index); i < total_cells;
       i += static_cast<std::size_t>(shard_count)) {
    indices.push_back(i);
  }
  return indices;
}

SweepResult run_sweep(const SweepSpec& spec, int threads) {
  SweepOptions options;
  options.threads = threads;
  options.base_seed = spec.base_seed;
  SweepRunner runner(options);

  SweepResult r;
  r.fingerprint = sweep_fingerprint(spec);
  r.cell_fingerprints.reserve(spec.cells.size());
  for (const ScenarioSpec& cell : spec.cells) {
    r.cell_fingerprints.push_back(scenario_fingerprint(cell));
  }
  r.cells = runner.run(spec.cells);
  return r;
}

ShardResult run_shard(const SweepSpec& spec,
                      std::vector<std::size_t> cell_indices, int threads) {
  std::vector<bool> seen(spec.cells.size(), false);
  std::vector<ScenarioSpec> slice;
  slice.reserve(cell_indices.size());
  for (const std::size_t i : cell_indices) {
    if (i >= spec.cells.size()) {
      throw std::invalid_argument("shard cell index " + std::to_string(i) +
                                  " outside a " +
                                  std::to_string(spec.cells.size()) +
                                  "-cell grid");
    }
    if (seen[i]) {
      throw std::invalid_argument("shard cell index " + std::to_string(i) +
                                  " listed twice");
    }
    seen[i] = true;
    slice.push_back(spec.cells[i]);
  }

  SweepOptions options;
  options.threads = threads;
  options.base_seed = spec.base_seed;
  SweepRunner runner(options);

  ShardResult shard;
  shard.sweep_fingerprint = sweep_fingerprint(spec);
  shard.total_cells = spec.cells.size();
  shard.cell_fingerprints.reserve(slice.size());
  for (const ScenarioSpec& cell : slice) {
    shard.cell_fingerprints.push_back(scenario_fingerprint(cell));
  }
  shard.cells = runner.run(slice);
  shard.cell_indices = std::move(cell_indices);
  return shard;
}

SweepResult merge_shards(const std::vector<ShardResult>& shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge of zero shards");
  }
  const std::uint64_t fingerprint = shards.front().sweep_fingerprint;
  const std::size_t total = shards.front().total_cells;
  // Shards cut from one grid by different partition strategies cannot
  // form a clean partition (round-robin's shard 1/3 and LPT's shard 2/3
  // overlap and orphan cells in data-dependent ways); reject the mix by
  // its recorded strategies instead of surfacing a baffling
  // collision/coverage error below.  Unrecorded partitions ("") are
  // exempt: explicit --cells runs and pre-split shard files carry no
  // strategy to disagree about.
  const std::string* strategy = nullptr;
  for (const ShardResult& s : shards) {
    if (s.partition.empty() || s.partition == "explicit") continue;
    if (strategy != nullptr && s.partition != *strategy) {
      throw std::runtime_error(
          "shards of one grid mix partition strategies (" + *strategy +
          " vs " + s.partition + "): re-cut every shard with one strategy");
    }
    strategy = &s.partition;
  }
  for (const ShardResult& s : shards) {
    if (s.sweep_fingerprint != fingerprint) {
      throw std::runtime_error(
          "shard sweep fingerprints disagree (" +
          std::to_string(fingerprint) + " vs " +
          std::to_string(s.sweep_fingerprint) +
          "): the shards were not cut from the same grid");
    }
    if (s.total_cells != total) {
      throw std::runtime_error("shard cell totals disagree (" +
                               std::to_string(total) + " vs " +
                               std::to_string(s.total_cells) + ")");
    }
    if (s.cell_indices.size() != s.cells.size() ||
        s.cell_indices.size() != s.cell_fingerprints.size()) {
      throw std::runtime_error("shard is internally inconsistent: " +
                               std::to_string(s.cell_indices.size()) +
                               " indices, " +
                               std::to_string(s.cell_fingerprints.size()) +
                               " fingerprints, " +
                               std::to_string(s.cells.size()) + " results");
    }
  }

  SweepResult merged;
  merged.fingerprint = fingerprint;
  merged.cell_fingerprints.resize(total);
  merged.cells.resize(total);
  std::vector<bool> covered(total, false);
  for (const ShardResult& s : shards) {
    for (std::size_t k = 0; k < s.cell_indices.size(); ++k) {
      const std::size_t i = s.cell_indices[k];
      if (i >= total) {
        throw std::runtime_error("shard covers cell " + std::to_string(i) +
                                 ", but the grid has only " +
                                 std::to_string(total) + " cells");
      }
      if (covered[i]) {
        throw std::runtime_error("cell " + std::to_string(i) +
                                 " is covered by more than one shard");
      }
      covered[i] = true;
      merged.cell_fingerprints[i] = s.cell_fingerprints[k];
      merged.cells[i] = s.cells[k];
    }
  }
  for (std::size_t i = 0; i < total; ++i) {
    if (!covered[i]) {
      throw std::runtime_error("cell " + std::to_string(i) +
                               " is covered by no shard");
    }
  }
  return merged;
}

void verify_sweep_result(const SweepResult& merged, const SweepSpec& spec) {
  const std::uint64_t expected = sweep_fingerprint(spec);
  if (merged.fingerprint != expected) {
    throw std::runtime_error(
        "sweep fingerprint mismatch: result claims " +
        std::to_string(merged.fingerprint) + ", grid derives " +
        std::to_string(expected));
  }
  if (merged.cells.size() != spec.cells.size() ||
      merged.cell_fingerprints.size() != spec.cells.size()) {
    throw std::runtime_error("sweep result has " +
                             std::to_string(merged.cells.size()) +
                             " cells; the grid has " +
                             std::to_string(spec.cells.size()));
  }
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    if (merged.cell_fingerprints[i] != scenario_fingerprint(spec.cells[i])) {
      throw std::runtime_error("cell " + std::to_string(i) +
                               " fingerprint mismatch: the result was not "
                               "produced from this grid's cell");
    }
  }
}

// --- JSON ---------------------------------------------------------------

namespace {

constexpr const char* kShardSchema = "sprout-sweep-shard-v1";
constexpr const char* kSweepSchema = "sprout-sweep-v1";

// Doubles round-trip exactly (write_json_double).  JSON has no NaN/inf,
// so non-finite values become tagged strings.
void json_double(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "\"nan\"";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "\"inf\"" : "\"-inf\"");
  } else {
    write_json_double(os, v);
  }
}

double read_double(const JsonValue& v) {
  if (v.kind() == JsonValue::Kind::kString) {
    const std::string& s = v.as_string();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
    throw std::runtime_error("JSON: non-numeric double value \"" + s + "\"");
  }
  return v.as_number();
}

// u64 fingerprints exceed a double's 53-bit integer range, so they travel
// as decimal strings.
void json_u64(std::ostream& os, std::uint64_t v) {
  os << '"' << v << '"';
}

std::uint64_t read_u64(const JsonValue& v) {
  const std::string& s = v.as_string();
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error("JSON: malformed unsigned integer \"" + s +
                             "\"");
  }
  try {
    return std::stoull(s);
  } catch (const std::out_of_range&) {
    throw std::runtime_error("JSON: unsigned integer overflow in \"" + s +
                             "\"");
  }
}

// Counters (bytes, packets, drops) travel as plain JSON numbers, which a
// double represents exactly up to 2^53 — ~9 PB of delivered bytes, far
// above any simulable run.  Values past the bound would round silently in
// the parse, so reject them loudly instead.
std::int64_t read_i64(const JsonValue& v) {
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  const double d = v.as_number();
  if (d > kExactLimit || d < -kExactLimit) {
    throw std::runtime_error(
        "JSON: integer counter exceeds the 2^53 exact range of a double");
  }
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) {
    throw std::runtime_error("JSON: expected an integer, got a fraction");
  }
  return i;
}

// Flows and results still carry the "series" / "capacity_series" members
// of a removed per-bin capture, always as empty arrays, so every result
// file written before and after the removal keeps its bytes.  A non-empty
// one holds data this reader can no longer represent.
void require_empty_legacy_array(const JsonValue& v, const std::string& key) {
  if (!v.at(key).as_array().empty()) {
    throw std::runtime_error("JSON: \"" + key +
                             "\" must be empty (capture_series was removed; "
                             "record_timeline records per-bin series)");
  }
}

// Histograms travel as geometry + sparse [bin, count] pairs: a tower
// user's delays cluster in a handful of bins out of thousands, so the
// dense count vector would be almost all zeros.  Written only when the
// histogram is configured, so every pre-histogram result file — and every
// non-tower result today — stays byte-stable.
void write_hist(std::ostream& os, const DelayHistogram& h) {
  os << "{\"bin_ms\": ";
  json_double(os, h.bin_width_ms());
  os << ", \"max_ms\": ";
  json_double(os, h.max_ms());
  os << ", \"sum_ms\": ";
  json_double(os, h.sum_ms());
  os << ", \"counts\": [";
  bool first = true;
  const auto& counts = h.counts();
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '[' << b << ',' << counts[b] << ']';
  }
  os << "]}";
}

DelayHistogram read_hist(const JsonValue& v) {
  const double bin_ms = read_double(v.at("bin_ms"));
  const double max_ms = read_double(v.at("max_ms"));
  const double sum_ms = read_double(v.at("sum_ms"));
  if (bin_ms <= 0.0 || max_ms < bin_ms) {
    throw std::runtime_error("JSON: malformed histogram geometry");
  }
  // The writer's max_ms is always an exact bin multiple (the histogram
  // ctor rounds it up), so the bin count round-trips through llround.
  const auto num_bins =
      static_cast<std::size_t>(std::llround(max_ms / bin_ms));
  std::vector<std::int64_t> counts(num_bins + 1, 0);
  for (const JsonValue& e : v.at("counts").as_array()) {
    const auto& pair = e.as_array();
    if (pair.size() != 2) {
      throw std::runtime_error("JSON: histogram count is not a [bin, n] pair");
    }
    const std::int64_t b = read_i64(pair[0]);
    const std::int64_t n = read_i64(pair[1]);
    if (b < 0 || static_cast<std::size_t>(b) >= counts.size() || n < 0) {
      throw std::runtime_error("JSON: histogram bin out of range");
    }
    counts[static_cast<std::size_t>(b)] = n;
  }
  return DelayHistogram::from_parts(bin_ms, max_ms, sum_ms,
                                    std::move(counts));
}

// Flight-recorder timelines travel as geometry + flat 9-tuples
// [time_s, forecast_kbps, capacity_kbps, throughput_kbps,
//  queue_max_packets, queue_max_bytes, drops, mean_delay_ms, max_delay_ms].
// Written only when configured (record_timeline), so timeline-off results
// stay byte-stable; the tuples are arrays, never objects, so the timeline
// value contains no nested braces and erase_result_field can remove it
// textually.
void write_timeline(std::ostream& os, const FlowTimeline& t) {
  os << "{\"bin_s\": ";
  json_double(os, t.bin_s);
  os << ", \"from_s\": ";
  json_double(os, t.from_s);
  os << ", \"points\": [";
  for (std::size_t i = 0; i < t.points.size(); ++i) {
    const TimelinePoint& p = t.points[i];
    if (i > 0) os << ", ";
    os << '[';
    json_double(os, p.time_s);
    os << ", ";
    json_double(os, p.forecast_kbps);
    os << ", ";
    json_double(os, p.capacity_kbps);
    os << ", ";
    json_double(os, p.throughput_kbps);
    os << ", " << p.queue_max_packets << ", " << p.queue_max_bytes << ", "
       << p.drops << ", ";
    json_double(os, p.mean_delay_ms);
    os << ", ";
    json_double(os, p.max_delay_ms);
    os << ']';
  }
  os << "]}";
}

FlowTimeline read_timeline(const JsonValue& v) {
  FlowTimeline t;
  t.bin_s = read_double(v.at("bin_s"));
  t.from_s = read_double(v.at("from_s"));
  if (!(t.bin_s > 0.0)) {
    throw std::runtime_error("JSON: malformed timeline geometry");
  }
  for (const JsonValue& e : v.at("points").as_array()) {
    const auto& tuple = e.as_array();
    if (tuple.size() != 9) {
      throw std::runtime_error("JSON: timeline point is not a 9-tuple");
    }
    TimelinePoint p;
    p.time_s = read_double(tuple[0]);
    p.forecast_kbps = read_double(tuple[1]);
    p.capacity_kbps = read_double(tuple[2]);
    p.throughput_kbps = read_double(tuple[3]);
    p.queue_max_packets = read_i64(tuple[4]);
    p.queue_max_bytes = read_i64(tuple[5]);
    p.drops = read_i64(tuple[6]);
    p.mean_delay_ms = read_double(tuple[7]);
    p.max_delay_ms = read_double(tuple[8]);
    t.points.push_back(p);
  }
  return t;
}

void write_flow(std::ostream& os, const FlowResult& f) {
  os << "{\"label\": ";
  write_json_string(os, f.label);
  os << ", \"scheme\": ";
  write_json_string(os, to_string(f.scheme));
  os << ", \"active_from_s\": ";
  json_double(os, f.active_from_s);
  os << ", \"active_to_s\": ";
  json_double(os, f.active_to_s);
  os << ", \"throughput_kbps\": ";
  json_double(os, f.throughput_kbps);
  os << ", \"delay95_ms\": ";
  json_double(os, f.delay95_ms);
  os << ", \"mean_delay_ms\": ";
  json_double(os, f.mean_delay_ms);
  os << ", \"coactive_throughput_kbps\": ";
  json_double(os, f.coactive_throughput_kbps);
  os << ", \"capacity_share\": ";
  json_double(os, f.capacity_share);
  os << ", \"delivered_bytes\": " << f.delivered_bytes;
  if (f.delay_hist.configured()) {
    os << ", \"delay_hist\": ";
    write_hist(os, f.delay_hist);
  }
  if (f.timeline.configured()) {
    os << ", \"timeline\": ";
    write_timeline(os, f.timeline);
  }
  os << ", \"series\": []}";
}

FlowResult read_flow(const JsonValue& v) {
  FlowResult f;
  f.label = v.at("label").as_string();
  const std::string& scheme = v.at("scheme").as_string();
  const std::optional<SchemeId> id = scheme_from_name(scheme);
  if (!id.has_value()) {
    throw std::runtime_error("JSON: unknown scheme \"" + scheme + "\"");
  }
  f.scheme = *id;
  f.active_from_s = read_double(v.at("active_from_s"));
  f.active_to_s = read_double(v.at("active_to_s"));
  f.throughput_kbps = read_double(v.at("throughput_kbps"));
  f.delay95_ms = read_double(v.at("delay95_ms"));
  f.mean_delay_ms = read_double(v.at("mean_delay_ms"));
  f.coactive_throughput_kbps = read_double(v.at("coactive_throughput_kbps"));
  f.capacity_share = read_double(v.at("capacity_share"));
  f.delivered_bytes = read_i64(v.at("delivered_bytes"));
  if (v.has("delay_hist")) f.delay_hist = read_hist(v.at("delay_hist"));
  if (v.has("timeline")) f.timeline = read_timeline(v.at("timeline"));
  require_empty_legacy_array(v, "series");
  return f;
}

void write_result(std::ostream& os, const ScenarioResult& r) {
  os << "{\"flows\": [";
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    if (i > 0) os << ", ";
    write_flow(os, r.flows[i]);
  }
  os << "], \"capacity_kbps\": ";
  json_double(os, r.capacity_kbps);
  os << ", \"aggregate_throughput_kbps\": ";
  json_double(os, r.aggregate_throughput_kbps);
  os << ", \"aggregate_utilization\": ";
  json_double(os, r.aggregate_utilization);
  os << ", \"jain_index\": ";
  json_double(os, r.jain_index);
  os << ", \"coactive_from_s\": ";
  json_double(os, r.coactive_from_s);
  os << ", \"coactive_to_s\": ";
  json_double(os, r.coactive_to_s);
  os << ", \"coactive_capacity_kbps\": ";
  json_double(os, r.coactive_capacity_kbps);
  os << ", \"max_delay95_ms\": ";
  json_double(os, r.max_delay95_ms);
  os << ", \"omniscient_delay95_ms\": ";
  json_double(os, r.omniscient_delay95_ms);
  os << ", \"packets_delivered\": " << r.packets_delivered;
  os << ", \"link_drops\": " << r.link_drops;
  if (r.population_delay_hist.configured()) {
    os << ", \"population_delay_hist\": ";
    write_hist(os, r.population_delay_hist);
  }
  if (r.runtime.recorded) {
    // Execution telemetry, present only on orchestrator --metrics-out
    // runs: fingerprints hash specs so this never perturbs them, and
    // erase_result_field removes it for byte-diffs against untelemetered
    // runs.
    os << ", \"runtime\": {\"wall_s\": ";
    json_double(os, r.runtime.wall_s);
    os << ", \"peak_rss_bytes\": " << r.runtime.peak_rss_bytes
       << ", \"attempt\": " << r.runtime.attempt << '}';
  }
  os << ", \"capacity_series\": []}";
}

ScenarioResult read_result(const JsonValue& v) {
  ScenarioResult r;
  for (const JsonValue& f : v.at("flows").as_array()) {
    r.flows.push_back(read_flow(f));
  }
  r.capacity_kbps = read_double(v.at("capacity_kbps"));
  r.aggregate_throughput_kbps =
      read_double(v.at("aggregate_throughput_kbps"));
  r.aggregate_utilization = read_double(v.at("aggregate_utilization"));
  r.jain_index = read_double(v.at("jain_index"));
  r.coactive_from_s = read_double(v.at("coactive_from_s"));
  r.coactive_to_s = read_double(v.at("coactive_to_s"));
  r.coactive_capacity_kbps = read_double(v.at("coactive_capacity_kbps"));
  r.max_delay95_ms = read_double(v.at("max_delay95_ms"));
  r.omniscient_delay95_ms = read_double(v.at("omniscient_delay95_ms"));
  r.packets_delivered = read_i64(v.at("packets_delivered"));
  r.link_drops = read_i64(v.at("link_drops"));
  if (v.has("population_delay_hist")) {
    r.population_delay_hist = read_hist(v.at("population_delay_hist"));
  }
  if (v.has("runtime")) {
    const JsonValue& rt = v.at("runtime");
    r.runtime.recorded = true;
    r.runtime.wall_s = read_double(rt.at("wall_s"));
    r.runtime.peak_rss_bytes = read_i64(rt.at("peak_rss_bytes"));
    r.runtime.attempt = static_cast<int>(read_i64(rt.at("attempt")));
  }
  require_empty_legacy_array(v, "capacity_series");
  return r;
}

void write_cell(std::ostream& os, std::size_t index, std::uint64_t fingerprint,
                const ScenarioResult& result) {
  os << "    {\"index\": " << index << ", \"fingerprint\": ";
  json_u64(os, fingerprint);
  os << ", \"result\": ";
  write_result(os, result);
  os << '}';
}

struct Cell {
  std::size_t index;
  std::uint64_t fingerprint;
  ScenarioResult result;
};

Cell read_cell(const JsonValue& v) {
  Cell c;
  const std::int64_t index = read_i64(v.at("index"));
  if (index < 0) throw std::runtime_error("JSON: negative cell index");
  c.index = static_cast<std::size_t>(index);
  c.fingerprint = read_u64(v.at("fingerprint"));
  c.result = read_result(v.at("result"));
  return c;
}

void check_schema(const JsonValue& doc, const char* expected) {
  const std::string& schema = doc.at("schema").as_string();
  if (schema != expected) {
    throw std::runtime_error("JSON: schema \"" + schema + "\", expected \"" +
                             expected + "\"");
  }
}

}  // namespace

void write_scenario_result_json(std::ostream& os, const ScenarioResult& r) {
  write_result(os, r);
}

ScenarioResult scenario_result_from_json(const JsonValue& v) {
  return read_result(v);
}

std::size_t erase_result_field(std::string& text, std::string_view name) {
  if (name != "runtime" && name != "timeline") {
    throw std::invalid_argument("erase_result_field: \"" + std::string(name) +
                                "\" is not an optional result field "
                                "(runtime or timeline)");
  }
  (void)JsonValue::parse(text);  // refuse to "fix" a damaged file
  const std::string needle = ", \"" + std::string(name) + "\": {";
  std::size_t erased = 0;
  std::size_t at = 0;
  while ((at = text.find(needle, at)) != std::string::npos) {
    const std::size_t close = text.find('}', at + needle.size());
    if (close == std::string::npos) {
      throw std::runtime_error("unterminated " + std::string(name) +
                               " object");
    }
    text.erase(at, close + 1 - at);
    ++erased;
  }
  (void)JsonValue::parse(text);  // the erase must leave valid JSON
  return erased;
}

void write_shard_json(std::ostream& os, const ShardResult& shard) {
  os << "{\n  \"schema\": \"" << kShardSchema << "\",\n"
     << "  \"sweep_fingerprint\": ";
  json_u64(os, shard.sweep_fingerprint);
  os << ",\n  \"total_cells\": " << shard.total_cells;
  // Written only when recorded, so pre-split shard files and files from
  // callers that never set a strategy stay byte-stable.
  if (!shard.partition.empty()) {
    os << ",\n  \"partition\": ";
    write_json_string(os, shard.partition);
  }
  os << ",\n  \"cells\": [\n";
  for (std::size_t k = 0; k < shard.cell_indices.size(); ++k) {
    write_cell(os, shard.cell_indices[k], shard.cell_fingerprints[k],
               shard.cells[k]);
    os << (k + 1 < shard.cell_indices.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

ShardResult read_shard_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  check_schema(doc, kShardSchema);
  ShardResult shard;
  shard.sweep_fingerprint = read_u64(doc.at("sweep_fingerprint"));
  const std::int64_t total = read_i64(doc.at("total_cells"));
  if (total < 0) throw std::runtime_error("JSON: negative cell total");
  shard.total_cells = static_cast<std::size_t>(total);
  if (doc.has("partition")) {
    shard.partition = doc.at("partition").as_string();
  }
  for (const JsonValue& v : doc.at("cells").as_array()) {
    Cell c = read_cell(v);
    shard.cell_indices.push_back(c.index);
    shard.cell_fingerprints.push_back(c.fingerprint);
    shard.cells.push_back(std::move(c.result));
  }
  return shard;
}

void write_sweep_json(std::ostream& os, const SweepResult& sweep) {
  os << "{\n  \"schema\": \"" << kSweepSchema << "\",\n"
     << "  \"sweep_fingerprint\": ";
  json_u64(os, sweep.fingerprint);
  os << ",\n  \"total_cells\": " << sweep.cells.size()
     << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    write_cell(os, i, sweep.cell_fingerprints[i], sweep.cells[i]);
    os << (i + 1 < sweep.cells.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

SweepResult read_sweep_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  check_schema(doc, kSweepSchema);
  SweepResult sweep;
  sweep.fingerprint = read_u64(doc.at("sweep_fingerprint"));
  const std::int64_t total = read_i64(doc.at("total_cells"));
  const auto& cells = doc.at("cells").as_array();
  if (total < 0 || static_cast<std::size_t>(total) != cells.size()) {
    throw std::runtime_error("JSON: sweep cell total disagrees with its "
                             "cell list");
  }
  sweep.cell_fingerprints.resize(cells.size());
  sweep.cells.resize(cells.size());
  std::vector<bool> covered(cells.size(), false);
  for (const JsonValue& v : cells) {
    Cell c = read_cell(v);
    if (c.index >= cells.size() || covered[c.index]) {
      throw std::runtime_error("JSON: sweep cell index " +
                               std::to_string(c.index) +
                               " out of range or repeated");
    }
    covered[c.index] = true;
    sweep.cell_fingerprints[c.index] = c.fingerprint;
    sweep.cells[c.index] = std::move(c.result);
  }
  return sweep;
}

}  // namespace sprout
