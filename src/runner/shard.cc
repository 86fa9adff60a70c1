#include "runner/shard.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

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

ShardResult run_shard(const SweepSpec& spec,
                      std::vector<std::size_t> cell_indices, int threads) {
  std::vector<bool> seen(spec.cells.size(), false);
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
  }
  std::sort(cell_indices.begin(), cell_indices.end());

  ShardResult shard;
  shard.sweep_fingerprint = sweep_fingerprint(spec);
  shard.total_cells = spec.cells.size();
  shard.records.resize(cell_indices.size());
  for (std::size_t k = 0; k < cell_indices.size(); ++k) {
    shard.records[k].index = cell_indices[k];
    shard.records[k].fingerprint =
        scenario_fingerprint(spec.cells[cell_indices[k]]);
  }
  std::vector<std::exception_ptr> errors(cell_indices.size());

  if (threads < 1) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(1, std::min<int>(threads,
                                      static_cast<int>(cell_indices.size())));

  // Execution order cannot affect results (cells are independent and each
  // lands in its own record), so longest-first is purely a wall-clock lever.
  const std::vector<std::size_t> order =
      longest_first_order(spec.cells, cell_indices);
  ScenarioCache cache;
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t k = next.fetch_add(1); k < order.size();
         k = next.fetch_add(1)) {
      const std::size_t i = order[k];
      const auto at = static_cast<std::size_t>(
          std::lower_bound(cell_indices.begin(), cell_indices.end(), i) -
          cell_indices.begin());
      try {
        if (spec.base_seed.has_value()) {
          ScenarioSpec cell = spec.cells[i];
          cell.seed = derive_cell_seed(*spec.base_seed, spec.cells[i]);
          shard.records[at].result = run_scenario(cell, &cache);
        } else {
          shard.records[at].result = run_scenario(spec.cells[i], &cache);
        }
      } catch (...) {
        errors[at] = std::current_exception();
      }
    }
  };
  if (threads == 1) {
    worker();
  } else {
    // jthreads join when the pool goes out of scope — before `errors` is
    // read, and also when starting a later thread throws.
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return shard;
}

SweepResult run_sweep(const SweepSpec& spec, int threads) {
  std::vector<std::size_t> all(spec.cells.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<ShardResult> whole;
  whole.push_back(run_shard(spec, std::move(all), threads));
  return merge_shards(std::move(whole));
}

std::vector<std::vector<std::size_t>> lpt_partition(
    const std::vector<ScenarioSpec>& cells, std::vector<std::size_t> indices,
    int shard_count) {
  if (shard_count < 1) {
    throw std::invalid_argument("shard count must be >= 1, got " +
                                std::to_string(shard_count));
  }
  std::vector<std::vector<std::size_t>> buckets(
      static_cast<std::size_t>(shard_count));
  std::vector<double> loads(buckets.size(), 0.0);
  for (const std::size_t i : longest_first_order(cells, std::move(indices))) {
    const auto lightest = static_cast<std::size_t>(
        std::min_element(loads.begin(), loads.end()) - loads.begin());
    buckets[lightest].push_back(i);
    loads[lightest] += estimated_cost(cells[i]);
  }
  for (std::vector<std::size_t>& bucket : buckets) {
    std::sort(bucket.begin(), bucket.end());
  }
  return buckets;
}

std::vector<std::vector<std::size_t>> lpt_partition(
    const std::vector<ScenarioSpec>& cells, int shard_count) {
  std::vector<std::size_t> all(cells.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return lpt_partition(cells, std::move(all), shard_count);
}

SweepResult merge_shards(std::vector<ShardResult> shards) {
  if (shards.empty()) {
    throw std::runtime_error("merge of zero shards");
  }
  const std::uint64_t fingerprint = shards.front().sweep_fingerprint;
  const std::size_t total = shards.front().total_cells;
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
  }

  // Coverage is checked on the records themselves before anything is sized
  // by `total`: a journal header's claim alone must not drive an
  // allocation.
  std::vector<JournalRecord*> records;
  for (ShardResult& s : shards) {
    for (JournalRecord& record : s.records) {
      if (record.index >= total) {
        throw std::runtime_error("shard covers cell " +
                                 std::to_string(record.index) +
                                 ", but the grid has only " +
                                 std::to_string(total) + " cells");
      }
      records.push_back(&record);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const JournalRecord* a, const JournalRecord* b) {
              return a->index < b->index;
            });
  for (std::size_t k = 1; k < records.size(); ++k) {
    if (records[k]->index == records[k - 1]->index) {
      throw std::runtime_error("cell " + std::to_string(records[k]->index) +
                               " is covered by more than one shard");
    }
  }
  // Sorted and distinct: the first k whose record is not cell k is the
  // first gap, and this loop ends there at the latest.
  for (std::size_t k = 0; k < total; ++k) {
    if (k == records.size() || records[k]->index != k) {
      throw std::runtime_error("cell " + std::to_string(k) +
                               " is covered by no shard");
    }
  }

  SweepResult merged;
  merged.fingerprint = fingerprint;
  merged.cell_fingerprints.reserve(records.size());
  merged.cells.reserve(records.size());
  for (JournalRecord* record : records) {
    merged.cell_fingerprints.push_back(record->fingerprint);
    merged.cells.push_back(std::move(record->result));
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

std::int64_t read_i64(const JsonValue& v) {
  // Values past 2^53 would round silently in the parse, so reject them
  // loudly instead.
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  const double d = v.as_number();
  if (!(std::fabs(d) <= kExactLimit)) {
    throw std::runtime_error(
        "JSON: integer exceeds the 2^53 exact range of a double");
  }
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) {
    throw std::runtime_error("JSON: expected an integer, got a fraction");
  }
  return i;
}

std::size_t read_size(const JsonValue& v) {
  const std::int64_t i = read_i64(v);
  if (i < 0) throw std::runtime_error("JSON: negative cell index or total");
  return static_cast<std::size_t>(i);
}

namespace {

constexpr const char* kSweepSchema = "sprout-sweep-v1";
constexpr const char* kJournalSchema = "sprout-journal-v1";

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

// Histograms travel as geometry + the histogram's own sparse [bin, count]
// pairs.  Written only when the histogram is configured, so every result
// file written before histograms existed keeps its bytes.
void write_hist(std::ostream& os, const DelayHistogram& h) {
  os << "{\"bin_ms\": ";
  json_double(os, h.bin_width_ms());
  os << ", \"max_ms\": ";
  json_double(os, h.max_ms());
  os << ", \"sum_ms\": ";
  json_double(os, h.sum_ms());
  os << ", \"counts\": [";
  bool first = true;
  for (const DelayHistogram::Bin& b : h.bins()) {
    if (!first) os << ',';
    first = false;
    os << '[' << b.index << ',' << b.count << ']';
  }
  os << "]}";
}

// Nothing is sized by the file's geometry: a forged bin_ms / max_ms can
// claim any bin count, and from_parts refuses one its index cannot hold.
DelayHistogram read_hist(const JsonValue& v) {
  const double bin_ms = read_double(v.at("bin_ms"));
  const double max_ms = read_double(v.at("max_ms"));
  const double sum_ms = read_double(v.at("sum_ms"));
  std::vector<DelayHistogram::Bin> bins;
  for (const JsonValue& e : v.at("counts").as_array()) {
    const auto& pair = e.as_array();
    if (pair.size() != 2) {
      throw std::runtime_error("JSON: histogram count is not a [bin, n] pair");
    }
    const std::int64_t b = read_i64(pair[0]);
    if (b < 0 || b > std::numeric_limits<std::uint32_t>::max()) {
      throw std::runtime_error("JSON: histogram bin out of range");
    }
    bins.push_back({static_cast<std::uint32_t>(b), read_i64(pair[1])});
  }
  try {
    return DelayHistogram::from_parts(bin_ms, max_ms, sum_ms, std::move(bins));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("JSON: ") + e.what());
  }
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

// One {"index", "fingerprint", "result"} cell, as sweep files and journal
// records both spell it.
JournalRecord read_cell(const JsonValue& v) {
  JournalRecord c;
  c.index = read_size(v.at("index"));
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
    JournalRecord c = read_cell(v);
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

// --- journals -------------------------------------------------------------

std::string journal_file_name(int journal_id) {
  return "shard_" + std::to_string(journal_id) + ".journal.jsonl";
}

std::vector<std::string> list_journal_files(const std::string& dir) {
  std::vector<std::pair<long, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kPrefix = "shard_";
    constexpr std::string_view kSuffix = ".journal.jsonl";
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
        0) {
      continue;
    }
    const std::string id =
        name.substr(kPrefix.size(), name.size() - kPrefix.size() -
                                        kSuffix.size());
    if (id.empty() || id.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stol(id), entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [id, path] : found) paths.push_back(std::move(path));
  return paths;
}

void write_journal_header(std::ostream& os, const SweepSpec& spec,
                          int journal_id) {
  os << "{\"schema\": \"" << kJournalSchema << "\", \"sweep_fingerprint\": ";
  json_u64(os, sweep_fingerprint(spec));
  os << ", \"total_cells\": " << spec.cells.size()
     << ", \"journal\": " << journal_id << "}\n";
}

void write_journal_record(std::ostream& os, const JournalRecord& record) {
  os << "{\"index\": " << record.index << ", \"fingerprint\": ";
  json_u64(os, record.fingerprint);
  os << ", \"result\": ";
  write_result(os, record.result);
  os << "}\n";
}

ShardResult read_journal(std::string_view text, const std::string& label,
                         bool allow_truncated_tail) {
  ShardResult shard;
  bool have_header = false;
  std::unordered_set<std::size_t> seen;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      // Unterminated tail: the one wound an append-only journal can take
      // from kill -9 — recoverable on resume, fatal on strict replay.
      const std::size_t dropped = text.size() - pos;
      if (!allow_truncated_tail) {
        throw std::runtime_error(
            label + ": truncated final record (" + std::to_string(dropped) +
            " bytes cut mid-write); re-run the orchestrator to recover");
      }
      shard.dropped_bytes = dropped;
      break;
    }
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (line.empty()) continue;

    try {
      const JsonValue doc = JsonValue::parse(line);
      if (!have_header) {
        check_schema(doc, kJournalSchema);
        shard.sweep_fingerprint = read_u64(doc.at("sweep_fingerprint"));
        shard.total_cells = read_size(doc.at("total_cells"));
        (void)read_size(doc.at("journal"));  // informational, but required
        have_header = true;
        continue;
      }
      JournalRecord record = read_cell(doc);
      if (record.index >= shard.total_cells) {
        throw std::runtime_error("cell index " + std::to_string(record.index) +
                                 " outside the " +
                                 std::to_string(shard.total_cells) +
                                 "-cell grid");
      }
      if (!seen.insert(record.index).second) {
        throw std::runtime_error("cell " + std::to_string(record.index) +
                                 " journaled twice");
      }
      shard.records.push_back(std::move(record));
    } catch (const std::exception& e) {
      throw std::runtime_error(label + ": line " + std::to_string(line_no) +
                               ": " + e.what());
    }
  }
  if (!have_header) {
    throw std::runtime_error(label + ": missing journal header");
  }
  return shard;
}

ShardResult read_journal_file(const std::string& path,
                              bool allow_truncated_tail) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return read_journal(os.str(), path, allow_truncated_tail);
}

}  // namespace sprout
