#include "obs/metrics.h"

#include <cstdlib>

#include "util/table.h"

namespace sprout::obs {

namespace detail {

std::atomic<bool> g_enabled{[] {
  const char* env = std::getenv("SPROUT_OBS");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}()};

}  // namespace detail

namespace {

void indent_to(std::ostream& os, int col) {
  for (int i = 0; i < col; ++i) os << ' ';
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

Duration duration_from_ms(double ms) {
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

void LatencyHistogram::record_ms(double ms) { record(duration_from_ms(ms)); }

void LatencyHistogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  hist_ = DelayHistogram(duration_from_ms(hist_.bin_width_ms()),
                         duration_from_ms(hist_.max_ms()));
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

LatencyHistogram& Registry::histogram(const std::string& name, Duration bin,
                                      Duration max) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::piecewise_construct, std::forward_as_tuple(name),
               std::forward_as_tuple(bin, max))
      .first->second;
}

std::vector<MetricSample> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.count = c.value();
    s.value = static_cast<double>(s.count);
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = g.value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    const DelayHistogram copy = h.histogram();
    if (copy.samples() > 0) s.stats = copy.stats();
    s.count = copy.samples();
    s.value = copy.mean_ms();
    out.push_back(std::move(s));
  }
  // std::map iteration is name-sorted per section; the flat view keeps
  // counters, then gauges, then histograms — stable and deterministic.
  return out;
}

void Registry::write_json(std::ostream& os, int indent) const {
  write_json_impl(os, indent, /*compact=*/false);
}

void Registry::write_json_compact(std::ostream& os) const {
  write_json_impl(os, 0, /*compact=*/true);
}

void Registry::write_json_impl(std::ostream& os, int indent,
                               bool compact) const {
  std::lock_guard<std::mutex> lock(mu_);
  // One emit path for both shapes: `open` starts a member at the right
  // column (or after a space, compact), `close_section` lands the brace.
  const auto open = [&](bool& first, int col) {
    if (compact) {
      os << (first ? "" : ", ");
    } else {
      os << (first ? "\n" : ",\n");
      indent_to(os, col);
    }
    first = false;
  };
  const auto close_section = [&](bool first, int col) {
    if (!compact && !first) {
      os << "\n";
      indent_to(os, col);
    }
    os << "}";
  };

  os << "{";
  if (!compact) {
    os << "\n";
    indent_to(os, indent + 2);
  }
  os << "\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    open(first, indent + 4);
    write_json_string(os, name);
    os << ": " << c.value();
  }
  close_section(first, indent + 2);
  os << ",";
  if (compact) {
    os << " ";
  } else {
    os << "\n";
    indent_to(os, indent + 2);
  }
  os << "\"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    open(first, indent + 4);
    write_json_string(os, name);
    os << ": ";
    write_json_double(os, g.value());
  }
  close_section(first, indent + 2);
  os << ",";
  if (compact) {
    os << " ";
  } else {
    os << "\n";
    indent_to(os, indent + 2);
  }
  os << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const DelayHistogram copy = h.histogram();
    open(first, indent + 4);
    write_json_string(os, name);
    os << ": {\"samples\": " << copy.samples() << ", \"mean_ms\": ";
    write_json_double(os, copy.mean_ms());
    if (copy.samples() > 0) {
      const DelayStats st = copy.stats();
      os << ", \"p50_ms\": ";
      write_json_double(os, st.p50_ms);
      os << ", \"p95_ms\": ";
      write_json_double(os, st.p95_ms);
      os << ", \"p99_ms\": ";
      write_json_double(os, st.p99_ms);
    }
    os << "}";
  }
  close_section(first, indent + 2);
  if (!compact) {
    os << "\n";
    indent_to(os, indent);
  }
  os << "}";
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace sprout::obs
