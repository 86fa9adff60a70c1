// Aligned plain-text table output for the benchmark harness, plus the
// small JSON model the sharded sweep pipeline reads its result files with.
//
// Every bench binary regenerates one of the paper's tables or figures; the
// writer produces the same rows/series in a stable, diffable layout and can
// mirror the data to a TSV file for plotting.  JsonValue is the read side:
// shard result files (runner/shard.h) are written by one OS process and
// merged by another, so corrupt or truncated files must fail loudly here,
// not surface as garbled metrics downstream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sprout {

class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> headers);

  // Begins a new row; subsequent cell() calls fill it left to right.
  TableWriter& row();
  TableWriter& cell(const std::string& value);
  TableWriter& cell(const char* value);
  TableWriter& cell(double value, int precision = 2);
  TableWriter& cell(std::int64_t value);

  // Renders the table with padded columns.
  void print(std::ostream& os) const;

  // Tab-separated dump (header row first); convenient for gnuplot.
  void write_tsv(std::ostream& os) const;

  // JSON dump: an array of objects keyed by header (all values as strings,
  // exactly as rendered).  Used by the CI bench-smoke artifact.
  void write_json(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats `value` with fixed precision (helper shared with bench output).
std::string format_double(double value, int precision = 2);

// Immutable parsed JSON value (RFC 8259 subset: no surrogate pairs).
// Object member order is preserved.  Every accessor throws
// std::runtime_error on a kind mismatch or a missing key, so a malformed
// shard file fails at the first wrong field with a message naming it.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses exactly one JSON document; throws std::runtime_error (with the
  // byte offset) on syntax errors, truncation, or trailing garbage.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

  // Object member lookup; throws std::runtime_error naming a missing key.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;

  // Builders for programmatic documents (the declarative spec subsystem's
  // merge-patch expansion composes JSON it never parsed).  Numbers must be
  // finite — JSON has no NaN/inf literal, so a non-finite build is a bug at
  // the call site and throws std::invalid_argument.
  [[nodiscard]] static JsonValue make_null();
  [[nodiscard]] static JsonValue make_bool(bool b);
  [[nodiscard]] static JsonValue make_number(double v);
  [[nodiscard]] static JsonValue make_string(std::string s);
  [[nodiscard]] static JsonValue make_array(std::vector<JsonValue> items);
  [[nodiscard]] static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

// Writes `s` as a JSON string literal (quotes + escapes), exactly as
// TableWriter::write_json does internally.
void write_json_string(std::ostream& os, const std::string& s);

// Writes a finite double with 17 significant digits, the repo-wide JSON
// discipline: enough for any IEEE-754 double, and strtod (JsonValue's
// reader) is correctly rounded, so write -> parse -> write is a fixed point.
void write_json_double(std::ostream& os, double v);

}  // namespace sprout
