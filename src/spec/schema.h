// Typed, path-aware field readers for the declarative spec subsystem.
//
// A spec document is operator-written JSON (specs/*.json), so its failure
// mode is a human mistake — a typo'd key, a stop before a start, a string
// where a number belongs — and the error message is the product.  Field
// wraps one JsonValue plus the dotted/bracketed path that led to it
// ("topology.flows[2].stop_s"), and every reader throws SpecError naming
// that exact path:
//
//     topology.flows[2].stop_s: must be > start_s
//
// This is deliberately a different discipline from the shard-file readers
// in runner/shard.cc: shard JSON is machine-written, so there corruption is
// the failure mode and a byte offset suffices.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/table.h"
#include "util/units.h"

namespace sprout::spec {

// Every spec-document failure — parse, type, range, structure — throws
// this, so CLI frontends (sweep list, sweep --spec) can catch one type
// and print one diagnostic.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& what) : std::runtime_error(what) {}
};

// One field of a spec document: a borrowed JsonValue plus its path from the
// document root.  Fields are cheap values; navigation (at/get/items)
// returns children with extended paths.  The underlying JsonValue must
// outlive every Field that views it.
class Field {
 public:
  Field(const JsonValue& value, std::string path);

  [[nodiscard]] const JsonValue& json() const { return *value_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  // Throws SpecError("<path>: <message>").
  [[noreturn]] void fail(const std::string& message) const;

  // --- navigation -------------------------------------------------------
  // Required object member; SpecError if this is not an object or the key
  // is absent.
  [[nodiscard]] Field at(const std::string& key) const;
  // Optional object member; nullopt when absent (SpecError if this is not
  // an object).
  [[nodiscard]] std::optional<Field> get(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;
  // Array elements, with paths "<path>[0]", "<path>[1]", ...
  [[nodiscard]] std::vector<Field> items() const;
  // Rejects any member whose key is not in `allowed`, naming the stray key
  // and listing what the object accepts — a typo'd optional key must fail,
  // not silently fall back to the default it was meant to override.
  void allow_keys(std::initializer_list<std::string_view> allowed) const;

  // --- scalar readers ---------------------------------------------------
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  // A finite JSON number.  (JSON has no NaN/inf literal; an overflowing
  // literal like 1e999 parses to inf and is rejected here.)
  [[nodiscard]] double as_finite() const;
  [[nodiscard]] double positive() const;      // finite, > 0
  [[nodiscard]] double non_negative() const;  // finite, >= 0
  [[nodiscard]] double in_range(double lo, double hi) const;  // inclusive
  [[nodiscard]] std::int64_t as_int() const;  // finite, integral
  [[nodiscard]] std::int64_t int_at_least(std::int64_t lo) const;
  // Seeds and fingerprints: a plain number (integral, within the 2^53
  // exact range) or a decimal string — the same convention shard files use
  // for values a double cannot carry exactly.
  [[nodiscard]] std::uint64_t as_u64() const;
  // Durations travel as floating-point seconds and convert to the
  // simulator's integer microseconds.
  [[nodiscard]] Duration seconds() const;
  [[nodiscard]] Duration positive_seconds() const;
  [[nodiscard]] Duration non_negative_seconds() const;

 private:
  const JsonValue* value_;
  std::string path_;
};

// Parses a whole document and roots it at `path` (usually the file name or
// a logical label like "cell[3]"); parse errors are rethrown as SpecError
// with that root prefixed.  NOTE: Field borrows, so bind the returned
// document to a variable — `Field f(parse_spec_document(text), ...)` would
// dangle.
[[nodiscard]] JsonValue parse_spec_document(std::string_view text,
                                            const std::string& path);

// RFC 7386 JSON merge-patch: objects merge member-wise (a null patch
// member deletes the key), anything else replaces the base wholesale —
// arrays included, which is what makes patched flow lists unambiguous.
// The grid expander (spec/grid.h) layers axis patches over a base scenario
// document with this.
[[nodiscard]] JsonValue merge_patch(const JsonValue& base,
                                    const JsonValue& patch);

// The dotted paths `patch` would write ("topology.flows", "loss_rate"):
// objects recurse, arrays and scalars are leaves.  Two patches conflict
// when one's path equals or prefixes the other's — the axis-overlap check
// in spec/grid.cc compares exactly this.
[[nodiscard]] std::vector<std::string> patch_paths(const JsonValue& patch);

// True when `p` and `q` name the same field or one contains the other
// (path-segment-wise: "topology.flows" covers "topology.flows[1].scheme"
// but not "topology.flows_extra").
[[nodiscard]] bool paths_overlap(const std::string& p, const std::string& q);

}  // namespace sprout::spec
