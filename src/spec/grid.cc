#include "spec/grid.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

namespace sprout::spec {

namespace {

struct Axis {
  std::string name;
  std::vector<const JsonValue*> patches;
  // Backing store for range-generated patches; `patches` may point here.
  // (Moving an Axis moves the vector's heap buffer, so the pointers stay
  // valid.)
  std::vector<JsonValue> owned;
};

// --- numeric range axes --------------------------------------------------
//
// An axis may declare its patches as a numeric range instead of a list:
//
//   {"name": "loss", "range": {"loss_rate": {"from": 0, "to": 0.1,
//                                            "step": 0.02}}}
//
// expands to the six merge-patches {"loss_rate": 0}, ..., {"loss_rate":
// 0.1}.  The range object is shaped like the patch it generates: nested
// objects address deep fields ({"link": {"forward": {"brownian": {...}}}}),
// and exactly ONE leaf must be a {from, to, step} descriptor — two swept
// fields are two axes, not one.

bool is_range_descriptor(const JsonValue& v) {
  if (v.kind() != JsonValue::Kind::kObject) return false;
  return v.has("from") && v.has("to") && v.has("step") &&
         v.members().size() == 3;
}

// Counts descriptor leaves and checks everything else is a plain object.
int count_descriptors(const Field& f) {
  if (is_range_descriptor(f.json())) return 1;
  if (f.json().kind() != JsonValue::Kind::kObject) {
    f.fail("range values must be objects ending in one "
           "{\"from\", \"to\", \"step\"} descriptor");
  }
  int count = 0;
  for (const auto& [key, value] : f.json().members()) {
    (void)value;
    count += count_descriptors(f.at(key));
  }
  return count;
}

std::vector<double> descriptor_values(const Field& f) {
  const Field from = f.at("from");
  const Field to = f.at("to");
  const Field step = f.at("step");
  const double lo = from.as_finite();
  const double hi = to.as_finite();
  const double by = step.positive();
  if (hi < lo) to.fail("must be >= from");
  // Values are from + i*step (never accumulated), with a half-ulp-ish
  // slack so 0..0.1 by 0.02 includes 0.1 despite binary rounding.
  const double slack = by * 1e-9;
  std::vector<double> values;
  for (int i = 0;; ++i) {
    const double v = lo + by * i;
    if (v > hi + slack) break;
    values.push_back(std::min(v, hi));
    if (values.size() > 10000) {
      step.fail("range expands to more than 10000 values");
    }
  }
  return values;
}

// Clones the range shape with the descriptor leaf replaced by `value`.
JsonValue range_patch(const JsonValue& shape, double value) {
  if (is_range_descriptor(shape)) return JsonValue::make_number(value);
  std::vector<std::pair<std::string, JsonValue>> members;
  for (const auto& [key, child] : shape.members()) {
    members.emplace_back(key, range_patch(child, value));
  }
  return JsonValue::make_object(std::move(members));
}

std::vector<JsonValue> expand_range(const Field& range) {
  const int descriptors = count_descriptors(range);
  if (descriptors == 0) {
    range.fail("needs exactly one {\"from\", \"to\", \"step\"} descriptor");
  }
  if (descriptors > 1) {
    range.fail("sweeps more than one field; use one axis per swept field");
  }
  // Locate the descriptor to read its bounds (depth-first; unique).
  std::function<std::optional<Field>(const Field&)> find =
      [&](const Field& f) -> std::optional<Field> {
    if (is_range_descriptor(f.json())) return f;
    for (const auto& [key, value] : f.json().members()) {
      (void)value;
      if (auto hit = find(f.at(key))) return hit;
    }
    return std::nullopt;
  };
  const Field descriptor = *find(range);
  std::vector<JsonValue> patches;
  for (const double v : descriptor_values(descriptor)) {
    patches.push_back(range_patch(range.json(), v));
  }
  return patches;
}

std::vector<Axis> read_axes(const Field& axes_field) {
  std::vector<Axis> axes;
  for (const Field& a : axes_field.items()) {
    a.allow_keys({"name", "patches", "range"});
    Axis axis;
    axis.name = a.at("name").as_string();
    if (a.has("patches") == a.has("range")) {
      a.fail("needs exactly one of \"patches\" or \"range\"");
    }
    if (const auto range = a.get("range")) {
      axis.owned = expand_range(*range);
      axis.patches.reserve(axis.owned.size());
      for (const JsonValue& p : axis.owned) axis.patches.push_back(&p);
      axes.push_back(std::move(axis));
      continue;
    }
    const Field patches = a.at("patches");
    for (const Field& p : patches.items()) {
      if (p.json().kind() != JsonValue::Kind::kObject) {
        p.fail("expected a merge-patch object");
      }
      axis.patches.push_back(&p.json());
    }
    if (axis.patches.empty()) patches.fail("needs at least one patch");
    axes.push_back(std::move(axis));
  }
  return axes;
}

// Two axes may not write the same field: in a cross product the later
// axis would silently win every cell, making the grid's shape a lie.
void reject_overlapping_axes(const Field& axes_field,
                             const std::vector<Axis>& axes) {
  std::vector<std::vector<std::string>> touched(axes.size());
  for (std::size_t i = 0; i < axes.size(); ++i) {
    for (const JsonValue* patch : axes[i].patches) {
      for (std::string& path : patch_paths(*patch)) {
        touched[i].push_back(std::move(path));
      }
    }
  }
  for (std::size_t i = 0; i < axes.size(); ++i) {
    for (std::size_t j = i + 1; j < axes.size(); ++j) {
      for (const std::string& p : touched[i]) {
        for (const std::string& q : touched[j]) {
          if (paths_overlap(p, q)) {
            axes_field.fail("axes \"" + axes[i].name + "\" and \"" +
                            axes[j].name + "\" overlap: both set " +
                            (p.size() >= q.size() ? p : q));
          }
        }
      }
    }
  }
}

}  // namespace

ExperimentSpec parse_experiment_json(std::string_view text,
                                     const std::string& label) {
  const JsonValue doc_json = parse_spec_document(text, label);
  const Field doc(doc_json, "");
  doc.allow_keys({"spec_version", "name", "base_seed", "cells", "base",
                  "expand", "axes", "cell_overrides"});

  const Field version = doc.at("spec_version");
  if (version.as_int() != kSpecVersion) {
    version.fail("unsupported spec_version " +
                 std::to_string(version.as_int()) + " (this build reads " +
                 std::to_string(kSpecVersion) + ")");
  }

  ExperimentSpec spec;
  if (const auto f = doc.get("name")) spec.name = f->as_string();
  if (const auto f = doc.get("base_seed")) spec.sweep.base_seed = f->as_u64();

  // The expanded cell documents; kept alive until the scenarios are read
  // (Field borrows its JsonValue).
  std::vector<JsonValue> cell_docs;
  if (const auto cells = doc.get("cells")) {
    for (const char* clashing : {"base", "axes", "expand"}) {
      if (doc.has(clashing)) {
        cells->fail(std::string("an explicit cell list cannot be combined "
                                "with \"") +
                    clashing + "\"");
      }
    }
    for (const Field& c : cells->items()) cell_docs.push_back(c.json());
    if (cell_docs.empty()) cells->fail("needs at least one cell");
  } else {
    const Field base = doc.at("base");
    if (base.json().kind() != JsonValue::Kind::kObject) {
      base.fail("expected a scenario object");
    }
    std::vector<Axis> axes;
    if (const auto axes_field = doc.get("axes")) {
      axes = read_axes(*axes_field);
      reject_overlapping_axes(*axes_field, axes);
    }
    const std::string expand =
        doc.has("expand") ? doc.at("expand").as_string() : "cross";
    if (expand == "cross") {
      // First axis outermost: indices count like a mixed-radix odometer
      // whose least-significant digit is the LAST axis.
      std::size_t total = 1;
      for (const Axis& a : axes) total *= a.patches.size();
      for (std::size_t cell = 0; cell < total; ++cell) {
        JsonValue merged = base.json();
        std::size_t rem = cell;
        std::size_t radix = total;
        for (const Axis& a : axes) {
          radix /= a.patches.size();
          merged = merge_patch(merged, *a.patches[rem / radix]);
          rem %= radix;
        }
        cell_docs.push_back(std::move(merged));
      }
    } else if (expand == "zip") {
      const Field axes_field = doc.at("axes");
      if (axes.empty()) axes_field.fail("zip expansion needs axes");
      for (const Axis& a : axes) {
        if (a.patches.size() != axes.front().patches.size()) {
          axes_field.fail("zip expansion needs equal-length axes (\"" +
                          axes.front().name + "\" has " +
                          std::to_string(axes.front().patches.size()) +
                          " patches, \"" + a.name + "\" has " +
                          std::to_string(a.patches.size()) + ")");
        }
      }
      for (std::size_t cell = 0; cell < axes.front().patches.size(); ++cell) {
        JsonValue merged = base.json();
        for (const Axis& a : axes) {
          merged = merge_patch(merged, *a.patches[cell]);
        }
        cell_docs.push_back(std::move(merged));
      }
    } else {
      doc.at("expand").fail("unknown expansion \"" + expand +
                            "\" (expected \"cross\" or \"zip\")");
    }
  }

  if (const auto overrides = doc.get("cell_overrides")) {
    for (const Field& o : overrides->items()) {
      o.allow_keys({"cell", "patch"});
      const Field cell_field = o.at("cell");
      const std::int64_t cell = cell_field.int_at_least(0);
      if (static_cast<std::size_t>(cell) >= cell_docs.size()) {
        cell_field.fail("cell " + std::to_string(cell) +
                        " outside the expanded grid of " +
                        std::to_string(cell_docs.size()) + " cells");
      }
      const Field patch = o.at("patch");
      cell_docs[static_cast<std::size_t>(cell)] =
          merge_patch(cell_docs[static_cast<std::size_t>(cell)],
                      patch.json());
    }
  }

  spec.sweep.cells.reserve(cell_docs.size());
  for (std::size_t i = 0; i < cell_docs.size(); ++i) {
    spec.sweep.cells.push_back(scenario_from_field(
        Field(cell_docs[i], "cells[" + std::to_string(i) + "]")));
  }
  return spec;
}

ExperimentSpec parse_experiment_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_experiment_json(text.str(), path);
}

void write_experiment_json(std::ostream& os, const ExperimentSpec& spec) {
  os << "{\n  \"spec_version\": " << kSpecVersion << ",\n  \"name\": ";
  write_json_string(os, spec.name);
  if (spec.sweep.base_seed.has_value()) {
    // Same spelling rule as the scenario writer: exact as a number, a
    // decimal string past 2^53.
    os << ",\n  \"base_seed\": ";
    if (*spec.sweep.base_seed < (1ull << 53)) {
      os << *spec.sweep.base_seed;
    } else {
      os << '"' << *spec.sweep.base_seed << '"';
    }
  }
  os << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < spec.sweep.cells.size(); ++i) {
    os << "    ";
    write_scenario_json(os, spec.sweep.cells[i], 4);
    os << (i + 1 < spec.sweep.cells.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

}  // namespace sprout::spec
