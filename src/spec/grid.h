// The declarative experiment document: one JSON file that defines a whole
// sweep — scenarios and grid axes — with no recompile.
//
// Document shape (spec_version 1):
//
//   {
//     "spec_version": 1,
//     "name": "coexistence-smoke",
//     "base_seed": 42,                      // optional; content-derived
//                                           // per-cell seeds, as SweepSpec
//
//     // EITHER an explicit cell list...
//     "cells": [ { ...scenario... }, ... ],
//
//     // ...OR a base scenario expanded by named axes:
//     "base": { ...scenario... },
//     "expand": "cross",                    // "cross" (default) or "zip"
//     "axes": [
//       {"name": "rival", "patches": [ { ...merge-patch... }, ... ]},
//       {"name": "loss",  "patches": [ {"loss_rate": 0.0},
//                                      {"loss_rate": 0.05} ]},
//       // or a numeric range instead of a patch list — nested objects
//       // address deep fields; exactly one {from, to, step} leaf:
//       {"name": "sigma", "range": {"link": {"forward": {"brownian":
//           {"sigma_pps_per_sqrt_s":
//               {"from": 100, "to": 300, "step": 100}}}}}}
//     ],
//
//     // optional per-cell tweaks applied after expansion:
//     "cell_overrides": [ {"cell": 3, "patch": { ... }} ]
//   }
//
// Axis patches are RFC 7386 merge-patches layered over the base document
// (spec/schema.h); "cross" expands the axes' cross product with the FIRST
// axis outermost (cell index = ((i0*n1 + i1)*n2 + i2)...), "zip" walks
// equal-length axes in lockstep.  Two axes whose patches touch the same
// field (path-prefix-wise) are rejected as overlapping — a cross product
// where one axis silently overwrites another is a grid that lies about
// its own shape.  Every expanded cell is validated by the strict scenario
// reader, so unknown schemes, bad versions and out-of-range values fail at
// parse time with a path-aware message, before anything simulates.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "runner/shard.h"
#include "spec/scenario_io.h"

namespace sprout::spec {

// The one version this build reads; bumped when the document shape
// changes incompatibly.
inline constexpr int kSpecVersion = 1;

// A parsed, fully expanded experiment: the sweep the runner executes plus
// the name the CLI frontends print.
struct ExperimentSpec {
  std::string name;
  SweepSpec sweep;  // expanded cells + base_seed
};

// Parses and expands one experiment document.  All failures throw
// SpecError with the path of the offending field; `label` (usually the
// file name) prefixes parse errors.
[[nodiscard]] ExperimentSpec parse_experiment_json(std::string_view text,
                                                   const std::string& label);

// Reads and parses a spec file; SpecError("cannot read <path>") when the
// file is unreadable.  The one loading path every CLI frontend shares.
[[nodiscard]] ExperimentSpec parse_experiment_file(const std::string& path);

// Writes an experiment as an explicit-cells document (expansion is
// one-way: a dumped grid lists its cells, not the axes that produced
// them).  Deterministic byte output; re-parsing yields a sweep with
// identical cell fingerprints (table_coexistence --dump-spec relies on it,
// and SpecGrid.CheckedInSpecsReparseIdentically checks it).
void write_experiment_json(std::ostream& os, const ExperimentSpec& spec);

}  // namespace sprout::spec
