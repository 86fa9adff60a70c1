#include "spec/grid.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "spec_test_util.h"

namespace sprout::spec {
namespace {

ExperimentSpec parse(const std::string& text) {
  return parse_experiment_json(text, "test-spec");
}

TEST(SpecGrid, CrossExpansionIsRowMajorFirstAxisOutermost) {
  const ExperimentSpec spec = parse(R"({
    "spec_version": 1,
    "base": {"run_time_s": 100, "warmup_s": 10},
    "axes": [
      {"name": "scheme", "patches": [{"scheme": "Cubic"},
                                     {"scheme": "Vegas"}]},
      {"name": "loss", "patches": [{"loss_rate": 0.0},
                                   {"loss_rate": 0.05},
                                   {"loss_rate": 0.1}]}
    ]
  })");
  ASSERT_EQ(spec.sweep.cells.size(), 6u);
  // cell = scheme_index * 3 + loss_index
  EXPECT_EQ(spec.sweep.cells[0].scheme, SchemeId::kCubic);
  EXPECT_DOUBLE_EQ(spec.sweep.cells[1].loss_rate_fwd, 0.05);
  EXPECT_EQ(spec.sweep.cells[2].scheme, SchemeId::kCubic);
  EXPECT_DOUBLE_EQ(spec.sweep.cells[2].loss_rate_fwd, 0.1);
  EXPECT_EQ(spec.sweep.cells[3].scheme, SchemeId::kVegas);
  EXPECT_DOUBLE_EQ(spec.sweep.cells[3].loss_rate_fwd, 0.0);
  EXPECT_EQ(spec.sweep.cells[5].scheme, SchemeId::kVegas);
  EXPECT_DOUBLE_EQ(spec.sweep.cells[5].loss_rate_fwd, 0.1);
  // Defaults: no name -> "", no base_seed.
  EXPECT_TRUE(spec.name.empty());
  EXPECT_FALSE(spec.sweep.base_seed.has_value());
}

TEST(SpecGrid, ZipExpansionWalksAxesInLockstep) {
  const ExperimentSpec spec = parse(R"({
    "spec_version": 1,
    "expand": "zip",
    "base": {"run_time_s": 50, "warmup_s": 5},
    "axes": [
      {"name": "scheme", "patches": [{"scheme": "Cubic"},
                                     {"scheme": "Vegas"}]},
      {"name": "seed", "patches": [{"seed": 1}, {"seed": 2}]}
    ]
  })");
  ASSERT_EQ(spec.sweep.cells.size(), 2u);
  EXPECT_EQ(spec.sweep.cells[0].scheme, SchemeId::kCubic);
  EXPECT_EQ(spec.sweep.cells[0].seed, 1u);
  EXPECT_EQ(spec.sweep.cells[1].scheme, SchemeId::kVegas);
  EXPECT_EQ(spec.sweep.cells[1].seed, 2u);
}

TEST(SpecGrid, ZipLengthMismatchIsRejected) {
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1,
          "expand": "zip",
          "base": {},
          "axes": [
            {"name": "a", "patches": [{"seed": 1}, {"seed": 2}]},
            {"name": "b", "patches": [{"loss_rate": 0.1}]}
          ]
        })");
      },
      "zip expansion needs equal-length axes (\"a\" has 2 patches, \"b\" "
      "has 1)");
}

TEST(SpecGrid, OverlappingAxesAreRejected) {
  // Both axes patch the flows array (arrays are replaced wholesale by
  // merge-patch, so they are leaves): in a cross product the second axis
  // would silently overwrite the first in every cell.
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1,
          "base": {},
          "axes": [
            {"name": "rival",
             "patches": [{"topology": {"flows": [{"scheme": "Cubic"}]}}]},
            {"name": "fleet",
             "patches": [{"topology": {"flows": [{"scheme": "Vegas"},
                                                 {"scheme": "Vegas"}]}}]}
          ]
        })");
      },
      "axes: axes \"rival\" and \"fleet\" overlap: both set topology.flows");
  // Distinct leaves of one object do NOT overlap.
  EXPECT_NO_THROW((void)parse(R"({
    "spec_version": 1,
    "base": {"run_time_s": 40, "warmup_s": 4},
    "axes": [
      {"name": "fwd", "patches": [{"loss_rate_fwd": 0.1}]},
      {"name": "rev", "patches": [{"loss_rate_rev": 0.2}]}
    ]
  })"));
}

TEST(SpecGrid, RangeAxisExpandsInclusiveNumericSteps) {
  const ExperimentSpec spec = parse(R"({
    "spec_version": 1,
    "base": {"run_time_s": 100, "warmup_s": 10},
    "axes": [
      {"name": "loss", "range": {"loss_rate": {"from": 0, "to": 0.1,
                                               "step": 0.02}}}
    ]
  })");
  ASSERT_EQ(spec.sweep.cells.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(spec.sweep.cells[i].loss_rate_fwd, 0.02 * i) << i;
    EXPECT_DOUBLE_EQ(spec.sweep.cells[i].loss_rate_rev, 0.02 * i) << i;
  }
}

TEST(SpecGrid, RangeAxisReachesNestedFieldsAndCombinesWithPatchAxes) {
  const ExperimentSpec spec = parse(R"({
    "spec_version": 1,
    "base": {
      "link": {"source": "synth"},
      "run_time_s": 40, "warmup_s": 4
    },
    "axes": [
      {"name": "scheme", "patches": [{"scheme": "Cubic"},
                                     {"scheme": "Vegas"}]},
      {"name": "sigma", "range": {"link": {"forward": {"brownian":
          {"sigma_pps_per_sqrt_s": {"from": 100, "to": 300,
                                    "step": 100}}}}}}
    ]
  })");
  ASSERT_EQ(spec.sweep.cells.size(), 6u);
  EXPECT_EQ(spec.sweep.cells[0].scheme, SchemeId::kCubic);
  EXPECT_EQ(spec.sweep.cells[3].scheme, SchemeId::kVegas);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(
        spec.sweep.cells[i].link.forward_synth.brownian.sigma_pps_per_sqrt_s,
        100.0 * (i % 3) + 100.0)
        << i;
  }
  // Two ranged cells differing only in sigma carry different fingerprints.
  EXPECT_NE(scenario_fingerprint(spec.sweep.cells[0]),
            scenario_fingerprint(spec.sweep.cells[1]));
}

TEST(SpecGrid, RangeAxisMistakesAreRejectedWithPaths) {
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1, "base": {},
          "axes": [{"name": "a",
                    "patches": [{"seed": 1}],
                    "range": {"loss_rate": {"from": 0, "to": 1,
                                            "step": 0.5}}}]
        })");
      },
      "axes[0]: needs exactly one of \"patches\" or \"range\"");
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1, "base": {},
          "axes": [{"name": "a", "range": {"loss_rate": {"from": 0.2,
                                                         "to": 0.1,
                                                         "step": 0.05}}}]
        })");
      },
      "axes[0].range.loss_rate.to: must be >= from");
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1, "base": {},
          "axes": [{"name": "a", "range": {"loss_rate": {"from": 0,
                                                         "to": 0.1,
                                                         "step": 0}}}]
        })");
      },
      "axes[0].range.loss_rate.step: must be > 0");
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1, "base": {},
          "axes": [{"name": "a",
                    "range": {"loss_rate_fwd": {"from": 0, "to": 0.1,
                                                "step": 0.05},
                              "loss_rate_rev": {"from": 0, "to": 0.1,
                                                "step": 0.05}}}]
        })");
      },
      "axes[0].range: sweeps more than one field");
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1, "base": {},
          "axes": [{"name": "a", "range": {"loss_rate": 0.5}}]
        })");
      },
      "range values must be objects");
  // A range axis and a patch axis writing the same field still overlap.
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1, "base": {},
          "axes": [
            {"name": "a", "range": {"loss_rate": {"from": 0, "to": 0.1,
                                                  "step": 0.05}}},
            {"name": "b", "patches": [{"loss_rate": 0.2}]}
          ]
        })");
      },
      "axes \"a\" and \"b\" overlap: both set loss_rate");
}

TEST(SpecGrid, RangeAxesZipInLockstep) {
  const ExperimentSpec spec = parse(R"({
    "spec_version": 1,
    "expand": "zip",
    "base": {"run_time_s": 50, "warmup_s": 5},
    "axes": [
      {"name": "loss", "range": {"loss_rate": {"from": 0, "to": 0.04,
                                               "step": 0.02}}},
      {"name": "seed", "patches": [{"seed": 1}, {"seed": 2}, {"seed": 3}]}
    ]
  })");
  ASSERT_EQ(spec.sweep.cells.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.sweep.cells[2].loss_rate_fwd, 0.04);
  EXPECT_EQ(spec.sweep.cells[2].seed, 3u);
}

TEST(SpecGrid, SpecVersionIsEnforced) {
  expect_spec_error([] { (void)parse(R"({"base": {}})"); },
                    "missing required field \"spec_version\"");
  expect_spec_error(
      [] { (void)parse(R"({"spec_version": 2, "base": {}})"); },
      "spec_version: unsupported spec_version 2 (this build reads 1)");
}

TEST(SpecGrid, ExplicitCellsAndOverrides) {
  const ExperimentSpec spec = parse(R"({
    "spec_version": 1,
    "name": "explicit",
    "base_seed": 99,
    "cells": [
      {"scheme": "Cubic", "run_time_s": 30, "warmup_s": 3},
      {"scheme": "Vegas", "run_time_s": 30, "warmup_s": 3}
    ],
    "cell_overrides": [{"cell": 1, "patch": {"loss_rate": 0.07}}]
  })");
  EXPECT_EQ(spec.name, "explicit");
  ASSERT_TRUE(spec.sweep.base_seed.has_value());
  EXPECT_EQ(*spec.sweep.base_seed, 99u);
  ASSERT_EQ(spec.sweep.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.sweep.cells[0].loss_rate_fwd, 0.0);
  EXPECT_DOUBLE_EQ(spec.sweep.cells[1].loss_rate_fwd, 0.07);
  EXPECT_DOUBLE_EQ(spec.sweep.cells[1].loss_rate_rev, 0.07);

  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1,
          "cells": [{"scheme": "Cubic"}],
          "cell_overrides": [{"cell": 5, "patch": {}}]
        })");
      },
      "cell_overrides[0].cell: cell 5 outside the expanded grid of 1 cells");
  expect_spec_error(
      [] {
        (void)parse(R"({"spec_version": 1, "cells": [{}], "base": {}})");
      },
      "cells: an explicit cell list cannot be combined with \"base\"");
  // A spec does not choose the shard cut: LPT is the only one.
  expect_spec_error(
      [] {
        (void)parse(R"({"spec_version": 1, "plan": {"strategy": "lpt"},
                        "cells": [{}]})");
      },
      "plan: unknown field");
}

TEST(SpecGrid, ExpansionErrorsCarryTheCellIndex) {
  // The base parses alone; only cell 1's patch makes it invalid — the
  // error must say which expanded cell broke, then the field inside it.
  expect_spec_error(
      [] {
        (void)parse(R"({
          "spec_version": 1,
          "base": {"run_time_s": 50, "warmup_s": 5},
          "axes": [{"name": "s", "patches": [{"scheme": "Cubic"},
                                             {"scheme": "nope"}]}]
        })");
      },
      "cells[1].scheme: unknown scheme \"nope\"");
}

// The acceptance lock: the checked-in specs expand to exactly the grids
// the sweep CLI once compiled in (10 s cells, base seed 42).  The literals
// are those grids' sweep fingerprints, so any drift in the files or in the
// fingerprint itself fails here.
TEST(SpecGrid, CheckedInSpecMatchesCompiledGrid) {
  const struct {
    const char* file;
    const char* name;
    std::uint64_t fingerprint;
  } locks[] = {
      {"coexistence_smoke.json", "coexistence-smoke", 16589686577502135053ull},
      {"mixed_duration.json", "mixed-duration", 17961968230684069721ull},
  };
  for (const auto& lock : locks) {
    const ExperimentSpec spec = parse_experiment_file(
        std::string(SPROUT_SOURCE_DIR) + "/specs/" + lock.file);
    EXPECT_EQ(sweep_fingerprint(spec.sweep), lock.fingerprint) << lock.file;
    EXPECT_EQ(spec.name, lock.name);
    ASSERT_TRUE(spec.sweep.base_seed.has_value()) << lock.file;
    EXPECT_EQ(*spec.sweep.base_seed, 42u) << lock.file;
  }
}

// Write -> parse is fingerprint-preserving for every checked-in spec, so
// any grid can be re-emitted as a spec file and rerun without drift.
TEST(SpecGrid, CheckedInSpecsReparseIdentically) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(SPROUT_SOURCE_DIR) + "/specs")) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  ASSERT_GE(paths.size(), 4u);
  for (const std::filesystem::path& path : paths) {
    const ExperimentSpec spec = parse_experiment_file(path.string());
    std::ostringstream os;
    write_experiment_json(os, spec);
    const ExperimentSpec back = parse_experiment_json(os.str(), path.string());
    EXPECT_EQ(sweep_fingerprint(back.sweep), sweep_fingerprint(spec.sweep))
        << path << ":\n" << os.str();
    EXPECT_EQ(back.sweep.base_seed, spec.sweep.base_seed) << path;
  }
}

}  // namespace
}  // namespace sprout::spec
