// The compiled-in grids the `sweep` CLI ships (--grid NAME), as a library
// so that (a) the CLI, the spec_lint example and the tests construct the SAME
// grid objects, and (b) each checked-in JSON spec twin (specs/*.json) can
// be locked against its compiled grid by fingerprint — the acceptance
// invariant "a sweep defined only in a spec file produces byte-identical
// results to the compiled grid" starts from these.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "runner/shard.h"

namespace sprout::spec {

struct BuiltinGridOptions {
  // Per-cell duration scale: run_time = seconds, warmup = seconds / 4.
  int seconds = 20;
  std::optional<std::uint64_t> base_seed;
};

// The names build_builtin_grid accepts, in listing order.
[[nodiscard]] const std::vector<std::string>& builtin_grid_names();

// Builds a named grid; throws std::invalid_argument (naming the known
// grids) for anything else.
[[nodiscard]] SweepSpec build_builtin_grid(const std::string& name,
                                           const BuiltinGridOptions& options);

}  // namespace sprout::spec
