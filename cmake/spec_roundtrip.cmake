# Acceptance check for declarative experiment specs: a sweep defined ONLY
# by the checked-in JSON spec must lint clean and produce byte-identical
# results to the equivalent compiled-in grid, both as one process and as an
# LPT-sharded 3-process run (the spec's plan.strategy is lpt).
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

sweep_roundtrip(3 --spec ${SPECS}/coexistence_smoke.json)
# --seconds 10 --base-seed 42 is what the spec file encodes.
run_tool(${SWEEP} run --grid coexistence-smoke --seconds 10 --base-seed 42
  --out full_grid.json)
require_same(full_grid.json full.json
  "compiled-in grid vs spec-defined sweep")

message(STATUS
  "spec-defined sweep is byte-identical to the compiled grid, serial and "
  "LPT-sharded")
