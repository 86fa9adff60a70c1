# Acceptance check for declarative experiment specs: a sweep defined ONLY
# by the checked-in JSON spec must lint clean and produce byte-identical
# results as one process and as an LPT-sharded 3-process run.
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

sweep_roundtrip(3 --spec ${SPECS}/coexistence_smoke.json)

message(STATUS
  "spec-defined sweep is byte-identical serial and LPT-sharded")
