# Acceptance check for sharded sweeps: a 3-shard multi-PROCESS run of the
# deliberately unbalanced mixed-duration spec must merge into a sweep file
# byte-identical to the single-process run's.  Also holds the sweep CLIs'
# flag checks.
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

require_usage_errors()
sweep_roundtrip(3 --spec ${SPECS}/mixed_duration.json)

message(STATUS "3-shard merge is byte-identical to the single-process sweep")
