# Acceptance check for the tower topology: the checked-in tower smoke spec
# (64 churning users per cell) must pass `sweep list`, and a 2-shard
# multi-PROCESS run must merge byte-identical to the single-process run —
# per-user channels, the PF schedule, Poisson churn and the streaming
# population histograms all reproduced exactly.
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

sweep_roundtrip(2 --spec ${SPECS}/tower_smoke.json)
# The expanded cells name the tower's user mix, never "?".
if(NOT LISTED MATCHES "tower, 64 users: Cubic 3, Sprout 1" OR
   LISTED MATCHES "[?]")
  message(FATAL_ERROR "sweep list --expand does not name the mix:\n${LISTED}")
endif()

message(STATUS "2-shard tower merge is byte-identical to the single-process sweep")
