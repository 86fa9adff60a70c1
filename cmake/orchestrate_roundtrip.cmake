# Acceptance check for the fault-tolerant orchestrator (sweep run
# --journal-dir): a run killed mid-flight (--halt-after SIGKILLs every
# worker, the same wound as kill -9 of the job tree) must resume from its
# journals byte-identical to the single-process run; the journals must
# export into shard files `sweep merge` accepts with the same bytes; and a
# cell that crashes its worker on every attempt must land on the poison
# list (exit 3) without sinking the sweep — resuming after the "fix"
# completes it.
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

set(SPEC --spec ${SPECS}/coexistence_smoke.json)
run_tool(${SWEEP} run ${SPEC} --out full.json)

# --- kill mid-run, resume ------------------------------------------------
run_expect(4 ${SWEEP} run ${SPEC} --journal-dir jkill --out orch.json
  --workers 2 --halt-after 2 --quiet)
run_tool(${SWEEP} status ${SPEC} --journal-dir jkill)
run_tool(${SWEEP} run ${SPEC} --journal-dir jkill --out orch.json
  --workers 2 --quiet)
require_same(orch.json full.json
  "killed + resumed orchestrated sweep vs single-process run")

# --- journals replay through the plain shard merge -----------------------
run_tool(${SWEEP} export ${SPEC} --journal-dir jkill --out-prefix exported_)
file(GLOB exported RELATIVE ${WORK_DIR} ${WORK_DIR}/exported_*.json)
run_tool(${SWEEP} merge ${SPEC} --out remerged.json ${exported})
require_same(remerged.json full.json
  "journal-exported shards merged vs single-process run")

# --- poison path ---------------------------------------------------------
run_expect(3 ${SWEEP} run ${SPEC} --journal-dir jpoison --out poisoned.json
  --workers 2 --crash-cell 0 --max-attempts 2 --retry-backoff 0.05
  --poison-report poison.json --quiet)
file(READ ${WORK_DIR}/poison.json poison_report)
if(NOT poison_report MATCHES "\"index\": 0")
  message(FATAL_ERROR
    "poison report does not name the crashed cell:\n${poison_report}")
endif()
run_tool(${SWEEP} run ${SPEC} --journal-dir jpoison --out poisoned.json
  --workers 2 --quiet)
require_same(poisoned.json full.json
  "post-poison resumed sweep vs single-process run")

message(STATUS "orchestrated (killed + resumed, exported, poisoned + "
  "resumed) sweeps are byte-identical to the single-process run")
