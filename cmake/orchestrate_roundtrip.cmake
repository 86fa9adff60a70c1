# Acceptance check for the fault-tolerant orchestrator (sweep run
# --journal-dir): a run killed mid-flight (--halt-after SIGKILLs every
# worker, the same wound as kill -9 of the job tree) must resume from its
# journals byte-identical to the single-process run; `sweep merge` must
# accept the journals as they stand, with the same bytes; a static slice
# (`sweep run --cells`) dropped into a journal directory must count as
# done when the orchestrator resumes it; and a cell that crashes its
# worker on every attempt must land on the poison list (exit 3) without
# sinking the sweep — resuming after the "fix" completes it.
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

# --- orchestrator journals are merge input as they stand -----------------
file(GLOB journals RELATIVE ${WORK_DIR} ${WORK_DIR}/jkill/shard_*.journal.jsonl)
run_tool(${SWEEP} merge ${SPEC} --out remerged.json ${journals})
require_same(remerged.json full.json
  "orchestrator journals merged vs single-process run")

# --- a static slice resumes under the orchestrator -----------------------
file(MAKE_DIRECTORY ${WORK_DIR}/jmix)
run_tool(${SWEEP} run ${SPEC} --cells 0,2 --out jmix/shard_9.journal.jsonl)
run_expect(0 ${SWEEP} run ${SPEC} --journal-dir jmix --out mixed.json
  --workers 2 --quiet)
if(NOT STDOUT MATCHES "2 resumed, 2 executed")
  message(FATAL_ERROR
    "orchestrator did not resume the static slice:\n${STDOUT}")
endif()
require_same(mixed.json full.json
  "static slice resumed by the orchestrator vs single-process run")

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

message(STATUS "orchestrated (killed + resumed, merged from journals, "
  "resumed from a static slice, poisoned + resumed) sweeps are "
  "byte-identical to the single-process run")
