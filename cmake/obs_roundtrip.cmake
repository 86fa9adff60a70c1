# Acceptance check for the observability layer: instrumentation must never
# perturb results.  The same grid is swept plain, with SPROUT_OBS=1
# (hot-path counting on), and orchestrated with --metrics-out/--trace-out
# (runtime stamping on); the first two must be byte-identical outright,
# the third after `sweep_report strip runtime`.  The telemetry files must
# pass the strict validators and render.
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

set(SPEC --spec ${SPECS}/coexistence_smoke.json)
set(OBS_ON ${CMAKE_COMMAND} -E env SPROUT_OBS=1)
run_tool(${SWEEP} run ${SPEC} --out plain.json)

run_tool(${OBS_ON} ${SWEEP} run ${SPEC} --out obs_on.json)
require_same(obs_on.json plain.json
  "SPROUT_OBS=1 sweep vs untelemetered sweep")

run_tool(${OBS_ON} ${SWEEP} run ${SPEC} --journal-dir jobs
  --out orch_obs.json --workers 2 --quiet
  --metrics-out metrics.jsonl --trace-out trace.json)
run_tool(${SWEEP_REPORT} validate metrics metrics.jsonl)
run_tool(${SWEEP_REPORT} validate trace trace.json)
run_tool(${SWEEP_REPORT} metrics metrics.jsonl)
run_tool(${SWEEP_REPORT} runtime orch_obs.json)
run_tool(${SWEEP_REPORT} strip runtime orch_obs.json orch_stripped.json)
require_same(orch_stripped.json plain.json
  "runtime-stripped telemetered orchestration vs untelemetered sweep")

message(STATUS "observability leaves every sweep byte-identical: "
  "SPROUT_OBS=1 outright, --metrics-out after strip runtime")
