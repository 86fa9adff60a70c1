# Acceptance check for the observability layer: instrumentation must never
# perturb results.  The same grid is swept plain, with SPROUT_OBS=1
# (hot-path counting on), and orchestrated with --metrics-out/--trace-out
# (runtime stamping on); the first two must be byte-identical outright,
# the third after `sweep_report strip runtime`.  The telemetry files must
# pass the strict validators and render, and a corrupt feed must not.
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

# A corrupt integer in the feed is rejected, naming its file and line,
# never cast or used as a size: each probe rewrites every match of
# PATTERN, and the first rewritten record is the line both readers name.
function(reject_corrupt_feed name pattern replacement)
  file(READ ${WORK_DIR}/metrics.jsonl good_text)
  string(REGEX REPLACE "${pattern}" "${replacement}" bad_text "${good_text}")
  if(bad_text STREQUAL good_text)
    message(FATAL_ERROR "${name}: probe matched nothing in metrics.jsonl")
  endif()
  file(WRITE ${WORK_DIR}/${name}.jsonl "${bad_text}")
  string(REGEX MATCH "${pattern}" first "${good_text}")
  string(FIND "${good_text}" "${first}" at)
  string(SUBSTRING "${good_text}" 0 ${at} head)
  string(REGEX MATCHALL "\n" newlines "${head}")
  list(LENGTH newlines line)
  math(EXPR line "${line} + 1")
  foreach(command "validate;metrics" "metrics")
    run_rejects(1 "${name}.jsonl:${line}: " ${SWEEP_REPORT} ${command}
      ${name}.jsonl)
  endforeach()
endfunction()
reject_corrupt_feed(attempt_1e30 "(\"attempt\": )[0-9]+" "\\11e30")
reject_corrupt_feed(worker_negative "(\"worker\": )[0-9]+" "\\1-1")
reject_corrupt_feed(counter_1e30 "(\"counters\": {\"[^\"]+\": )[0-9]+"
  "\\11e30")

message(STATUS "observability leaves every sweep byte-identical: "
  "SPROUT_OBS=1 outright, --metrics-out after strip runtime")
