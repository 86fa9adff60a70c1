# Acceptance check for the flight recorder: the timeline is a pure
# observer.  With --timeline on, serial == thread pool == two shards
# merged, bitwise; the timelines pass the strict schema gate (which must
# reject a corrupted feed, naming the timeline path), render and export;
# and `sweep_report strip timeline` reduces every timeline-on sweep —
# coexistence and tower alike — to the recorder-off bytes exactly.
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

set(SPEC --spec ${SPECS}/coexistence_smoke.json)
set(TOWER --spec ${SPECS}/tower_smoke.json)
run_tool(${SWEEP} run ${SPEC} --out off.json --workers 1)

run_tool(${SWEEP} run ${SPEC} --out on_serial.json --workers 1 --timeline)
run_tool(${SWEEP} run ${SPEC} --out on_pool.json --workers 4 --timeline)
foreach(i RANGE 1 2)
  run_tool(${SWEEP} run ${SPEC} --out shard${i}.journal.jsonl
    --shard ${i}/2 --timeline)
endforeach()
run_tool(${SWEEP} merge --out on_merged.json
  shard1.journal.jsonl shard2.journal.jsonl)
require_same(on_pool.json on_serial.json
  "timeline-on thread-pool sweep vs serial sweep")
require_same(on_merged.json on_serial.json
  "timeline-on two-shard merge vs serial sweep")

run_tool(${SWEEP_REPORT} validate timeline on_serial.json)
run_tool(${SWEEP_REPORT} strip timeline on_serial.json stripped.json)
require_same(stripped.json off.json
  "timeline-stripped sweep vs recorder-off sweep")

# Corrupt one geometry field: the gate must reject it, naming the path.
file(READ ${WORK_DIR}/on_serial.json good_text)
string(REPLACE "\"bin_s\": 0.5" "\"bin_s\": -1" bad_text "${good_text}")
if(bad_text STREQUAL good_text)
  message(FATAL_ERROR "corruption probe matched nothing in on_serial.json")
endif()
file(WRITE ${WORK_DIR}/corrupt.json "${bad_text}")
run_rejects(1 "timeline" ${SWEEP_REPORT} validate timeline corrupt.json)

# Tower grid: recorded, validated, rendered, exported and stripped under the
# same contract.
run_tool(${SWEEP} run ${TOWER} --out tower_off.json --workers 2)
run_tool(${SWEEP} run ${TOWER} --out tower_on.json --workers 2 --timeline)
run_tool(${SWEEP_REPORT} validate timeline tower_on.json)
run_expect(0 ${SWEEP_REPORT} chart tower_on.json)
file(WRITE ${WORK_DIR}/timeline_chart.txt "${STDOUT}")
run_tool(${SWEEP_REPORT} export tower_on.json --out timeline.jsonl)
run_tool(${SWEEP_REPORT} export tower_on.json --out timeline.csv
  --format csv --cell 0)
run_tool(${SWEEP_REPORT} export-trace tower_on.json --out timeline_trace.json)
run_tool(${SWEEP_REPORT} strip timeline tower_on.json tower_stripped.json)
require_same(tower_stripped.json tower_off.json
  "timeline-stripped tower sweep vs recorder-off tower sweep")

message(STATUS "flight recorder leaves every sweep byte-identical: "
  "serial == pool == merged with timelines on, off == stripped on every "
  "topology")
