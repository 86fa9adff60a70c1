# Shared plumbing for the cmake/*_roundtrip.cmake acceptance scripts.  Each
# runs as a ctest (label `roundtrip`) through add_roundtrip_test in the root
# CMakeLists.txt, which passes:
#   -DSWEEP=<sweep>  -DSWEEP_REPORT=<sweep_report>  -DTRACE_SYNTH=<trace_synth>
#   -DSPECS=<repo specs/>  -DWORK_DIR=<work dir>
# Every step runs in WORK_DIR, which is emptied first and left behind for
# inspection (CI uploads it).
foreach(var SWEEP SWEEP_REPORT TRACE_SYNTH SPECS WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "roundtrip script needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# run_expect(RC TOOL ARGS...): the tool must exit with exactly RC — the
# sweep CLI's halted (4) and poisoned (3) outcomes are contracts, not
# failures.  Leaves the tool's stdout and stderr in STDOUT and STDERR.
function(run_expect expected tool)
  execute_process(COMMAND ${tool} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR
      "${tool} ${ARGN} exited ${rc}, expected ${expected}:\n${out}\n${err}")
  endif()
  set(STDOUT "${out}" PARENT_SCOPE)
  set(STDERR "${err}" PARENT_SCOPE)
endfunction()

function(run_tool tool)
  run_expect(0 ${tool} ${ARGN})
endfunction()

# run_rejects(RC PATTERN TOOL ARGS...): the tool must exit RC with a
# diagnostic matching PATTERN on stderr.
function(run_rejects expected pattern tool)
  run_expect(${expected} ${tool} ${ARGN})
  if(NOT STDERR MATCHES "${pattern}")
    message(FATAL_ERROR
      "${tool} ${ARGN}: diagnostic does not match \"${pattern}\":\n${STDERR}")
  endif()
endfunction()

function(require_same a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/${a} ${WORK_DIR}/${b}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
      "${what}: ${WORK_DIR}/${a} differs from ${WORK_DIR}/${b}")
  endif()
endfunction()

# sweep_roundtrip(N --spec FILE [FLAGS...]): checks the spec with
# `sweep list` (per-cell table, LPT cut and wall-clock estimate included;
# its stdout is left in LISTED), runs it as one process (full.json) and as
# N shard processes (shard<i>.journal.jsonl, the grid's LPT cut), checks
# with `sweep status` that the journals cover the grid, merges them —
# verified against the grid — into merged.json, and requires it
# byte-identical to full.json.
function(sweep_roundtrip shards)
  run_expect(0 ${SWEEP} list ${ARGN} --expand --shards ${shards} --wall-clock)
  set(LISTED "${STDOUT}" PARENT_SCOPE)
  run_tool(${SWEEP} run ${ARGN} --out full.json)
  set(parts)
  foreach(i RANGE 1 ${shards})
    run_tool(${SWEEP} run ${ARGN} --shard ${i}/${shards}
      --out shard${i}.journal.jsonl)
    list(APPEND parts shard${i}.journal.jsonl)
  endforeach()
  run_expect(0 ${SWEEP} status ${ARGN} ${parts})
  if(NOT STDOUT MATCHES " 0 remaining")
    message(FATAL_ERROR "shard journals do not cover the grid:\n${STDOUT}")
  endif()
  run_tool(${SWEEP} merge ${ARGN} --out merged.json ${parts})
  require_same(merged.json full.json
    "${shards}-shard merge vs single-process run")
endfunction()

# Flag checks: each bad invocation exits 2 (usage) naming the flag.
function(require_usage_errors)
  set(smoke --spec ${SPECS}/coexistence_smoke.json --out bad.json)
  run_rejects(2 "--workers: " ${SWEEP} run --workers 0)
  run_rejects(2 "--workers: " ${SWEEP} run --workers 4x)
  run_rejects(2 "--expand: " ${SWEEP} run ${smoke} --expand)
  run_rejects(2 "--shard: .*--journal-dir"
    ${SWEEP} run --shard 1/2 --journal-dir d)
  run_rejects(2 "--shard: shard 5 of 3" ${SWEEP} run ${smoke} --shard 5/3)
  run_rejects(2 "--cells: cell 9 outside" ${SWEEP} run ${smoke} --cells 9)
  run_rejects(2 "--cells: cell 1 listed twice"
    ${SWEEP} run ${smoke} --cells 1,1)
  run_rejects(2 "strip: " ${SWEEP_REPORT} strip bogus a b)
endfunction()
