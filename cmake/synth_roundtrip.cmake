# Acceptance check for the channel-synthesis subsystem: a sweep whose
# channels exist ONLY as synth parameters in the checked-in spec (no trace
# on disk) must lint clean and be byte-identical between one process and a
# 2-way sharded run; trace_synth itself must be deterministic.
include(${CMAKE_CURRENT_LIST_DIR}/roundtrip_common.cmake)

run_tool(${TRACE_SYNTH} --model markov --duration 30 --seed 9
  --out mmpp_a.tr --plot)
run_tool(${TRACE_SYNTH} --model markov --duration 30 --seed 9
  --out mmpp_b.tr)
require_same(mmpp_a.tr mmpp_b.tr
  "trace_synth output for identical inputs")

sweep_roundtrip(2 --spec ${SPECS}/synth_smoke.json)

message(STATUS
  "synth spec sweep is byte-identical single-process and sharded; "
  "trace_synth is deterministic")
