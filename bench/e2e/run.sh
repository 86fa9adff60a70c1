#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs every workload twice, each time
# in a fresh process: untraced (the end-to-end metrics), then traced (the
# per-layer split and a Chrome trace).  Fails when the two runs of a
# workload disagree on the result digest or any cell fails its check.
# Prints every metric as `workload name value unit` and writes all runs to
# one results JSON.
#
#   bench/e2e/run.sh [--seed S] [--out DIR]
#
#   --seed  overrides every workload's base_seed (default: the workloads'
#           own seeds, whose outputs are also checked against expected/)
#   --out   directory for results.json, the per-run files and the Chrome
#           traces (default: .bench_build/e2e/results)
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/e2e"
out="$build/results"
seed_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed_args=(--seed "${2:?--seed needs a value}"); shift 2 ;;
    --out) out="${2:?--out needs a value}"; shift 2 ;;
    *) echo "usage: $0 [--seed S] [--out DIR]" >&2; exit 2 ;;
  esac
done

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build" --target perf_e2e -j "$(nproc)" >/dev/null
mkdir -p "$out"
# Stamped into every results file; the checkout may not be a git repository.
PERF_E2E_GIT_SHA=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERF_E2E_GIT_SHA

digest() {  # digest <results file> <key>
  grep -o "\"$2\": \"[0-9a-f]*\"" "$1" | cut -d'"' -f4
}

status=0
files=()
for w in paper_cells shared_queue tower_1000 sweep_grid; do
  for mode in untraced traced; do
    flags=()
    [[ $mode == traced ]] && flags=(--traced)
    file="$out/$w.$mode.json"
    rm -f "$file"
    "$build/perf_e2e" --workload "$w" ${seed_args[@]+"${seed_args[@]}"} \
      ${flags[@]+"${flags[@]}"} --out "$file" || status=1
    [[ -f $file ]] && files+=("$file")
  done
  untraced=$(digest "$out/$w.untraced.json" digest 2>/dev/null || true)
  traced=$(digest "$out/$w.traced.json" traced_digest 2>/dev/null || true)
  if [[ -z $untraced || $untraced != "$traced" ]]; then
    echo "$w: untraced digest '$untraced' != traced digest '$traced'" >&2
    status=1
  fi
done

{
  echo '{"runs": ['
  sep=
  for f in "${files[@]}"; do
    printf '%s' "$sep"
    cat "$f"
    sep=','
  done
  echo ']}'
} >"$out/results.json"
echo "wrote $out/results.json" >&2
exit "$status"
