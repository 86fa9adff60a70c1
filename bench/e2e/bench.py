#!/usr/bin/env python3
"""One benchmark run of one workload, for automated comparison of commits.

    python3 bench/e2e/bench.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench/e2e/perf_e2e from this checkout (CMake, Release, into
.bench_build/e2e), runs the workload in a fresh process, and prints as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (sim_s_per_wall_s,
setup_s, peak_rss_mb, passed_cell_frac); with --trace 1 they are the
per-layer split of the traced run.  Everything else (build logs, the
harness's own report) goes to stderr.  Exits non-zero without a result when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ("paper_cells", "shared_queue", "tower_1000", "sweep_grid")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perf_e2e; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perf_e2e",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return BUILD / "perf_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"bench.py: build failed: {e}", file=sys.stderr)
        return 1

    mode = "traced" if args.trace else "untraced"
    out = BUILD / "results" / f"{args.workload}-{args.seed}-{mode}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out)]
    if args.trace:
        cmd.append("--traced")
    try:
        # perf_e2e exits 1 when a cell fails its check; its results file
        # still says which, so only a missing file means the run failed.
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
        results = json.loads(out.read_text())
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"bench.py: {args.workload} produced no results: {e}",
              file=sys.stderr)
        return 1

    metrics = results["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": results["correct"],
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
