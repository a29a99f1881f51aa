"""Benchmark runner for twoslit.

    python3 bench/run.py --workload sweep|wide|roundtrip|analyse --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  Each workload runs in a child process (bench/worker.py) acting as
one closed-loop client, with the BLAS/OpenMP thread count pinned to
THREADS.  With --trace 0 the runner first starts SETUP_SAMPLES - 1
processes that only set up, then the measured one, and reports the median
set-up time with the measured run's throughput and peak memory.  With
--trace 1 it runs only the measured process, with spans around the
program's public functions, and reports the per-layer figures.

Prints each metric by name with its unit, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits
non-zero without that line when the program cannot be run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "wide", "roundtrip", "analyse")
THREADS = 1  # BLAS/OpenMP threads: the measured work stays on one core
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 15
RUN_TIMEOUT_S = 100  # with four set-ups, the whole run ends within 160 s

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
         "family3.build_ms": "ms", "family4.derive_coefficients_ms": "ms",
         "family4.core_projectors_ms": "ms", "family4.state_ms": "ms",
         "family4.build_ms": "ms", "space.lift_ms": "ms", "space.lifted_bytes": "B",
         "verify.verify_bundle_ms": "ms", "verify.check3_ms": "ms", "verify.check4_ms": "ms",
         "verify.detect_correlations_ms": "ms", "verify.preconditions_ms": "ms",
         "jsonio.bundle_to_json_ms": "ms", "jsonio.read_json_ms": "ms",
         "jsonio.bundle_from_json_ms": "ms", "jsonio.bundle_bytes": "B",
         "cli.generate_ms": "ms", "cli.verify_ms": "ms", "cli.self_ms": "ms",
         "solver.assemble_ms": "ms", "solver.solve_ms": "ms",
         "solver.filter_projectors_ms": "ms", "solver.draws_per_s": "1/s",
         "solver.survivors": "count", "solver.survivor_ratio": "ratio",
         "simulate.exact_joint_ms": "ms", "simulate.run_ms": "ms",
         "simulate.samples_per_s": "1/s", "simulate.sample_bytes": "B"}


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("PYTHONPATH", None)
    return env


def _run_worker(args, setup_only, timeout):
    """Start worker.py; return (its JSON result, seconds from start to its first op)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} worker did not finish within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["first_op_at"] - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twoslit" / "__init__.py").is_file():
        print(f"error: no twoslit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_worker(args, True, SETUP_TIMEOUT_S)[1])
        result, setup = _run_worker(args, False, RUN_TIMEOUT_S)
        setups.append(setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  threads {THREADS}  nproc {os.cpu_count()}  "
          f"numpy {result['numpy']}  blas {result['blas']}")
    if args.trace:
        metrics = result["per_layer"]
        print(f"traced ops_per_s {result['ops_per_s']:.4f} 1/s  spans in {result['trace_file']}")
    else:
        metrics = {"setup_s": statistics.median(setups), "ops_per_s": result["ops_per_s"],
                   "peak_rss_mb": result["peak_rss_mb"]}
        print("set-up samples " + " ".join(f"{s:.4f}" for s in setups) + " s")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {UNITS[name]}")
    correct = result["problem_count"] == 0
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {correct}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": value, "unit": UNITS[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
