"""One benchmark process: set up a workload, time its ops, check the outputs.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts this script with the BLAS/OpenMP thread count pinned.  Set-up
covers imports, input generation, temporary files and one warm-up op;
``first_op_at`` (time.monotonic, comparable across processes) marks its end,
when the warm-up op returns and timed ops could start.  The benchmark's own
check of the warm-up output runs after that mark.
With --setup-only the process stops after that check.  Otherwise it repeats whole
rounds of ops until the ops themselves have taken --seconds, checking each
output outside the timed region, and prints one JSON object as its last
line.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def _peak_rss_mb():
    """High-water resident set size of this process (VmHWM), in MB.

    Unlike ru_maxrss, VmHWM belongs to this process's own address space and
    does not inherit the parent's high-water mark across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import twoslit
    if Path(twoslit.__file__).resolve().parent != (SRC / "twoslit").resolve():
        sys.exit(f"twoslit was imported from {twoslit.__file__}, not from {SRC}")
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), str(OUT))
    try:
        warm = workload.op(workload.round[0])
        result = {"first_op_at": time.monotonic()}
        problems = [] if workload.passed(warm) else ["warm-up op failed"]
        problems += workload.check(workload.round[0], warm)
        digests = {0: workload.digest(workload.round[0], warm)}
        del warm
        if not args.setup_only:
            result.update(_measure(workload, args, problems, digests))
    finally:
        workload.close()
    result.update(peak_rss_mb=_peak_rss_mb(), numpy=np.__version__, blas=_blas())
    print(json.dumps(result))


def _measure(workload, args, problems, digests):
    """Repeat whole rounds until the ops have taken args.seconds.

    Each input's output is checked in full the first time; in later rounds
    it must hash to the same digest, since the program is deterministic.
    """
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    busy = 0.0
    attempted = failed = 0
    rounds = []
    while busy < args.seconds:
        round_busy = 0.0
        for index, item in enumerate(workload.round):
            start = time.perf_counter()
            try:
                out = workload.op(item)
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            round_busy += time.perf_counter() - start
            attempted += 1
            if isinstance(out, Exception) or not workload.passed(out):
                failed += 1
                if failed == 1:
                    print(f"failed op on {args.workload}: {out!r}", file=sys.stderr)
                continue
            digest = workload.digest(item, out)
            if index not in digests:
                digests[index] = digest
                problems += [f"input {index}: {p}" for p in workload.check(item, out)]
            elif digest != digests[index]:
                problems.append(f"op {index} of the round gave another output than before")
        busy += round_busy
        rounds.append(round_busy)
    completed = attempted - failed
    result = {"attempted": attempted, "failed": failed, "busy_s": busy,
              "ops_per_s": completed / busy, "problems": problems[:20],
              "problem_count": len(problems), "rounds": rounds}
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.per_layer(max(completed, 1))
        trace_path = OUT / f"trace-{args.workload}.json"
        tracer.write(trace_path, workload=args.workload, seed=args.seed, ops=completed)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


if __name__ == "__main__":
    main()
