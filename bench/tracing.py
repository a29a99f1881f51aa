"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces every attribute of a loaded twoslit module
that resolves to a traced function -- twoslit.cli.verify_bundle,
twoslit.family4.lift_left, twoslit.verify.check4 and so on -- with a
wrapper that records a span: name, start, end and the index of the span
it ran inside.  Spans stay in memory; ``write`` stores them once, at the
end of a run.  A span's self time is its duration minus the durations of
its children.
"""

import json
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

# (span name, module, function); one span name may cover several functions.
TRACED = (
    ("family3.build", "family3", "build"),
    ("family4.build", "family4", "build"),
    ("family4.derive_coefficients", "family4", "derive_coefficients"),
    ("family4.core_projectors", "family4", "core_projectors"),
    ("family4.state", "family4", "state"),
    ("space.lift", "space", "lift_left"),
    ("space.lift", "space", "lift_right"),
    ("verify.verify_bundle", "verify", "verify_bundle"),
    ("verify.check3", "verify", "check3"),
    ("verify.check4", "verify", "check4"),
    ("verify.detect_correlations", "verify", "detect_correlations"),
    ("jsonio.bundle_to_json", "jsonio", "bundle_to_json"),
    ("jsonio.read_json", "jsonio", "read_json"),
    ("jsonio.bundle_from_json", "jsonio", "bundle_from_json"),
    ("cli.main", "cli", "main"),
    ("cli.generate", "cli", "cmd_generate3"),
    ("cli.generate", "cli", "cmd_generate4"),
    ("cli.verify", "cli", "cmd_verify"),
    ("solver.assemble", "solver", "assemble"),
    ("solver.solve", "solver", "solve"),
    ("solver.filter_projectors", "solver", "filter_projectors"),
    ("simulate.exact_joint", "simulate", "exact_joint"),
    ("simulate.run", "simulate", "run"),
)

# Per-layer metric -> span whose total time per op it reports.
TIME_METRICS = {
    "family3.build_ms": "family3.build",
    "family4.derive_coefficients_ms": "family4.derive_coefficients",
    "family4.core_projectors_ms": "family4.core_projectors",
    "family4.state_ms": "family4.state",
    "family4.build_ms": "family4.build",
    "space.lift_ms": "space.lift",
    "verify.verify_bundle_ms": "verify.verify_bundle",
    "verify.check3_ms": "verify.check3",
    "verify.check4_ms": "verify.check4",
    "verify.detect_correlations_ms": "verify.detect_correlations",
    "jsonio.bundle_to_json_ms": "jsonio.bundle_to_json",
    "jsonio.read_json_ms": "jsonio.read_json",
    "jsonio.bundle_from_json_ms": "jsonio.bundle_from_json",
    "cli.generate_ms": "cli.generate",
    "cli.verify_ms": "cli.verify",
    "solver.assemble_ms": "solver.assemble",
    "solver.solve_ms": "solver.solve",
    "solver.filter_projectors_ms": "solver.filter_projectors",
    "simulate.exact_joint_ms": "simulate.exact_joint",
    "simulate.run_ms": "simulate.run",
}


def _lifted(tracer, args, kwargs, result):
    tracer.counts["space.lifted_bytes"] += result.nbytes


def _generated(tracer, args, kwargs, result):
    tracer.counts["jsonio.bundle_bytes"] += os.path.getsize(args[0].out)


def _filtered(tracer, args, kwargs, result):
    tracer.counts["solver.draws"] += int(kwargs["draws"]) + len(kwargs.get("candidates", ()))
    tracer.counts["solver.survivors"] += len(result)


def _sampled(tracer, args, kwargs, result):
    tracer.counts["simulate.samples"] += args[0].samples


def _peak_memory(tracer, fn):
    """fn, recording the peak bytes numpy and Python allocate while it runs."""
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.counts["simulate.sample_bytes"] = max(tracer.counts["simulate.sample_bytes"],
                                                         peak)
    return measured


AFTER = {"space.lift": _lifted, "cli.generate": _generated,
         "solver.filter_projectors": _filtered, "simulate.run": _sampled}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._replaced = []

    def _wrap(self, name, fn):
        spans, stack, after = self.spans, self._stack, AFTER.get(name)
        if name == "simulate.run":
            fn = _peak_memory(self, fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Route every twoslit module attribute bound to a traced function
        through its span wrapper."""
        modules = [m for n, m in sys.modules.items() if n == "twoslit" or n.startswith("twoslit.")]
        for name, module, attr in TRACED:
            fn = getattr(sys.modules[f"twoslit.{module}"], attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._replaced.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._replaced):
            setattr(mod, key, fn)
        self._replaced.clear()

    def per_layer(self, ops):
        """Per-layer metrics for ``ops`` completed ops.

        Times are milliseconds per op spent inside the layer (0 when the
        workload never calls it); bytes and survivors are per op.
        """
        total, self_time = defaultdict(float), defaultdict(float)
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, children):
            self_time[name] += end - start - child
        c = self.counts
        per_op_ms = 1000.0 / ops
        out = {metric: total[span] * per_op_ms for metric, span in TIME_METRICS.items()}
        out["verify.preconditions_ms"] = self_time["verify.verify_bundle"] * per_op_ms
        out["cli.self_ms"] = (self_time["cli.main"] + self_time["cli.generate"]
                              + self_time["cli.verify"]) * per_op_ms
        out["space.lifted_bytes"] = c["space.lifted_bytes"] / ops
        out["jsonio.bundle_bytes"] = c["jsonio.bundle_bytes"] / ops
        filtering = total["solver.filter_projectors"]
        out["solver.draws_per_s"] = c["solver.draws"] / filtering if filtering else 0.0
        out["solver.survivors"] = c["solver.survivors"] / ops
        out["solver.survivor_ratio"] = (c["solver.survivors"] / c["solver.draws"]
                                        if c["solver.draws"] else 0.0)
        sampling = total["simulate.run"]
        out["simulate.samples_per_s"] = c["simulate.samples"] / sampling if sampling else 0.0
        out["simulate.sample_bytes"] = c["simulate.sample_bytes"]
        return out

    def write(self, path, **header):
        with open(path, "w") as fh:
            json.dump(dict(header, counts=dict(self.counts), spans=self.spans), fh)
