"""Command-line interface.

Subcommands: generate3, generate4 (closed-form families), verify (check a
bundle file), reproduce (regenerate a built-in fixture and diff it),
solve (closed-form solution sets, projector search) and simulate (seeded
sampling).

Exit codes: 0 success with all verifications passing, 1 a verification or
reproduction failed (the report is still emitted), 2 a usage error or a
TwoSlitError or OSError (bad input); any other exception is a bug and
propagates.  JSON goes to stdout unless --out is given.  The equality
tolerance (finite, >= 0) defaults to 1e-12, overridden per call by --tol
or globally by the TWOSLIT_TOL environment variable.  solve checks its
residuals against 1e-10 and simulate checks nothing; neither takes --tol.

The argument parser is built once per process, on the first call of
``main``, and reused by later calls.  Each call parses into a fresh
namespace and looks up ``cmd_<subcommand>``, and everything that function
calls, when it runs, so a module attribute replaced after the parser was
built (a test's monkeypatch, a tracing wrapper) is the one called.
"""

import argparse
import functools
import sys

import numpy as np

from . import family3, family4, jsonio, solver
from .errors import TwoSlitError
from .fixtures import fixture, fixture_names
from .simulate import ExperimentSpec, run as run_experiment
from .space import slit_projector
from .verify import verify_bundle


def _emit(args, obj, as_text=None):
    texts = (as_text,) if as_text is not None else (jsonio.dumps(obj), "\n")
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def _report_payload(report):
    payload = report.to_dict()
    payload["failing"] = report.failing()
    return payload


def _generate(args, family, params_class, default_fixture):
    if args.params:
        params = jsonio.params_from_json(params_class, jsonio.read_json(args.params))
    else:
        params = fixture(default_fixture).params
    bundle = family.build(params)
    report = verify_bundle(bundle, tol=args.tol)
    _emit(args, {"bundle": jsonio.bundle_to_wire(bundle), "report": _report_payload(report)})
    return 0 if report.passed else 1


def cmd_generate3(args):
    return _generate(args, family3, family3.Family3Params, "spin32")


def cmd_generate4(args):
    return _generate(args, family4, family4.Family4Params, "dim10")


def cmd_verify(args):
    payload = jsonio.read_json(args.bundle)
    if isinstance(payload, dict) and "bundle" in payload and "space" not in payload:
        payload = payload["bundle"]  # accept generate*/reproduce output directly
    bundle = jsonio.bundle_from_json(payload)
    report = verify_bundle(bundle, tol=args.tol)
    if args.format == "csv":
        _emit(args, None, as_text=jsonio.report_to_csv(report))
    else:
        _emit(args, _report_payload(report))
    return 0 if report.passed else 1


def cmd_reproduce(args):
    fx = fixture(args.fixture)
    bundle = (family3 if fx.space.mode == 3 else family4).build(fx.params)
    diffs = {name: float(np.max(np.abs(getattr(bundle, name) - expected)))
             for name, expected in fx.cores.items()}
    diffs["psi"] = float(np.max(np.abs(bundle.psi - fx.psi)))
    report = verify_bundle(bundle, tol=args.tol)
    ok = report.passed and all(v <= report.tol for v in diffs.values())
    _emit(args, {"fixture": args.fixture, "max_abs_diff": diffs,
                 "reproduced": ok, "report": _report_payload(report)})
    return 0 if ok else 1


def _state_files(args, usage):
    """The space and state in --space and --psi; ``usage`` unless both are given."""
    if not (args.psi and args.space):
        raise TwoSlitError(usage)
    return (jsonio.space_from_json(jsonio.read_json(args.space)),
            jsonio.vector_from_json(jsonio.read_json(args.psi)))


def _solver_inputs(args):
    if args.fixture:
        fx = fixture(args.fixture)
        return fx.space, fx.psi, fx.cores
    sp, psi = _state_files(args, "solve needs either --fixture or both --psi and --space")
    return sp, psi, {}


def cmd_solve(args):
    sp, psi, cores = _solver_inputs(args)
    cs = solver.assemble(slit_projector(sp), psi, sp)
    out = {"mode": cs.mode, "degenerate": cs.degenerate, "targets": []}
    worst = 0.0
    for sol in solver.solve(cs):
        entry = {"name": sol.name, "exists": sol.exists,
                 "orthogonality_residual": sol.orthogonality_residual,
                 "residual": sol.residual, "free_dim": sol.free_dim, "nullity": sol.nullity,
                 "rank_range": list(sol.rank_range)}
        core_name = f"{sol.name}_I"
        if core_name in cores:
            entry["fixture_residual"] = cs.tracking_residual(sol.name, cores[core_name])
            worst = np.max([worst, entry["fixture_residual"]])
        if not args.no_filter:
            cands = [cores[core_name]] if core_name in cores else []
            members = solver.filter_projectors(sol, sp, draws=args.draws, seed=args.seed,
                                               candidates=cands)
            entry["projectors_found"] = len(members)
            entry["projector_traces"] = [round(float(np.trace(m).real), 9) for m in members]
            if core_name in cores and members:
                entry["fixture_recovery_dist"] = float(min(
                    np.max(np.abs(m - cores[core_name])) for m in members))
        out["targets"].append(entry)
        worst = np.max([worst, sol.residual, sol.orthogonality_residual])
    _emit(args, out)
    return 0 if worst <= 1e-10 else 1


def cmd_simulate(args):
    if args.psi or args.space:
        sp, psi = _state_files(args, "simulate needs both --psi and --space, or neither")
    else:
        fx = fixture(args.fixture)
        sp, psi = fx.space, fx.psi
    tally = run_experiment(ExperimentSpec(psi=psi, space=sp, samples=args.samples,
                                          seed=args.seed), shards=args.shards)
    if args.format == "csv":
        lines = ["slit_bit,block,exact,count,empirical,stderr"]
        for e in (0, 1):
            for i in range(tally.exact.shape[1]):
                lines.append(f"{e},{i + 1},{tally.exact[e, i]:.12g},{tally.counts[e, i]},"
                             f"{tally.empirical[e, i]:.12g},{tally.stderr[e, i]:.12g}")
        _emit(args, None, as_text="\n".join(lines) + "\n")
        return 0
    payload = tally.to_dict()
    payload["p_T"] = tally.p_detector("T")
    payload["p_slit_given_T"] = tally.p_slit_given_detector("T")
    _emit(args, payload)
    return 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="twoslit",
        description="Commuting-detector construction, verification and simulation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    def add_common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="equality tolerance, finite and >= 0 (default 1e-12 or TWOSLIT_TOL)")
        add_out(p)

    p = sub.add_parser("generate3", help="build a two-detector solution bundle")
    p.add_argument("--params", help="JSON parameter file (defaults to the spin32 point)")
    add_common(p)

    p = sub.add_parser("generate4", help="build a three-detector solution bundle")
    p.add_argument("--params", help="JSON parameter file (defaults to the dim10 point)")
    add_common(p)

    p = sub.add_parser("verify", help="check every condition on a bundle file")
    p.add_argument("--bundle", required=True, help="bundle JSON produced by generate*/reproduce")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)

    p = sub.add_parser("reproduce", help="regenerate a built-in fixture and diff it")
    p.add_argument("--fixture", required=True, choices=fixture_names())
    add_common(p)

    p = sub.add_parser("solve", help="solve the detector constraints for projector candidates")
    p.add_argument("--fixture", choices=fixture_names(),
                   help="use a built-in state instead of --psi/--space")
    p.add_argument("--psi", help="state vector JSON file")
    p.add_argument("--space", help="product-space JSON file")
    p.add_argument("--draws", type=int, default=10000, help="random draws for the projector search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-filter", action="store_true", help="skip the projector search")
    add_out(p)

    p = sub.add_parser("simulate", help="sample joint slit/detector outcomes")
    p.add_argument("--fixture", choices=fixture_names(), default="spin32")
    p.add_argument("--psi", help="state vector JSON file")
    p.add_argument("--space", help="product-space JSON file")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--shards", type=int, default=1,
                   help="must be >= 1; the tally and the work are the same for any value")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_out(p)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (TwoSlitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
