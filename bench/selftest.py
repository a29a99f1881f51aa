"""Shows that each correctness check of the benchmark can fail.

    python3 bench/selftest.py

Run from the root of a source checkout.  For every check in checks.py, a
valid output made by the program must pass, and the same output with one
deliberate corruption (one changed entry, one moved count, one altered
exit code) must fail.  Exits non-zero if a check rejects a valid output or
misses a corruption.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from twoslit import family3, family4, fixtures, simulate, solver  # noqa: E402


def changed(a, index, delta=1e-6):
    """Copy of ``a`` with one entry moved by ``delta``."""
    out = np.array(a, copy=True)
    out[index] += delta
    return out


def bundle_cases(rng):
    b4 = family4.build(workloads.random_family4(rng))
    b3 = family3.build(workloads.random_family3(rng))
    for label, b in (("family4", b4), ("family3", b3)):
        sp, cores, dense = b.space, workloads._cores(b), workloads._dense(b)

        def factored(cores=cores, psi=b.psi):
            return checks.check_factored(sp.dim_i, sp.partition, psi, cores)

        def structure(dense=dense):
            return checks.check_structure(sp.dim_i, sp.partition, cores, dense)

        def dense_check(dense=dense, psi=b.psi):
            return checks.check_dense(psi, dense)

        yield f"{label} factored: one entry of G_I", factored(), \
            factored(cores=dict(cores, G=changed(cores["G"], (0, 1))))
        yield f"{label} factored: one amplitude of psi", factored(), \
            factored(psi=changed(b.psi, 0, 1e-3))
        yield f"{label} structure: one entry of G", structure(), \
            structure(dense=dict(dense, G=changed(dense["G"], (0, 0))))
        yield f"{label} structure: one entry of T", structure(), \
            structure(dense=dict(dense, T=changed(dense["T"], (1, 1))))
        yield f"{label} dense: one entry of Y", dense_check(), \
            dense_check(dense=dict(dense, Y=changed(dense["Y"], (2, 3))))
        yield f"{label} dense: one amplitude of psi", dense_check(), \
            dense_check(psi=changed(b.psi, 1, 1e-3))


def roundtrip_cases(rng):
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=BENCH / "out")
    try:
        wl = workloads.Roundtrip(rng, tmp)
        item = wl.round[2]
        out = wl.op(item)
        base = item["base"]
        decoded, embedded = checks.read_bundle_file(base + ".bundle.json")
        with open(base + ".report.json") as fh:
            report = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    expected = item["expected"]

    def check(codes=out, decoded=decoded, reports={"generate": embedded, "verify": report}):
        return checks.check_roundtrip(codes, decoded, expected, reports)

    nudged = dict(decoded, G=decoded["G"].copy())
    nudged["G"][0, 0] = np.nextafter(nudged["G"][0, 0].real, 2.0) + 1j * nudged["G"][0, 0].imag
    yield "roundtrip: last bit of one entry of G", check(), check(decoded=nudged)
    yield "roundtrip: exit code of verify", check(), check(codes=(out[0], 1))
    yield "roundtrip: verify report not passed", check(), \
        check(reports={"generate": embedded, "verify": dict(report, passed=False)})


def analyse_cases():
    fx = fixtures.fixture("dim10")
    sp, psi = fx.space, fx.psi
    sols = solver.solve(solver.assemble(checks.slit_core(sp.dim_i), psi, sp))
    sol = [s for s in sols if s.name == "L"][0]
    core = fx.cores["L_I"]
    found = solver.filter_projectors(sol, sp, draws=50, seed=3, candidates=[core])

    def survivors(found=found, reference=core):
        return checks.check_survivors(sp.dim_i, sp.partition, psi, "W", found, reference)

    yield "analyse: one entry of a survivor", survivors(), \
        survivors(found=[changed(found[0], (4, 4))] + found[1:])
    yield "analyse: stored core moved", survivors(), survivors(reference=changed(core, (0, 0)))

    samples = 100_000
    spec = simulate.ExperimentSpec(psi=psi, space=sp, samples=samples, seed=5)
    tallies = {shards: simulate.run(spec, shards=shards).counts for shards in (1, 4)}
    table = checks.born_table(sp.dim_i, sp.partition, psi)
    empty = tuple(np.argwhere(table == 0)[0])
    full = tuple(np.argwhere(table > 0)[0])

    def tally_check(tallies=tallies):
        return checks.check_tallies(sp.dim_i, sp.partition, psi, samples, tallies)

    moved = tallies[4].copy()
    moved[full] -= 1
    moved[empty] += 1
    yield "analyse: one count moved to a zero-probability cell", tally_check(), \
        tally_check(tallies={1: tallies[1], 4: moved})
    altered = tallies[4].copy()
    altered[full] += 1
    yield "analyse: one count altered", tally_check(), \
        tally_check(tallies={1: tallies[1], 4: altered})


def main():
    (BENCH / "out").mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    failures = 0
    for name, valid, corrupted in [*bundle_cases(rng), *roundtrip_cases(rng), *analyse_cases()]:
        ok = not valid and bool(corrupted)
        failures += not ok
        detail = corrupted[0] if corrupted else "corruption not detected"
        if valid:
            detail = f"valid output rejected: {valid[0]}"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"{failures} of the checks misbehaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
