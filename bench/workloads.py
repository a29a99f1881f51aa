"""The benchmark's four workloads: inputs from a seed, one op, its checks.

Each workload builds one round of inputs from ``numpy.random.default_rng
(seed)`` at set-up; a run repeats that round whole.  ``op`` calls the
program's public functions on one input and returns what they produced,
``passed`` reads the program's own verdict on it, and ``check`` runs the
independent checks of checks.py outside the timed region.
"""

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

import checks
from twoslit import cli, family3, family4, fixtures, simulate, solver, verify

F3_COEFFS = ("mu2", "mu3", "lambda2", "lambda3")
F3_SEEDS = ("seed_a3", "seed_b2", "seed_gamma3", "seed_delta2")
F4_COEFFS = ("a2", "a3", "b4", "b5", "l5", "alpha2", "alpha3", "beta4", "beta5", "lambda5")
F4_SEEDS = ("seed_a5", "seed_c5", "seed_e4", "seed_e5",
            "seed_delta5", "seed_eta5", "seed_theta4", "seed_theta5")


def _coefficient(rng, lo, hi):
    """Complex number with modulus log-uniform in [lo, hi], uniform phase."""
    modulus = np.exp(rng.uniform(np.log(lo), np.log(hi)))
    return complex(modulus * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))


def _seed_vector(rng, k):
    return rng.normal(size=k) + 1j * rng.normal(size=k)


def random_family3(rng, k=1, lo=0.1, hi=10.0):
    """A family3 point with p drawn inside its open interval, away from the ends."""
    c = {name: _coefficient(rng, lo, hi) for name in F3_COEFFS}
    k_mu = abs(c["mu3"]) ** 2 / (1 + abs(c["mu3"]) ** 2)
    s_mu = 1 + abs(c["mu2"]) ** 2 + abs(c["mu3"]) ** 2
    p = k_mu + rng.uniform(0.05, 0.95) / s_mu
    seeds = {name: _seed_vector(rng, k) for name in F3_SEEDS}
    return family3.Family3Params(p=p, theta=rng.uniform(0.0, 2 * np.pi), **c, **seeds)


def _family4_anchors(rng, c):
    """(p, m) inside their open intervals with both radicands positive, or None.

    The intervals and radicands are the family's admissibility conditions,
    evaluated here so that the inputs do not depend on the program.
    """
    a2, a3, b4, b5, l5 = (c[n] for n in ("a2", "a3", "b4", "b5", "l5"))
    s_a = 1 + abs(a2) ** 2 + abs(a3) ** 2
    big_c = 1 + abs(a3) ** 2 + (abs(b4) ** 2 + abs(b5) ** 2) * s_a
    l4 = a2 * np.conj(a3) / (np.conj(b4) * s_a) - l5 * np.conj(b5) / np.conj(b4)
    big_d = 1 + abs(a2) ** 2 + (abs(l4) ** 2 + abs(l5) ** 2) * s_a
    a2f, a3f, b3f = abs(a2) ** 2 / big_c, (1 + abs(a3) ** 2) / big_c, abs(a3) ** 2 / big_d
    p = (a2f + rng.uniform(0.05, 0.95)) / s_a
    m = (a2f + b3f + rng.uniform(0.05, 0.95)) / s_a
    dp, dm = p - 1 / big_c, m - 1 / big_c
    rad_u = dp * (1 - 2 * a3f) - dp * dp * s_a + a3f * (abs(b4) ** 2 + abs(b5) ** 2) / big_c
    rad_z = (dm * (1 - 2 * (a3f - b3f)) - dm * dm * s_a
             - ((b3f - a3f) ** 2 + (b3f - a3f)) / s_a)
    return (p, m) if rad_u > 0 and rad_z > 0 else None


def random_family4(rng, k=1, lo=0.1, hi=10.0):
    """A family4 point: coefficients as in random_family3, p and m inside
    their intervals (redrawn until both radicands are positive)."""
    while True:
        c = {name: _coefficient(rng, lo, hi) for name in F4_COEFFS}
        anchors = _family4_anchors(rng, c)
        if anchors is not None:
            break
    seeds = {name: _seed_vector(rng, k) for name in F4_SEEDS}
    return family4.Family4Params(p=anchors[0], m=anchors[1],
                                 theta1=rng.uniform(0.0, 2 * np.pi),
                                 theta2=rng.uniform(0.0, 2 * np.pi), **c, **seeds)


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cores(bundle):
    cores = {"E": checks.slit_core(bundle.space.dim_i), "G": bundle.G_I}
    if getattr(bundle, "L_I", None) is not None:
        cores["L"] = bundle.L_I
    return cores


def _dense(bundle):
    names = ("E", "G", "L", "T", "Y", "W")
    return {n: getattr(bundle, n) for n in names if getattr(bundle, n, None) is not None}


class _Bundles:
    """Shared op of sweep and wide: build a bundle, then verify_bundle it."""

    dense_checks = True

    def op(self, item):
        family, params = item
        bundle = (family3 if family == "family3" else family4).build(params)
        return bundle, verify.verify_bundle(bundle)

    def passed(self, out):
        return out[1].passed

    def digest(self, item, out):
        bundle = out[0]
        return _digest(bundle.psi, *_cores(bundle).values(), *_dense(bundle).values())

    def check(self, item, out):
        bundle = out[0]
        sp, cores, dense = bundle.space, _cores(bundle), _dense(bundle)
        problems = checks.check_factored(sp.dim_i, sp.partition, bundle.psi, cores)
        problems += checks.check_structure(sp.dim_i, sp.partition, cores, dense)
        if self.dense_checks:
            problems += checks.check_dense(bundle.psi, dense)
        return problems

    def close(self):
        pass


class Sweep(_Bundles):
    """Random admissible points of both families at unit seed lengths."""

    POINTS = 32  # per family and round

    def __init__(self, rng, workdir):
        self.round = []
        for _ in range(self.POINTS):
            self.round.append(("family3", random_family3(rng)))
            self.round.append(("family4", random_family4(rng)))


class Wide(_Bundles):
    """family4 on a fixed ladder of seed lengths (dims 260 and 500)."""

    LADDER = (4, 8)
    POINTS = 2  # per seed length and round
    dense_checks = False  # dense products would cost as much as the op

    def __init__(self, rng, workdir):
        self.round = [("family4", random_family4(rng, k=k))
                      for _ in range(self.POINTS) for k in self.LADDER]


def _write_params(path, params, coeffs, seeds, extra):
    """A parameter file in the documented format, written without jsonio."""
    out = dict(extra)
    out.update({n: [getattr(params, n).real, getattr(params, n).imag] for n in coeffs})
    out.update({n: {"dim": len(getattr(params, n)),
                    "data": [[z.real, z.imag] for z in getattr(params, n)]} for n in seeds})
    with open(path, "w") as fh:
        json.dump(out, fh)


class Roundtrip:
    """generate3/generate4 to a file, then verify that file, through cli.main."""

    LADDER = (("family3", 4), ("family3", 8), ("family4", 1), ("family4", 2))

    def __init__(self, rng, workdir):
        self.tmp = tempfile.mkdtemp(prefix="roundtrip-", dir=workdir)
        self.round = []
        for i, (family, k) in enumerate(self.LADDER):
            base = os.path.join(self.tmp, f"{i}-{family}-k{k}")
            if family == "family3":
                params = random_family3(rng, k=k)
                _write_params(base + ".params.json", params, F3_COEFFS, F3_SEEDS,
                              {"p": params.p, "theta": params.theta})
            else:
                params = random_family4(rng, k=k)
                _write_params(base + ".params.json", params, F4_COEFFS, F4_SEEDS,
                              {"p": params.p, "m": params.m, "theta1": params.theta1,
                               "theta2": params.theta2, "dim_block2": 1, "dim_block6": 1})
            self.round.append({"family": family, "base": base,
                               "expected": self._expected(family, params)})

    @staticmethod
    def _expected(family, params):
        """The arrays the CLI must write, built in memory at set-up (so a
        traced run records no spans for them)."""
        bundle = (family3 if family == "family3" else family4).build(params)
        expected = _dense(bundle)
        expected.update({"psi": bundle.psi, "G_I": bundle.G_I})
        if family == "family4":
            expected["L_I"] = bundle.L_I
        return expected

    def op(self, item):
        base = item["base"]
        command = "generate3" if item["family"] == "family3" else "generate4"
        generated = cli.main([command, "--params", base + ".params.json",
                              "--out", base + ".bundle.json"])
        verified = cli.main(["verify", "--bundle", base + ".bundle.json",
                             "--out", base + ".report.json"])
        return generated, verified

    def passed(self, out):
        return out == (0, 0)

    def digest(self, item, out):
        h = hashlib.blake2b(repr(out).encode(), digest_size=16)
        for suffix in (".bundle.json", ".report.json"):
            with open(item["base"] + suffix, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def check(self, item, out):
        base = item["base"]
        decoded, embedded = checks.read_bundle_file(base + ".bundle.json")
        with open(base + ".report.json") as fh:
            report = json.load(fh)
        return checks.check_roundtrip(out, decoded, item["expected"],
                                      {"generate": embedded, "verify": report})

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class Analyse:
    """Solver recovery and sampling on the fixture states and generated ones."""

    DRAWS = 600          # random draws per target, after the known core
    SAMPLES = 2_000_000  # per simulate.run call
    SHARDS = (1, 4)

    def __init__(self, rng, workdir):
        states = []
        for name in ("spin32", "dim10"):
            fx = fixtures.fixture(name)
            cores = {n[0]: c for n, c in fx.cores.items()}
            states.append((name, fx.space, fx.psi, cores, True))
        p3 = random_family3(rng)
        g_core, _, _ = family3.core_projector(p3)
        states.append(("family3", p3.space(), family3.state(p3), {"G": g_core}, False))
        p4 = random_family4(rng)
        g_core, l_core, co = family4.core_projectors(p4)
        states.append(("family4", p4.space(), family4.state(p4, co),
                       {"G": g_core, "L": l_core}, False))
        self.round = [{"name": name, "space": sp, "psi": psi, "cores": cores,
                       "stored": stored, "seed": int(rng.integers(2**31))}
                      for name, sp, psi, cores, stored in states]

    def op(self, item):
        sp, psi, seed = item["space"], item["psi"], item["seed"]
        system = solver.assemble(checks.slit_core(sp.dim_i), psi, sp)
        found = {}
        for sol in solver.solve(system):
            found[sol.name] = solver.filter_projectors(
                sol, sp, draws=self.DRAWS, seed=seed, candidates=[item["cores"][sol.name]])
        spec = simulate.ExperimentSpec(psi=psi, space=sp, samples=self.SAMPLES, seed=seed)
        tallies = {shards: simulate.run(spec, shards=shards).counts for shards in self.SHARDS}
        return found, tallies

    def passed(self, out):
        return True

    def digest(self, item, out):
        found, tallies = out
        return _digest(*(m for name in sorted(found) for m in found[name]),
                       *(tallies[s] for s in sorted(tallies)))

    def check(self, item, out):
        found, tallies = out
        sp, psi = item["space"], item["psi"]
        problems = []
        if set(found) != set(item["cores"]):
            problems.append(f"solver targets {sorted(found)}, expected {sorted(item['cores'])}")
        detector = {"G": "Y", "L": "W"}
        for name, survivors in found.items():
            reference = item["cores"][name] if item["stored"] else None
            problems += checks.check_survivors(sp.dim_i, sp.partition, psi, detector[name],
                                               survivors, reference)
        problems += checks.check_tallies(sp.dim_i, sp.partition, psi, self.SAMPLES, tallies)
        return [f"{item['name']}: {p}" for p in problems]

    def close(self):
        pass


WORKLOADS = {"sweep": Sweep, "wide": Wide, "roundtrip": Roundtrip, "analyse": Analyse}
