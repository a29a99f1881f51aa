"""Verification on the factors against the dense checks it replaces.

verify_bundle reads every condition off the n x n and m x m cores on the
operators' first stripes and adds each operator's lift residual to its
projector entry.  The dense check3 / check4 evaluation, plus the projector
preconditions and the correlation catalog on the lifted operators, is the
oracle here, for exact lifts and for tampered ones.  The tests pass with
``-W error::RuntimeWarning``, as CI runs them, and the tamper corpus turns
RuntimeWarnings into errors itself.
"""

import dataclasses
import json
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from twoslit import family3, family4, fixtures, jsonio, solver
from twoslit.errors import ParamRangeError
from twoslit.space import (ProductSpace, block_projector, lift_left, lift_right,
                           slit_projector)
from twoslit.verify import _lift_residual, check3, check4, detect_correlations, verify_bundle

RESIDUAL_TOL = 1e-12


def _coeff(rng):
    return rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))


def _seed(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _random_params3(rng):
    """A family3 point with seed lengths 1..6 (dim at most 144)."""
    kw = {name: _coeff(rng) for name in ("mu2", "mu3", "lambda2", "lambda3")}
    kw.update({name: _seed(rng, int(rng.integers(1, 7)))
               for name in ("seed_a3", "seed_b2", "seed_gamma3", "seed_delta2")})
    k_mu = abs(kw["mu3"]) ** 2 / (1 + abs(kw["mu3"]) ** 2)
    s_mu = 1 + abs(kw["mu2"]) ** 2 + abs(kw["mu3"]) ** 2
    return family3.Family3Params(p=k_mu + rng.uniform(0.02, 0.98) / s_mu,
                                 theta=rng.uniform(0, 2 * np.pi), **kw)


def _random_params4(rng):
    """A family4 point with seed lengths 1..3 (dim at most 220)."""
    while True:
        kw = {name: _coeff(rng) for name in
              ("a2", "a3", "b4", "b5", "l5", "alpha2", "alpha3", "beta4", "beta5", "lambda5")}
        k_x, k_y = (int(k) for k in rng.integers(1, 4, size=2))
        kw.update({name: _seed(rng, int(rng.integers(1, 4)))
                   for name in ("seed_a5", "seed_c5", "seed_delta5", "seed_eta5")})
        kw.update(seed_e4=_seed(rng, k_x), seed_e5=_seed(rng, k_x),
                  seed_theta4=_seed(rng, k_y), seed_theta5=_seed(rng, k_y),
                  dim_block2=int(rng.integers(1, 3)), dim_block6=int(rng.integers(1, 3)),
                  theta1=rng.uniform(0, 2 * np.pi), theta2=rng.uniform(0, 2 * np.pi))
        params = family4.Family4Params(p=rng.uniform(0, 1), m=rng.uniform(0, 1), **kw)
        try:
            family4.derive_coefficients(params)
            return params
        except ParamRangeError:
            continue


def _dense_report(bundle, tol=None):
    """check3/check4 plus projector preconditions and correlations, all on
    the lifted operators."""
    if getattr(bundle, "W", None) is not None:
        names = ("E", "G", "L", "T", "Y", "W")
        report = check4(bundle.E, bundle.G, bundle.L, bundle.T, bundle.Y, bundle.W, bundle.psi,
                        tol=tol)
    else:
        names = ("E", "G", "T", "Y")
        report = check3(bundle.E, bundle.G, bundle.T, bundle.Y, bundle.psi, tol=tol,
                        space=bundle.space)
    entries = [(e.name, e.kind, e.residual, e.passed) for e in report.entries]
    for name in names:
        op = getattr(bundle, name)
        residual = np.max([np.max(np.abs(op - op.conj().T)), np.max(np.abs(op @ op - op))])
        entries.append((f"projector({name})", "eq", float(residual),
                        bool(residual <= report.tol)))
    findings = [(f.identity, f.residual) for f in detect_correlations(bundle, tol=tol)]
    return entries, findings


def _assert_matches_dense(bundle, tol=None):
    report = verify_bundle(bundle, tol=tol)
    entries, findings = _dense_report(bundle, tol=tol)
    assert [(e.name, e.kind, e.passed) for e in report.entries] == \
        [(name, kind, passed) for name, kind, _, passed in entries]
    for e, (_, _, residual, _) in zip(report.entries, entries):
        assert abs(e.residual - residual) <= RESIDUAL_TOL, e.name
    assert [f.identity for f in report.correlation_findings] == [i for i, _ in findings]
    for f, (_, residual) in zip(report.correlation_findings, findings):
        assert abs(f.residual - residual) <= RESIDUAL_TOL, f.identity


@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_fixture_bundles_match_dense(name):
    _assert_matches_dense(fixtures.fixture_bundle(name))


@pytest.mark.parametrize("family, draw, seed", [
    (family3, _random_params3, 601),
    (family4, _random_params4, 602),
], ids=["family3", "family4"])
def test_random_bundles_match_dense(family, draw, seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        bundle = family.build(draw(rng))
        assert bundle.space.dim <= 320
        _assert_matches_dense(bundle)


@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_arbitrary_lifts_match_dense(name):
    # Non-Hermitian, non-diagonal factors exercise every transpose, and a
    # tolerance of 1e3 admits every catalog identity, so all residuals
    # are compared.
    rng = np.random.default_rng(603)
    sp = fixtures.fixture(name).space

    def core(k):
        return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))

    props = ("E", "G", "L") if sp.mode == 4 else ("E", "G")
    dets = ("T", "Y", "W") if sp.mode == 4 else ("T", "Y")
    ops = {p: lift_left(core(sp.dim_i), sp) for p in props}
    ops.update({d: lift_right(core(sp.dim_ii), sp) for d in dets})
    ops.setdefault("W", None)
    bundle = types.SimpleNamespace(space=sp, psi=_seed(rng, sp.dim), **ops)
    _assert_matches_dense(bundle, tol=1e3)


@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_json_round_trip_stays_factored(name):
    # The bundle read back is still an exact lift: every lift residual is 0
    # and the report is the one of the bundle written.
    bundle = fixtures.fixture_bundle(name)
    blob = json.loads(json.dumps(jsonio.bundle_to_json(bundle)))
    report = verify_bundle(jsonio.bundle_from_json(blob))
    assert report.passed
    assert report.to_dict() == verify_bundle(bundle).to_dict()
    assert "method" not in report.to_dict()


def _site(sp, left, where, rng):
    """(row, col) of one entry of a left (``a (x) 1``) or right (``1 (x) b``)
    lift: on the core's stripe, on another stripe, or off the stripes.

    Entry (i*m + k, j*m + l) lies on a stripe of a left lift when k == l,
    the core's being k == l == 0, and of a right lift when i == j.
    """
    n, m = sp.dim_i, sp.dim_ii
    stripes, free = (m, n) if left else (n, m)
    if where == "core stripe":
        s = t = 0
    elif where == "another stripe":
        s = t = int(rng.integers(1, stripes))
    else:
        s = int(rng.integers(0, stripes))
        t = (s + int(rng.integers(1, stripes))) % stripes
    f, g = (int(x) for x in rng.integers(0, free, size=2))
    i, j, k, l = (f, g, s, t) if left else (s, t, f, g)
    return i * m + k, j * m + l


_TAMPERS = (lambda z: z + 1e-9, lambda z: z + 1e-6, lambda z: np.nan)
_WHERE = ("core stripe", "another stripe", "off the stripes")


def _corpus_bundle(which):
    if which in ("spin32", "dim10"):
        return fixtures.fixture_bundle(which)
    name, index = which.split("-")
    family, draw, seed = {"family3": (family3, _random_params3, 621),
                          "family4": (family4, _random_params4, 622)}[name]
    rng = np.random.default_rng(seed)
    for _ in range(int(index)):
        draw(rng)
    return family.build(draw(rng))


@pytest.mark.parametrize("which", ["spin32", "dim10", "family3-0", "family3-1", "family3-2",
                                   "family4-0", "family4-1", "family4-2"])
def test_tampered_bundles_fail_as_the_dense_oracle_does(which):
    # Each operator gets one entry raised by 1e-9 or 1e-6, or set to NaN, on
    # the core's stripe, on another stripe or off the stripes: 9 cases per
    # operator.  The verdict is the dense oracle's, and the tampered
    # operator's projector entry fails.
    bundle = _corpus_bundle(which)
    props, dets, _ = zip(*bundle.space.pairs)
    rng = np.random.default_rng(623)
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in props + dets:
            for tamper in _TAMPERS:
                for where in _WHERE:
                    op = getattr(bundle, name).copy()
                    entry = _site(bundle.space, name in props, where, rng)
                    op[entry] = tamper(op[entry])
                    tampered = dataclasses.replace(bundle, **{name: op})
                    report = verify_bundle(tampered)
                    entries, _ = _dense_report(tampered)
                    assert report.passed == all(passed for *_, passed in entries)
                    assert not report.entry(f"projector({name})").passed, (name, where)
                    cases += 1
    assert cases == 9 * len(props + dets)


@pytest.mark.parametrize("name, op, failing", [
    ("spin32", "T", ["C.6", "projector(T)"]),
    ("dim10", "T", ["projector(T)"]),
    ("dim10", "W", ["projector(W)"]),
])
def test_an_off_block_detector_entry_fails_only_its_projector_entry(name, op, failing):
    # 1e-9 outside every diagonal block leaves the cores untouched, so every
    # condition holds; the lift residual fails projector(op), and on 4 blocks
    # also C.6.  On 8 blocks, which have no C.6, it is what requires a
    # detector to be 1 (x) b.
    bundle = fixtures.fixture_bundle(name)
    m = bundle.space.dim_ii
    tampered = getattr(bundle, op).copy()
    assert tampered[m, 0] == 0  # H_I row 1 against column 0
    tampered[m, 0] += 1e-9
    report = verify_bundle(dataclasses.replace(bundle, **{op: tampered}))
    assert report.failing() == failing
    assert report.entry(f"projector({op})").residual == 1e-9


@pytest.mark.parametrize("op", ["G", "T"])
def test_one_ulp_in_a_repeated_entry_falls_back_to_dense(op):
    # A lift repeats each core entry; nudging one copy breaks the product.
    # The cores read the untouched copy, so the lift residual alone fails
    # projector(op), and the verdict is the dense oracle's.
    bundle = fixtures.fixture_bundle("spin32")
    m = bundle.space.dim_ii
    entry = (0, m) if op == "G" else (m + 1, m + 1)  # G_I[0, 1], copy 0; T_II[1, 1], copy 1
    tampered = getattr(bundle, op).copy()
    tampered[entry] = np.nextafter(tampered[entry].real, 2.0) + 1j * tampered[entry].imag
    tampered_bundle = dataclasses.replace(bundle, **{op: tampered})
    report = verify_bundle(tampered_bundle)
    entries, _ = _dense_report(tampered_bundle)
    assert report.entry(f"projector({op})").residual > 0
    assert report.passed == all(passed for *_, passed in entries)


def test_non_finite_state_falls_back_to_dense():
    # A NaN state fails on the cores what it fails in the dense check3.
    bundle = fixtures.fixture_bundle("spin32")
    psi = bundle.psi.copy()
    psi[0] = np.nan
    tampered = dataclasses.replace(bundle, psi=psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN state fails its checks without a numpy warning
        report = verify_bundle(tampered)
    dense = check3(tampered.E, tampered.G, tampered.T, tampered.Y, psi, space=tampered.space)
    assert not report.passed
    assert [e.name for e in report.entries if e.name.startswith("C.") and not e.passed] == \
        dense.failing()


_LABELS = {
    "spin32": [("C.1", "nonzero"), ("C.2", "eq"), ("C.3", "eq"), ("C.4", "eq"),
               ("C.5", "nonzero"), ("C.6", "structural"),
               ("projector(E)", "eq"), ("projector(G)", "eq"),
               ("projector(T)", "eq"), ("projector(Y)", "eq")],
    "dim10": [("C.1", "nonzero"), ("C.2", "nonzero"), ("C.3", "nonzero"),
              ("C.4", "eq"), ("C.5", "eq"), ("C.6", "eq"), ("C.7", "eq"), ("C.8", "eq"),
              ("C.9", "eq"), ("C.10", "nonzero"),
              ("projector(E)", "eq"), ("projector(G)", "eq"), ("projector(L)", "eq"),
              ("projector(T)", "eq"), ("projector(Y)", "eq"), ("projector(W)", "eq")],
}


@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_condition_labels_on_both_paths(name):
    # Exact and tampered bundles share one condition generator, so comparing
    # them cannot catch a wrong label or order; this literal list can.
    bundle = fixtures.fixture_bundle(name)
    m = bundle.space.dim_ii
    T = bundle.T.copy()
    assert T[0, m] == 0
    T[0, m] = np.nextafter(0.0, 1.0)
    for probe in (bundle, dataclasses.replace(bundle, T=T)):
        report = verify_bundle(probe)
        assert [(e.name, e.kind) for e in report.entries] == _LABELS[name]


def _table_bundles():
    yield from (fixtures.fixture_bundle(name) for name in ("spin32", "dim10"))
    for family, draw, seed in ((family3, _random_params3, 611), (family4, _random_params4, 612)):
        rng = np.random.default_rng(seed)
        yield from (family.build(draw(rng)) for _ in range(5))


def test_bundles_solver_and_wire_follow_the_pairs_table():
    for bundle in _table_bundles():
        sp = bundle.space
        props, dets, flags = zip(*sp.pairs)
        assert [p for p in ("E", "G", "L") if getattr(bundle, p) is not None] == list(props)
        assert [d for d in ("T", "Y", "W") if getattr(bundle, d) is not None] == list(dets)
        assert np.array_equal(bundle.E, lift_left(slit_projector(sp), sp))
        for d, f in zip(dets, flags):
            assert np.array_equal(getattr(bundle, d), lift_right(block_projector(sp, f), sp))
        cores = [f"{p}_I" for p in props[1:]]
        assert [c for c in ("G_I", "L_I") if getattr(bundle, c) is not None] == cores
        assert list(solver.assemble(slit_projector(sp), bundle.psi, sp).masks) == list(props[1:])
        assert list(jsonio.bundle_to_json(bundle)["core"]) == cores


def _kron_lift(op, sp, left):
    """np.kron of the core on ``op``'s first stripe: the lift as earlier versions
    built it, with ``-0.0`` off the stripes wherever ``x * 0.0`` gave one."""
    m = sp.dim_ii
    if left:
        return np.kron(op[::m, ::m], np.eye(m))
    return np.kron(np.eye(sp.dim_i), op[:m, :m])


def _stripe_mask(sp, left):
    """True on the entries of a left (``a (x) 1``) or right (``1 (x) b``) lift's stripes."""
    r, c = np.indices((sp.dim, sp.dim))
    m = sp.dim_ii
    return r % m == c % m if left else r // m == c // m


def _lift_case(case, sp, left, rng):
    n = sp.dim_i if left else sp.dim_ii
    core = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    core[0, 1] = 0.0
    op = (lift_left if left else lift_right)(core, sp)
    off = ~_stripe_mask(sp, left)
    row, col = _site(sp, left, "off the stripes", rng)
    if case == "-0.0 off the stripes":
        op.real[off] = -0.0
        op.imag[off] = -0.0
    elif case == "-0.0 on a later stripe only":
        # core[0, 1] is 0.0 on the first stripe and -0.0 on the second
        row, col = (1, sp.dim_ii + 1) if left else (sp.dim_ii, sp.dim_ii + 1)
        assert op[row, col] == 0 and _stripe_mask(sp, left)[row, col]
        op.real[row, col] = -0.0
    elif case in ("Fortran-ordered", "non-contiguous"):
        op[row, col] += 1e-9
        if case == "Fortran-ordered":
            op = np.asfortranarray(op)
        else:
            holder = np.zeros((sp.dim, 2 * sp.dim), complex)
            holder[:, 1::2] = op
            op = holder[:, 1::2]
    elif case in ("NaN off the stripes", "inf off the stripes"):
        op[row, col] = np.nan if case.startswith("NaN") else complex(np.inf, -0.0)
    else:  # one tampered off-stripe entry, among np.kron's -0.0
        op = _kron_lift(op, sp, left)
        op[row, col] += 1e-6j
    return op


@pytest.mark.parametrize("name", ["spin32", "dim10"])
@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
@pytest.mark.parametrize("case", ["-0.0 off the stripes", "-0.0 on a later stripe only",
                                  "Fortran-ordered", "non-contiguous", "NaN off the stripes",
                                  "inf off the stripes", "one tampered off-stripe entry"])
def test_lift_residual_matches_the_dense_oracle(case, left, name):
    # The residual read off the 64-bit words equals max|op - kron(core)| to
    # the bit, and is 0 exactly where the oracle's is, whatever the signs of
    # op's zeros, its memory layout or its non-finite entries.
    sp = fixtures.fixture(name).space
    op = _lift_case(case, sp, left, np.random.default_rng(641))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        core, residual = _lift_residual(op, sp, left)
    m = sp.dim_ii
    assert np.array_equal(core, op[::m, ::m] if left else op[:m, :m])
    oracle = np.max(np.abs(op - _kron_lift(op, sp, left)))
    assert np.array_equal(residual, oracle, equal_nan=True), (residual, oracle)
    assert (residual == 0) == case.startswith("-0.0")


@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_kron_lifted_bundles_verify_as_exact_lifts(name):
    # A bundle whose lifts np.kron built, as files written before placement
    # hold them, reports what the placed bundle reports.
    bundle = fixtures.fixture_bundle(name)
    props, dets, _ = zip(*bundle.space.pairs)
    kron = dataclasses.replace(bundle, **{x: _kron_lift(getattr(bundle, x), bundle.space,
                                                        x in props)
                                          for x in props + dets})
    assert any(np.signbit(getattr(kron, x).real).any() for x in props + dets)
    assert verify_bundle(kron).to_dict() == verify_bundle(bundle).to_dict()


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_off_stripe_scan_allocates_under_a_quarter_of_the_operator(left):
    # An np.kron lift at dim 500 with one tampered off-stripe entry takes the
    # off-stripe scan over every row; it builds no float temporary the size
    # of the operator (a quarter of its bytes is half of such a temporary).
    sp = ProductSpace(10, (12, 13, 12, 13))
    rng = np.random.default_rng(642)
    n = sp.dim_i if left else sp.dim_ii
    core = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    op = _kron_lift((lift_left if left else lift_right)(core, sp), sp, left)
    row, col = _site(sp, left, "off the stripes", rng)
    op[row, col] += 1e-9
    tracemalloc.start()
    try:
        _, residual = _lift_residual(op, sp, left)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual == np.max(np.abs(op - _kron_lift(op, sp, left)))
    assert peak < op.nbytes / 4, (peak, op.nbytes)
