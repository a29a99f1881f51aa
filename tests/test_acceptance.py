"""End-to-end acceptance checks.

Each test pins one deliverable of the package: exact reproduction of the
two stored reference solutions, the full condition suite on both
families, a randomized sweep over the two-detector family, independent
recovery of the cores by the constraint solver, the diagonal-anchor
regression, correlation detection on the three-detector family, and the
seeded sampling run.  Timing guards are part of the contract.
"""

import math
import time

import numpy as np
import pytest

from twoslit import family3, family4, fixtures, simulate, solver
from twoslit.linalg import is_idempotent
from twoslit.space import slit_projector
from twoslit.verify import check3, check4, detect_correlations


def _random_params3(rng):
    def coeff():
        return rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    mu2, mu3, lam2, lam3 = coeff(), coeff(), coeff(), coeff()
    k_mu = abs(mu3) ** 2 / (1 + abs(mu3) ** 2)
    s_mu = 1 + abs(mu2) ** 2 + abs(mu3) ** 2
    return family3.Family3Params(
        p=k_mu + rng.uniform(0.02, 0.98) / s_mu,
        theta=rng.uniform(0, 2 * np.pi),
        mu2=mu2, mu3=mu3, lambda2=lam2, lambda3=lam3,
    )


@pytest.fixture(scope="module")
def sweep_draws():
    rng = np.random.default_rng(20240817)
    return [_random_params3(rng) for _ in range(1000)]


def test_criterion_1_two_detector_reference_reproduced():
    fx = fixtures.fixture("spin32")
    start = time.perf_counter()
    bundle = family3.build(fx.params)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    g = bundle.G_I
    assert np.max(np.abs(g - fx.cores["G_I"])) <= 1e-12
    assert np.max(np.abs(bundle.psi - fx.psi)) <= 1e-12
    # spot values of the derived entries
    assert abs(g[0, 0] - 2 / 3) <= 1e-12
    assert abs(g[0, 1] + 1 / (2 * math.sqrt(3))) <= 1e-12
    assert abs(g[0, 3] - 1 / (6 * math.sqrt(5))) <= 1e-12
    assert abs(g[3, 3] - 8 / 15) <= 1e-12
    assert abs(g[5, 5] - 8 / 15) <= 1e-12


def test_criterion_2_three_detector_reference_reproduced():
    fx = fixtures.fixture("dim10")
    start = time.perf_counter()
    bundle = family4.build(fx.params)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    assert np.max(np.abs(bundle.G_I - fx.cores["G_I"])) <= 1e-12
    assert np.max(np.abs(bundle.L_I - fx.cores["L_I"])) <= 1e-12
    assert np.max(np.abs(bundle.psi - fx.psi)) <= 1e-12
    assert abs(np.sum(np.abs(bundle.G_I[0]) ** 2) - 11 / 72) <= 1e-12
    assert abs(np.sum(np.abs(bundle.L_I[0]) ** 2) - 67 / 456) <= 1e-12


def test_criterion_3_condition_suites_pass():
    b3 = family3.build(fixtures.fixture("spin32").params)
    r3 = check3(b3.E, b3.G, b3.T, b3.Y, b3.psi, space=b3.space)
    assert r3.passed, r3.failing()
    for e in r3.entries:
        if e.kind == "eq":
            assert e.residual < 1e-12, e
        elif e.kind == "nonzero":
            assert e.residual > 1e-3, e

    b4 = family4.build(fixtures.fixture("dim10").params)
    r4 = check4(b4.E, b4.G, b4.L, b4.T, b4.Y, b4.W, b4.psi)
    assert r4.passed, r4.failing()
    assert len(r4.entries) == 10
    for e in r4.entries:
        if e.kind == "eq":
            assert e.residual < 1e-12, e
        elif e.kind == "nonzero":
            assert e.residual > 1e-3, e


def test_criterion_4_randomized_sweep(sweep_draws):
    start = time.perf_counter()
    for params in sweep_draws:
        bundle = family3.build(params)
        report = check3(bundle.E, bundle.G, bundle.T, bundle.Y, bundle.psi)
        assert report.passed, (params, report.failing())
        assert detect_correlations(bundle) == []
    assert time.perf_counter() - start < 30.0


def test_criterion_5_solver_recovers_cores():
    fx3 = fixtures.fixture("spin32")
    cs = solver.assemble(slit_projector(fx3.space), fx3.psi, fx3.space)
    (sol,) = solver.solve(cs)
    assert sol.exists and sol.residual < 1e-10
    assert cs.tracking_residual("G", fx3.cores["G_I"]) < 1e-10
    members = solver.filter_projectors(sol, fx3.space, draws=1000,
                                       candidates=[fx3.cores["G_I"]])
    assert members, "projector search found nothing"
    assert min(np.max(np.abs(m - fx3.cores["G_I"])) for m in members) < 1e-9

    fx4 = fixtures.fixture("dim10")
    cs4 = solver.assemble(slit_projector(fx4.space), fx4.psi, fx4.space)
    sols = {s.name: s for s in solver.solve(cs4)}
    for name, core in (("G", fx4.cores["G_I"]), ("L", fx4.cores["L_I"])):
        assert sols[name].exists and sols[name].residual < 1e-10
        assert cs4.tracking_residual(name, core) < 1e-10
        recovered = solver.filter_projectors(sols[name], fx4.space, draws=0,
                                             candidates=[core])
        assert recovered and np.max(np.abs(recovered[0] - core)) < 1e-9


def test_criterion_6_diagonal_anchor_regression(sweep_draws):
    ref = fixtures.fixture("spin32").params
    assert abs(family3.derive_q(ref) - 8 / 15) <= 1e-12

    # the uncentered increment alone is the documented wrong turn: at the
    # reference point it evaluates to 1/30 and breaks idempotence
    raw = family3.q_increment(ref)
    assert abs(raw - 1 / 30) <= 1e-12
    good, _, _ = family3.core_projector(ref)
    bad = good.copy()
    bad[3:, 3:] = family3._corner_block(raw, ref.lambda2, ref.lambda3, ref.k_lambda)
    assert np.max(np.abs(bad @ bad - bad)) > 1e-3

    for params in sweep_draws:
        g, _, _ = family3.core_projector(params)
        assert is_idempotent(g, 1e-10), params


def test_criterion_7_three_detector_correlations_found():
    bundle = family4.build(fixtures.fixture("dim10").params)
    findings = detect_correlations(bundle)
    assert findings
    identities = {f.identity for f in findings}
    assert "(1-W)Y psi = 0" in identities


def test_criterion_8_seeded_simulation():
    fx = fixtures.fixture("spin32")
    spec = simulate.ExperimentSpec(fx.psi, fx.space, samples=100000, seed=42)
    start = time.perf_counter()
    tally = simulate.run(spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    assert abs(tally.p_detector("T") - 0.5) <= 0.01
    assert tally.p_slit_given_detector("T") == 1.0
    again = simulate.run(spec)
    assert np.array_equal(again.counts, tally.counts)
