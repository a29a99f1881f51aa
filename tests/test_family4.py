import dataclasses
import math

import numpy as np
import pytest

from helpers import projector_rank
from twoslit import family4, fixtures
from twoslit.errors import DimensionError, ParamRangeError, SeedError
from twoslit.linalg import is_hermitian, is_idempotent
from twoslit.verify import check4, detect_correlations, verify_bundle

REF = fixtures.fixture("dim10")
REF_PARAMS = REF.params


def _random_params(rng, seed_dims=None, tries=200, moduli=None):
    """Draw coefficients, then scan for (p, m) admitted by the ranges.

    With ``moduli=(lo, hi)`` each coefficient's modulus is log-uniform in
    [lo, hi], not uniform in [0.3, 1.8], and coefficients are redrawn until
    the scan admits a point.
    """

    def coeff():
        modulus = (rng.uniform(0.3, 1.8) if moduli is None
                   else np.exp(rng.uniform(*np.log(moduli))))
        return modulus * np.exp(1j * rng.uniform(0, 2 * np.pi))

    def seed(n):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return v / np.linalg.norm(v)

    while True:
        kw = {name: coeff() for name in
              ("a2", "a3", "b4", "b5", "l5", "alpha2", "alpha3", "beta4", "beta5", "lambda5")}
        kw["theta1"] = rng.uniform(0, 2 * np.pi)
        kw["theta2"] = rng.uniform(0, 2 * np.pi)
        if seed_dims is not None:
            names = ("seed_a5", "seed_c5", "seed_e4", "seed_e5",
                     "seed_delta5", "seed_eta5", "seed_theta4", "seed_theta5")
            kw.update({nm: seed(d) for nm, d in zip(names, seed_dims)})
        probe = family4.Family4Params(p=0.5, m=0.5, **kw)
        s_a = 1 + abs(probe.a2) ** 2 + abs(probe.a3) ** 2
        big_c = (1 + abs(probe.a3) ** 2) + (abs(probe.b4) ** 2 + abs(probe.b5) ** 2) * s_a
        l4 = (probe.a2 * np.conj(probe.a3) / (np.conj(probe.b4) * s_a)
              - probe.l5 * np.conj(probe.b5) / np.conj(probe.b4))
        big_d = (1 + abs(probe.a2) ** 2) + (abs(l4) ** 2 + abs(probe.l5) ** 2) * s_a
        a2f, a3f = abs(probe.a2) ** 2 / big_c, (1 + abs(probe.a3) ** 2) / big_c
        b3f = abs(probe.a3) ** 2 / big_d
        for _ in range(tries):
            p = (a2f + rng.uniform(0.02, 0.98)) / s_a
            m = (a2f + b3f + rng.uniform(0.02, 0.98)) / s_a
            try:
                params = dataclasses.replace(probe, p=p, m=m)
                family4.derive_coefficients(params)
                return params
            except ParamRangeError:
                continue
        if moduli is None:
            raise AssertionError("no admissible (p, m) found for drawn coefficients")


def test_reference_coefficients():
    co = family4.derive_coefficients(REF_PARAMS)
    assert co.l4 == pytest.approx(-2 / 3, abs=1e-15)
    assert co.lambda4 == pytest.approx(-2 / 3, abs=1e-15)
    assert co.C == pytest.approx(8.0, abs=1e-14)
    assert co.Gamma == pytest.approx(8.0, abs=1e-14)
    assert co.D == pytest.approx(19 / 3, abs=1e-14)
    assert co.Delta == pytest.approx(19 / 3, abs=1e-14)
    assert (co.A2, co.A3) == (pytest.approx(1 / 8), pytest.approx(1 / 4))
    assert (co.B2, co.B3) == (pytest.approx(6 / 19), pytest.approx(3 / 19))
    assert co.u == pytest.approx(math.sqrt(2) / 9, abs=1e-15)
    assert co.z == pytest.approx(4 / (19 * math.sqrt(3)), abs=1e-15)
    assert co.q == pytest.approx(19 / 72, abs=1e-15)
    assert co.n == pytest.approx(3 / 8, abs=1e-15)


def test_reference_intervals_contain_choices():
    co = family4.derive_coefficients(REF_PARAMS)
    plo, phi = co.p_interval
    mlo, mhi = co.m_interval
    assert plo < REF_PARAMS.p < phi
    assert mlo < REF_PARAMS.m < mhi


def test_cores_match_stored_reference():
    g, el, _ = family4.core_projectors(REF_PARAMS)
    assert np.max(np.abs(g - REF.cores["G_I"])) < 1e-12
    assert np.max(np.abs(el - REF.cores["L_I"])) < 1e-12


def test_first_row_norm_identities():
    # Row sums of squared moduli collapse to the diagonal for a projector:
    # sum_k |M[0,k]|^2 == M[0,0].
    g, el, _ = family4.core_projectors(REF_PARAMS)
    assert np.sum(np.abs(g[0]) ** 2) == pytest.approx(11 / 72, abs=1e-14)
    assert np.sum(np.abs(el[0]) ** 2) == pytest.approx(67 / 456, abs=1e-14)
    assert g[0, 0].real == pytest.approx(11 / 72, abs=1e-14)
    assert el[0, 0].real == pytest.approx(67 / 456, abs=1e-14)


def test_state_matches_stored_reference():
    psi = family4.state(REF_PARAMS)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(psi - REF.psi)) < 1e-12


def test_core_traces_and_ranks():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g, el, _ = family4.core_projectors(_random_params(rng))
        assert is_hermitian(g, 1e-11) and is_idempotent(g, 1e-11)
        assert is_hermitian(el, 1e-11) and is_idempotent(el, 1e-11)
        assert projector_rank(g, 1e-8) == 3
        assert projector_rank(el, 1e-8) == 5


def test_cores_keep_the_closed_form_zeros():
    # u and z couple only the first three rows of each side: the rest of the
    # off-diagonal blocks is exactly zero, which keeps written bundles sparse
    rng = np.random.default_rng(29)
    for params in (REF_PARAMS, _random_params(rng), _random_params(rng, moduli=(1e-2, 1e2))):
        for core in family4.core_projectors(params)[:2]:
            for off in (core[:5, 5:], core[5:, :5]):
                assert not off[3:].any() and not off[:, 3:].any()


def test_diagonal_blocks_split_the_projectors():
    """P, Q (the diagonal blocks of G_I) have rank 2 and M, N (of L_I) rank 3;
    the leading singular values are 1 and the last nonzero ones add up to 1
    across the two sides, at the fixture and at 600 seeded points."""
    points = [REF_PARAMS]
    for seed, moduli in ((37, (0.1, 10.0)), (38, (1e-2, 1e2))):
        rng = np.random.default_rng(seed)
        points += [_random_params(rng, moduli=moduli) for _ in range(300)]
    for params in points:
        g, el, _ = family4.core_projectors(params)
        (p, q), (m, n) = ([np.linalg.svd(core[s, s], compute_uv=False)
                           for s in (slice(0, 5), slice(5, 10))] for core in (g, el))
        for sv, rank in ((p, 2), (q, 2), (m, 3), (n, 3)):
            assert np.max(np.abs(sv[:rank - 1] - 1)) <= 1e-12
            assert sv[rank - 1] > 1e-12 and np.max(sv[rank:]) <= 1e-12
        assert abs(p[1] + q[1] - 1) <= 1e-12
        assert abs(m[2] + n[2] - 1) <= 1e-12


def test_cross_block_column_coupling():
    # The y-side corner blocks are rank-deficient in a specific patterned
    # way: columns 3-5 are fixed linear images of columns 1-2.
    rng = np.random.default_rng(31)
    params = _random_params(rng)
    g, el, co = family4.core_projectors(params)
    q_blk, n_blk = g[5:, 5:], el[5:, 5:]
    al2, al3 = params.alpha2, params.alpha3
    be4, be5 = params.beta4, params.beta5
    la4, la5 = co.lambda4, params.lambda5
    mix = al2 * q_blk[:, 0] + q_blk[:, 1]
    assert np.max(np.abs(q_blk[:, 2] + al3 * q_blk[:, 0])) < 1e-13
    assert np.max(np.abs(q_blk[:, 3] + be4 * mix)) < 1e-13
    assert np.max(np.abs(q_blk[:, 4] + be5 * mix)) < 1e-13
    assert np.max(np.abs(n_blk[:, 1] - (q_blk[:, 1] + al2 * (q_blk[:, 0] - n_blk[:, 0])))) < 1e-13
    assert np.max(np.abs(n_blk[:, 3] + la4 * al3 * n_blk[:, 0] + be4 * mix + la4 * n_blk[:, 2])) < 1e-13
    assert np.max(np.abs(n_blk[:, 4] + la5 * al3 * n_blk[:, 0] + be5 * mix + la5 * n_blk[:, 2])) < 1e-13


def test_zero_divisor_coefficients_rejected():
    for name in ("b4", "beta4", "b5", "l5", "beta5", "lambda5"):
        with pytest.raises(ZeroDivisionError):
            dataclasses.replace(REF_PARAMS, **{name: 0}).validate()


def test_out_of_range_p_and_m_rejected():
    co = family4.derive_coefficients(REF_PARAMS)
    plo, phi = co.p_interval
    mlo, mhi = co.m_interval
    for bad in (plo, phi, plo - 0.01, phi + 0.01):
        with pytest.raises(ParamRangeError):
            family4.derive_coefficients(dataclasses.replace(REF_PARAMS, p=bad))
    for bad in (mlo, mhi, mlo - 0.01, mhi + 0.01):
        with pytest.raises(ParamRangeError):
            family4.derive_coefficients(dataclasses.replace(REF_PARAMS, m=bad))


def test_zero_seed_rejected():
    with pytest.raises(SeedError):
        dataclasses.replace(REF_PARAMS, seed_c5=np.zeros(3)).validate()


def test_paired_seed_lengths_enforced():
    with pytest.raises(DimensionError):
        dataclasses.replace(REF_PARAMS, seed_e4=np.ones(2))
    with pytest.raises(DimensionError):
        dataclasses.replace(REF_PARAMS, seed_theta5=np.ones(4))


def test_bundle_passes_conditions():
    bundle = family4.build(REF_PARAMS)
    report = check4(bundle.E, bundle.G, bundle.L, bundle.T, bundle.Y, bundle.W,
                    bundle.psi)
    assert report.passed, report.failing()


def test_random_draws_pass_conditions():
    rng = np.random.default_rng(5150)
    for _ in range(8):
        bundle = family4.build(_random_params(rng))
        report = check4(bundle.E, bundle.G, bundle.L, bundle.T, bundle.Y, bundle.W,
                        bundle.psi)
        assert report.passed, report.failing()


def test_wide_modulus_sweep_passes_every_equality():
    """1000 points with coefficient moduli log-uniform in [1e-2, 1e2], where
    the closed-form cores cancel large terms and only their McWeeny polish
    keeps L idempotent to 1e-12.  Only C.10 may miss, at genuinely
    near-degenerate points under its 1e-6 threshold."""
    rng = np.random.default_rng(5)
    near_degenerate = 0
    for _ in range(1000):
        report = verify_bundle(family4.build(_random_params(rng, tries=20, moduli=(1e-2, 1e2))))
        assert set(report.failing()) <= {"C.10"}, report.failing()
        near_degenerate += not report.passed
    assert near_degenerate <= 10


def test_vector_seeds_widen_blocks():
    rng = np.random.default_rng(77)
    params = _random_params(rng, seed_dims=(2, 1, 2, 2, 2, 1, 3, 3))
    params = dataclasses.replace(params, dim_block2=2, dim_block6=1)
    bundle = family4.build(params)
    assert bundle.space.partition == (2, 2, 1, 2, 2, 1, 1, 3)
    report = check4(bundle.E, bundle.G, bundle.L, bundle.T, bundle.Y, bundle.W,
                    bundle.psi)
    assert report.passed, report.failing()


def test_reference_bundle_has_expected_correlations():
    bundle = family4.build(REF_PARAMS)
    identities = {f.identity for f in detect_correlations(bundle)}
    assert "(1-W)Y psi = 0" in identities
    assert "(1-T)(1-W)Y psi = 0" in identities


@pytest.mark.parametrize("value", [2.5, True, "3", None], ids=["fraction", "bool", "string",
                                                                "none"])
def test_integer_fields_are_read_by_as_int(value):
    with pytest.raises(DimensionError, match="dim_block2 must be an integer"):
        dataclasses.replace(REF_PARAMS, dim_block2=value)


def test_integer_fields_keep_integral_values():
    p = dataclasses.replace(REF_PARAMS, dim_block2=2.0, dim_block6=np.int64(3))
    assert (p.dim_block2, p.dim_block6) == (2, 3)
    assert type(p.dim_block2) is int and type(p.dim_block6) is int
    with pytest.raises(DimensionError, match="a block size must be at least 1, got 0"):
        dataclasses.replace(REF_PARAMS, dim_block6=0).space()
