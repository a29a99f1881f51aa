import dataclasses
import math
import warnings

import numpy as np
import pytest

from helpers import projector_rank, scaled_seeds
from twoslit import family3, fixtures
from twoslit.errors import ParamRangeError, SeedError
from twoslit.linalg import is_hermitian, is_idempotent
from twoslit.verify import check3, detect_correlations, verify_bundle

REF = fixtures.fixture("spin32")
REF_PARAMS = REF.params


def _random_params(rng, seed_dims=(1, 1, 1, 1)):
    def coeff():
        return rng.uniform(0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    def seed(n):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return v / np.linalg.norm(v)

    mu2, mu3, lam2, lam3 = coeff(), coeff(), coeff(), coeff()
    k_mu = abs(mu3) ** 2 / (1 + abs(mu3) ** 2)
    s_mu = 1 + abs(mu2) ** 2 + abs(mu3) ** 2
    p = k_mu + rng.uniform(0.05, 0.95) / s_mu
    return family3.Family3Params(
        p=p,
        theta=rng.uniform(0, 2 * np.pi),
        mu2=mu2,
        mu3=mu3,
        lambda2=lam2,
        lambda3=lam3,
        seed_a3=seed(seed_dims[0]),
        seed_b2=seed(seed_dims[1]),
        seed_gamma3=seed(seed_dims[2]),
        seed_delta2=seed(seed_dims[3]),
    )


def test_derived_scale_at_reference():
    assert family3.derive_u(REF_PARAMS) == pytest.approx(1 / (6 * math.sqrt(5)), abs=1e-15)


def test_phase_flips_scale_sign():
    flipped = dataclasses.replace(REF_PARAMS, theta=math.pi)
    assert family3.derive_u(flipped) == pytest.approx(-1 / (6 * math.sqrt(5)), abs=1e-15)


def test_scale_vanishes_at_interval_edge():
    lo, hi = REF_PARAMS.p_interval
    near = dataclasses.replace(REF_PARAMS, p=lo + 1e-9)
    assert abs(family3.derive_u(near)) < 1e-4
    for bad_p in (lo, hi, lo - 0.01, hi + 0.01):
        with pytest.raises(ParamRangeError):
            dataclasses.replace(REF_PARAMS, p=bad_p).validate()


def test_forced_diagonal_value():
    assert family3.derive_q(REF_PARAMS) == pytest.approx(8 / 15, abs=1e-14)


def test_uncentered_increment_is_not_idempotent():
    # The naive increment evaluates to 1/30 at the reference point; using it
    # directly as the corner diagonal breaks idempotence, which is what forced
    # the k_lambda offset in derive_q.
    q_raw = family3.q_increment(REF_PARAMS)
    assert q_raw == pytest.approx(1 / 30, abs=1e-14)
    assert q_raw != pytest.approx(8 / 15, abs=1e-3)

    good, u, q = family3.core_projector(REF_PARAMS)
    assert q == pytest.approx(8 / 15, abs=1e-14)
    assert is_idempotent(good, 1e-12)

    bad_corner = family3._corner_block(
        q_raw, REF_PARAMS.lambda2, REF_PARAMS.lambda3, REF_PARAMS.k_lambda
    )
    bad = good.copy()
    bad[3:, 3:] = bad_corner
    assert np.max(np.abs(bad @ bad - bad)) > 1e-3


def test_idempotence_across_random_draws():
    rng = np.random.default_rng(99)
    for _ in range(100):
        params = _random_params(rng)
        g, _, _ = family3.core_projector(params)
        assert is_hermitian(g, 1e-11)
        assert is_idempotent(g, 1e-11)
        assert projector_rank(g, 1e-9) == 3


def test_zero_coefficient_subfamily():
    params = family3.Family3Params(p=0.25, mu2=1, mu3=0, lambda2=1, lambda3=0)
    g, u, q = family3.core_projector(params)
    assert q == pytest.approx(0.25, abs=1e-14)
    assert is_idempotent(g, 1e-12)


def test_core_matches_stored_reference():
    g, u, q = family3.core_projector(REF_PARAMS)
    assert np.max(np.abs(g - REF.cores["G_I"])) < 1e-12
    assert u == pytest.approx(REF.cores["G_I"][0, 3].real, abs=1e-14)


def test_state_matches_stored_reference():
    psi = family3.state(REF_PARAMS)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(psi - REF.psi)) < 1e-12


@pytest.mark.parametrize("exponent", [515, -520, -540])
def test_state_of_huge_or_tiny_seeds_is_bit_identical(exponent):
    # psi is linear in the seeds, so seeds scaled by a power of two give the
    # same unit state.  Unscaled, a norm of entries near 2**515 overflowed to
    # inf (an all-zero state), near 2**-520 lost bits in subnormal squares,
    # and near 2**-540 underflowed to 0, so the seeds were refused as zero.
    params = _random_params(np.random.default_rng(631), seed_dims=(2, 1, 3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = family3.build(scaled_seeds(params, exponent))
    assert np.array_equal(bundle.psi.view(np.int64), family3.state(params).view(np.int64))
    assert verify_bundle(bundle).passed


@pytest.mark.parametrize("psi", [np.zeros(4, complex), np.array([1, np.inf, 0], complex),
                                 np.array([np.nan, 1], complex)], ids=["zero", "inf", "nan"])
def test_unit_state_refuses_a_zero_or_non_finite_norm(psi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamRangeError, match="norm"):
            family3.unit_state(psi)


def test_state_component_placement_is_forced():
    # Swapping the first-block components of rows 2 and 3 looks superficially
    # plausible but breaks the detector identity on the second branch.
    bundle = family3.build(REF_PARAMS)
    assert np.linalg.norm(bundle.Y @ bundle.psi - bundle.G @ bundle.psi) < 1e-12

    swapped = bundle.psi.copy()
    swapped[[4, 8]] = swapped[[8, 4]]
    swapped /= np.linalg.norm(swapped)
    assert np.linalg.norm(bundle.Y @ swapped - bundle.G @ swapped) > 0.3


def test_second_branch_coupling_ratio():
    rng = np.random.default_rng(7)
    params = _random_params(rng)
    psi = family3.state(params)
    sp = params.space()
    rows = psi.reshape(sp.dim_i, sp.dim_ii)
    last_block = slice(sum(sp.partition[:3]), sp.dim_ii)
    lam = -params.lambda2 * np.conj(params.lambda3) / (1 + abs(params.lambda3) ** 2)
    d2 = rows[4, last_block]
    d3 = rows[5, last_block]
    assert np.max(np.abs(d3 - lam * d2)) < 1e-14


def test_bundle_satisfies_conditions_and_has_no_correlations():
    rng = np.random.default_rng(42)
    for _ in range(25):
        bundle = family3.build(_random_params(rng))
        report = check3(bundle.E, bundle.G, bundle.T, bundle.Y, bundle.psi, space=bundle.space)
        assert report.passed, report.failing()
        assert detect_correlations(bundle) == []


def test_vector_seeds_widen_blocks():
    rng = np.random.default_rng(11)
    params = _random_params(rng, seed_dims=(2, 1, 1, 3))
    bundle = family3.build(params)
    assert bundle.space.partition == (2, 1, 1, 3)
    assert bundle.space.dim == 6 * 7
    report = check3(bundle.E, bundle.G, bundle.T, bundle.Y, bundle.psi, space=bundle.space)
    assert report.passed, report.failing()


def test_zero_seed_rejected():
    params = family3.Family3Params(
        p=8 / 15, mu2=1, mu3=1, lambda2=1, lambda3=1, seed_b2=np.zeros(2)
    )
    with pytest.raises(SeedError):
        params.validate()


def test_build_exposes_derived_values():
    bundle = family3.build(REF_PARAMS)
    assert bundle.derived["u"] == pytest.approx(bundle.G_I[0, 3].real, abs=1e-14)
    assert bundle.derived["q"] == pytest.approx(bundle.G_I[3, 3].real, abs=1e-14)
    assert bundle.E.shape == (24, 24)
    assert projector_rank(bundle.G_I) == 3
