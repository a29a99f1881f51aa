import dataclasses
import types
import warnings

import numpy as np
import pytest

from twoslit import family3, family4, fixtures
from twoslit.errors import DimensionError, NonCommutingError, ZeroConditioningError
from twoslit.verify import (
    check3,
    check4,
    conditional_probability,
    detect_correlations,
    verify_bundle,
)


@pytest.fixture(scope="module")
def b3():
    return fixtures.fixture_bundle("spin32")


@pytest.fixture(scope="module")
def b4():
    return fixtures.fixture_bundle("dim10")


def test_reference_bundles_pass(b3, b4):
    r3 = check3(b3.E, b3.G, b3.T, b3.Y, b3.psi, space=b3.space)
    assert r3.passed and len(r3.entries) == 6
    r4 = check4(b4.E, b4.G, b4.L, b4.T, b4.Y, b4.W, b4.psi)
    assert r4.passed and len(r4.entries) == 10


def test_entries_carry_kinds_and_residuals(b3):
    r = check3(b3.E, b3.G, b3.T, b3.Y, b3.psi, space=b3.space)
    assert r.entry("C.1").kind == "nonzero" and r.entry("C.1").residual > 1e-3
    assert r.entry("C.5").kind == "nonzero"
    for name in ("C.2", "C.3", "C.4"):
        e = r.entry(name)
        assert e.kind == "eq" and e.residual < 1e-12
    assert r.entry("C.6").kind == "structural"
    with pytest.raises(KeyError):
        r.entry("C.99")


def test_compatible_detector_replacing_incompatible_fails(b3):
    # G := identity commutes with E, so the incompatibility condition dies.
    eye = np.eye(b3.space.dim)
    r = check3(b3.E, eye, b3.T, b3.Y, b3.psi)
    assert not r.passed
    assert "C.1" in r.failing()


def test_slit_eigenstate_fails_nontriviality(b3):
    # A state supported on one slit is fixed by E: no superposition left.
    psi = np.zeros(b3.space.dim, dtype=complex)
    psi[0] = 1.0
    r = check3(b3.E, b3.G, b3.T, b3.Y, psi)
    assert "C.5" in r.failing()


def test_swapped_detectors_fail(b4):
    r = check4(b4.E, b4.G, b4.L, b4.T, b4.W, b4.Y, b4.psi)
    assert set(r.failing()) == {"C.5", "C.6"}


def test_duplicate_property_fails_incompatibility(b4):
    r = check4(b4.E, b4.G, b4.G, b4.T, b4.Y, b4.W, b4.psi)
    assert "C.3" in r.failing()


def test_shape_mismatch_rejected(b3):
    with pytest.raises(DimensionError):
        check3(b3.E[:6, :6], b3.G, b3.T, b3.Y, b3.psi)
    with pytest.raises(DimensionError):
        check3(b3.E, b3.G, b3.T, b3.Y, np.zeros(24))


def test_ray_invariance(b3):
    scaled = 2.7 * np.exp(0.3j) * b3.psi
    r1 = check3(b3.E, b3.G, b3.T, b3.Y, b3.psi)
    r2 = check3(b3.E, b3.G, b3.T, b3.Y, scaled)
    for e1, e2 in zip(r1.entries, r2.entries):
        assert e1.passed == e2.passed
        assert e1.residual == pytest.approx(e2.residual, abs=1e-13)


def test_conditional_probabilities_on_reference(b3):
    eye = np.eye(b3.space.dim)
    assert conditional_probability(b3.E, b3.T, b3.psi) == pytest.approx(1.0, abs=1e-10)
    assert conditional_probability(b3.T, b3.E, b3.psi) == pytest.approx(1.0, abs=1e-10)
    assert conditional_probability(b3.E, b3.E, b3.psi) == pytest.approx(1.0, abs=1e-12)
    assert conditional_probability(b3.T, eye, b3.psi) == pytest.approx(0.5, abs=1e-12)
    assert np.vdot(b3.psi, b3.T @ b3.psi).real == pytest.approx(0.5, abs=1e-12)


def test_conditional_probability_requires_commuting(b3):
    with pytest.raises(NonCommutingError):
        conditional_probability(b3.E, b3.G, b3.psi)


def test_conditional_probability_applies_an_explicit_tolerance():
    # [a, b] has Frobenius norm 2.8e-11: within 1e-10, not within 1e-15
    a = np.diag([1.0, 0.0])
    b = np.array([[0.5, 2e-11], [2e-11, 0.5]])
    psi = np.array([1.0, 0.0])
    with pytest.raises(NonCommutingError):
        conditional_probability(a, b, psi, tol=1e-15)
    assert conditional_probability(a, b, psi, tol=1e-10) == pytest.approx(1.0, abs=1e-12)


def test_conditional_probability_requires_positive_event(b3):
    zero = np.zeros((b3.space.dim, b3.space.dim))
    with pytest.raises(ZeroConditioningError):
        conditional_probability(b3.E, zero, b3.psi)


def test_reference_correlations(b3, b4):
    assert detect_correlations(b3) == []
    identities = {f.identity for f in detect_correlations(b4)}
    assert "(1-W)Y psi = 0" in identities
    assert "(1-T)(1-W)Y psi = 0" in identities
    for f in detect_correlations(b4):
        assert f.residual <= 1e-12


def test_degenerate_state_creates_correlation(b3):
    # Killing the second and fourth block components leaves a state on
    # which one detector's outcome pins down the other's.
    psi = b3.psi.copy()
    for row in range(6):
        for block in (1, 3):
            psi[row * 4 + block] = 0.0
    psi /= np.linalg.norm(psi)
    probe = types.SimpleNamespace(T=b3.T, Y=b3.Y, psi=psi)
    identities = {f.identity for f in detect_correlations(probe)}
    assert "TY psi = T psi" in identities
    assert "YT psi = Y psi" not in identities


def test_verify_bundle_appends_projector_preconditions(b3):
    report = verify_bundle(b3)
    names = [e.name for e in report.entries]
    for tag in ("projector(E)", "projector(G)", "projector(T)", "projector(Y)"):
        assert tag in names
    assert report.passed


def test_verify_bundle_catches_tampered_entry(b3):
    tampered = types.SimpleNamespace(
        space=b3.space, E=b3.E, G=b3.G.copy(), T=b3.T, Y=b3.Y, psi=b3.psi, W=None
    )
    tampered.G[0, 2] += 1e-3
    report = verify_bundle(tampered)
    assert not report.passed
    assert report.failing() == ["projector(G)"]


def test_report_to_dict_shape(b4):
    d = verify_bundle(b4).to_dict()
    assert d["passed"] is True
    assert {c["name"] for c in d["conditions"]} >= {f"C.{i}" for i in range(1, 11)}
    assert all(set(c) == {"name", "kind", "residual", "pass"} for c in d["conditions"])
    assert {c["identity"] for c in d["correlations"]} == {
        "(1-W)Y psi = 0", "(1-T)(1-W)Y psi = 0"
    }


@pytest.mark.parametrize("name, failing", [
    ("spin32", ["C.2", "C.3", "C.5"]),
    ("dim10", ["C.4", "C.5", "C.6", "C.10"]),
])
def test_non_finite_state_fails_every_condition_on_psi(name, failing):
    # Tracking combines a commutator norm with ||D psi - P psi||; a NaN in
    # the second must not be dropped by the maximum.
    bundle = fixtures.fixture_bundle(name)
    psi = bundle.psi.copy()
    psi[0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN state fails its checks without a numpy warning
        report = verify_bundle(dataclasses.replace(bundle, psi=psi))
    assert report.method == "dense"
    assert report.failing() == failing
