import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import projector_rank
from twoslit import linalg
from twoslit.errors import DimensionError, FormatError


def _rand_complex(rng, rows, cols, scale=2.0):
    return scale * (rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_commutator_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    a, b = _rand_complex(rng, 4, 4), _rand_complex(rng, 4, 4)
    assert np.array_equal(linalg.commutator(a, b), -linalg.commutator(b, a))


def test_commutator_requires_square():
    with pytest.raises(DimensionError):
        linalg.commutator(np.ones((2, 3)), np.ones((2, 3)))


def test_frobenius_norm_value():
    assert linalg.frobenius_norm(np.array([[3.0, 4.0j], [0.0, 0.0]])) == pytest.approx(5.0)


def test_projector_predicates():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert linalg.is_hermitian(p) and linalg.is_idempotent(p)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not linalg.is_hermitian(n)
    assert not linalg.is_idempotent(np.array([[2.0]]))
    assert not linalg.is_hermitian(np.ones((2, 3)))


def test_random_projector_trace_is_integer_rank():
    rng = np.random.default_rng(17)
    h = _rand_complex(rng, 6, 6)
    h = h + h.conj().T
    _, vecs = np.linalg.eigh(h)
    for k in range(7):
        proj = vecs[:, :k] @ vecs[:, :k].conj().T
        assert linalg.is_hermitian(proj, 1e-12)
        assert linalg.is_idempotent(proj, 1e-12)
        assert projector_rank(proj) == k


def test_projector_rank_rejects_non_integer_trace():
    with pytest.raises(DimensionError):
        projector_rank(np.diag([0.4, 0.3]))


def test_tolerance_env_override(monkeypatch):
    assert linalg.default_tol() == 1e-12
    monkeypatch.setenv("TWOSLIT_TOL", "1e-6")
    assert linalg.default_tol() == 1e-6
    monkeypatch.setenv("TWOSLIT_NONZERO_TOL", "1e-2")
    assert linalg.default_nonzero_tol() == 1e-2


def test_tolerance_takes_the_explicit_value_then_the_environment_then_the_default(monkeypatch):
    monkeypatch.delenv("TWOSLIT_TOL", raising=False)
    assert linalg.tolerance() == linalg.DEFAULT_TOL
    assert linalg.tolerance(env="TWOSLIT_X", default=0.5) == 0.5
    monkeypatch.setenv("TWOSLIT_TOL", "")  # an empty variable counts as unset
    assert linalg.tolerance() == linalg.DEFAULT_TOL
    monkeypatch.setenv("TWOSLIT_TOL", "1e-6")
    assert linalg.tolerance() == 1e-6
    assert linalg.tolerance(1e-3) == 1e-3 and type(linalg.tolerance(1)) is float
    monkeypatch.setenv("TWOSLIT_TOL", "0")
    assert linalg.tolerance() == 0.0
    assert linalg.tolerance("0") == 0.0 and linalg.tolerance(0) == 0.0


@pytest.mark.parametrize("bad", ["abc", "nan", "-1", "inf", "-inf", " "])
def test_tolerance_rejects_a_bad_environment_value(monkeypatch, bad):
    monkeypatch.setenv("TWOSLIT_NONZERO_TOL", bad)
    with pytest.raises(FormatError, match=f"TWOSLIT_NONZERO_TOL must be a finite number >= 0, "
                                          f"got '{bad}'"):
        linalg.default_nonzero_tol()


@pytest.mark.parametrize("bad", ["abc", float("nan"), -1, -1e-300, float("inf"), [1e-3]],
                         ids=["string", "nan", "minus-1", "tiny-negative", "inf", "list"])
def test_tolerance_rejects_a_bad_explicit_value(monkeypatch, bad):
    monkeypatch.setenv("TWOSLIT_TOL", "1e-6")  # an explicit value is read even when set
    with pytest.raises(FormatError, match="tolerance must be a finite number >= 0"):
        linalg.tolerance(bad)
    with pytest.raises(FormatError):
        linalg.is_hermitian(np.eye(2), bad)
    with pytest.raises(FormatError):
        linalg.is_idempotent(np.eye(2), bad)
    with pytest.raises(FormatError):  # a NaN bound would accept any trace
        projector_rank(np.diag([0.4, 0.3]), bad)


def test_projector_predicates_read_the_environment(monkeypatch):
    almost = np.diag([1.0, 1e-9])
    assert not linalg.is_idempotent(almost)
    monkeypatch.setenv("TWOSLIT_TOL", "1e-8")
    assert linalg.is_idempotent(almost)
    monkeypatch.setenv("TWOSLIT_TOL", "abc")
    with pytest.raises(FormatError, match="TWOSLIT_TOL"):
        linalg.is_hermitian(almost)
