import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoslit import linalg
from twoslit.errors import DimensionError


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
        assert linalg.projector_rank(proj) == k


def test_projector_rank_rejects_non_integer_trace():
    with pytest.raises(DimensionError):
        linalg.projector_rank(np.diag([0.4, 0.3]))


def test_tolerance_env_override(monkeypatch):
    assert linalg.default_tol() == 1e-12
    monkeypatch.setenv("TWOSLIT_TOL", "1e-6")
    assert linalg.default_tol() == 1e-6
    monkeypatch.setenv("TWOSLIT_NONZERO_TOL", "1e-2")
    assert linalg.default_nonzero_tol() == 1e-2
