"""The n^2-unknown linear system of a detector identity: the oracle for the
closed-form solution sets of ``twoslit.solver``.

A Hermitian unknown G on H_I is a real coordinate vector (``coords``, the
inverse of ``solver.from_coords``).  ``system_matrix(rows)`` takes it to
the real, then the imaginary parts of ``(G @ rows).reshape(-1)``; the
right-hand side of core ``name`` is ``rows`` with the columns outside its
detector's blocks set to zero.  ``LinearSystem.solve`` takes one SVD of
the shared matrix for a minimum-norm least-squares particular point per
core and an orthonormal basis of the homogeneous nullspace, and
``free_block`` splits such a set as P_A + V X V^dagger through the eigh
of sum_k H_k^2 over the nullspace directions H_k.
"""

from dataclasses import dataclass

import numpy as np

from twoslit.linalg import as_cmatrix
from twoslit.solver import from_coords


def coords(m):
    """Coordinates of a Hermitian matrix: the diagonal, then the real and
    imaginary part of each entry above it in row-major order."""
    m = as_cmatrix(m)
    n = m.shape[0]
    upper = m[np.triu_indices(n, 1)]
    c = np.empty(n * n)
    c[:n] = m.diagonal().real
    c[n::2] = upper.real
    c[n + 1::2] = upper.imag
    return c


def system_matrix(rows):
    """The real matrix taking ``coords(G)`` to the real, then the imaginary
    parts of ``(G @ rows).reshape(-1)``; column k is the k-th basis matrix
    times ``rows``, written by the index arrays of ``from_coords``."""
    n, m = rows.shape
    iu, ju = np.triu_indices(n, 1)
    diag, sym = np.arange(n), n + 2 * np.arange(len(iu))  # sym + 1: antisymmetric units
    cols = np.zeros((n * n, n, m), dtype=complex)
    cols[diag, diag] = rows
    cols[sym, iu] = rows[ju]
    cols[sym, ju] = rows[iu]
    cols[sym + 1, iu] = 1j * rows[ju]
    cols[sym + 1, ju] = -1j * rows[iu]
    cols = cols.reshape(n * n, -1)
    return np.concatenate([cols.real, cols.imag], axis=1).T


@dataclass
class OracleSet:
    """particular + span(nullspace) in ``coords`` coordinates."""

    name: str
    n: int
    particular: np.ndarray       # coordinate vector
    nullspace: np.ndarray        # orthonormal rows
    residual: float              # least-squares residual of the particular

    @property
    def nullity(self):
        return self.nullspace.shape[0]

    def member(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return from_coords(self.particular + self.nullspace.T @ t, self.n)


class LinearSystem:
    """The system matrix of an assembled ``solver.ConstraintSystem`` and a
    right-hand side per unknown core."""

    def __init__(self, cs):
        self.n = cs.space.dim_i
        self.matrix = system_matrix(cs.rows)
        self.rhs = {}
        for name, mask in cs.masks.items():
            b = (cs.rows * mask).reshape(-1)
            self.rhs[name] = np.concatenate([b.real, b.imag])

    def residual_of(self, name, m):
        return float(np.linalg.norm(self.matrix @ coords(m) - self.rhs[name]))

    def solve(self):
        """One SVD with one rank cut for every core: the particular points
        from the kept singular triplets, the nullspace from the rest of V^T
        (full only with fewer rows than unknowns)."""
        a = self.matrix
        u, sv, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
        smax = sv[0] if sv.size else 0.0
        rank = int(np.sum(sv > 1e-10 * max(smax, 1.0)))
        b = np.column_stack(list(self.rhs.values()))
        x0 = (b.T @ u[:, :rank] / sv[:rank]) @ vt[:rank]  # one particular point per row
        return [OracleSet(name=name, n=self.n, particular=x, nullspace=vt[rank:],
                          residual=float(np.linalg.norm(a @ x - rhs)))
                for (name, rhs), x in zip(self.rhs.items(), x0)]


def free_block(sol: OracleSet):
    """``(P_A, V, x0, c)`` of the set P_A + V X V^dagger: V's orthonormal
    columns span the subspace F every nullspace direction H_k acts on (the
    range of sum_k H_k^2), P_A is the particular point with its F part cut,
    and the member at coordinates t has the block x0 + tensordot(t, c, 1)."""
    h = from_coords(sol.nullspace, sol.n)
    w, u = np.linalg.eigh((h @ h).sum(axis=0))
    v = u[:, w > 1e-10 * w[-1]]
    vh = v.conj().T
    g0 = from_coords(sol.particular, sol.n)
    q = np.eye(sol.n) - v @ vh
    return q @ g0 @ q, v, vh @ g0 @ v, vh @ h @ v
