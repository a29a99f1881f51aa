"""Brute-force constraint solver, independent of the closed-form families.

Given the which-slit projector E_I, a state psi whose detector pattern is
consistent (T psi = E psi blockwise), and the block partition, the solver
assembles the linear system a detector identity imposes on the entries of
a Hermitian unknown (G_I from Y psi = G psi, and additionally L_I from
W psi = L psi in 8-block mode), describes its full affine solution set,
and finds its projectors by purifying only each member's free block.  It
is the oracle that certifies the closed-form generators.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StateShapeError
from .linalg import as_cmatrix, is_hermitian, is_idempotent
from .space import ProductSpace, as_int, as_state, block_weights, detector_flags, slit_projector


def from_coords(c, n):
    """Hermitian matrix from its ``coords`` coordinates; a stack of
    coordinate vectors of shape (..., n^2) gives a stack of matrices, and
    ``from_coords(np.eye(n * n), n)`` is the real basis of the n x n
    Hermitian matrices: n diagonal units, then for each i < j a symmetric
    and an antisymmetric-imaginary unit."""
    c = np.asarray(c, dtype=float)
    m = np.zeros(c.shape[:-1] + (n, n), dtype=complex)
    diag = np.arange(n)
    iu, ju = np.triu_indices(n, 1)
    m[..., diag, diag] = c[..., :n]
    m[..., iu, ju] = c[..., n::2] + 1j * c[..., n + 1::2]
    m[..., ju, iu] = c[..., n::2] - 1j * c[..., n + 1::2]
    return m


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


@dataclass
class ConstraintSystem:
    """One real system matrix, (2 * dim) x n^2, shared by every unknown core,
    and a right-hand side per core: "G", then "L" in three-detector mode."""

    space: ProductSpace
    matrix: np.ndarray
    rhs: dict
    degenerate: bool

    @property
    def mode(self):
        return self.space.mode

    def residual_of(self, name, m):
        return float(np.linalg.norm(self.matrix @ coords(m) - self.rhs[name]))


@dataclass
class AffineSolutionSet:
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


def _pattern_check(psi, sp, in_e, scale):
    """T psi = E psi, verified on the norm of each (H_I row, H_II block)."""
    t = np.array(detector_flags(sp, "T"), dtype=bool)
    forbidden = np.where(in_e[:, None], ~t, t)
    norms = np.sqrt(block_weights(psi, sp))
    bad = np.argwhere(forbidden & (norms > 1e-10 * scale))
    if bad.size:
        j, k = bad[0]
        raise StateShapeError(
            f"state has weight in H_II block {k + 1} over H_I row {j + 1}, "
            "violating the detector support pattern")


def _system_matrix(rows):
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


def assemble(E_I, psi, sp: ProductSpace) -> ConstraintSystem:
    """Linear system(s) whose Hermitian solutions reproduce the detector
    outcomes: {G : Y psi = (G x 1) psi} and, in 8-block mode,
    {L : W psi = (L x 1) psi}.  ``E_I`` must be ``slit_projector(sp)`` and
    ``psi`` a finite state of length ``sp.dim``, else StateShapeError."""
    E_I = as_cmatrix(E_I)
    if not np.array_equal(E_I, slit_projector(sp)):
        raise StateShapeError(f"E_I must be the slit projector of dim_i={sp.dim_i}")
    psi = as_state(psi, sp, StateShapeError)

    scale = max(float(np.linalg.norm(psi)), 1.0)
    _pattern_check(psi, sp, np.arange(sp.dim_i) < sp.rank_e, scale)

    rows = psi.reshape(sp.dim_i, sp.dim_ii)
    rhs = {}
    for name, _, flags in sp.pairs[1:]:  # E_I is given: a right-hand side per core after it
        rhs_c = (rows * np.repeat(flags, sp.partition)).reshape(-1)
        rhs[name] = np.concatenate([rhs_c.real, rhs_c.imag])

    e_psi = (E_I @ rows).reshape(-1)
    degenerate = bool(np.linalg.norm(e_psi) <= 1e-10 * scale
                      or np.linalg.norm(psi - e_psi) <= 1e-10 * scale)
    return ConstraintSystem(space=sp, matrix=_system_matrix(rows), rhs=rhs, degenerate=degenerate)


def solve(cs: ConstraintSystem):
    """Affine solution set for each unknown core: minimum-norm least-squares
    particular point plus an orthonormal basis of the homogeneous nullspace.

    The cores share one system matrix, so one SVD with one rank cut serves
    them all: the particular points from the kept singular triplets, the
    nullspace from the rest of V^T (full only with fewer rows than unknowns).
    """
    a = cs.matrix
    u, sv, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > 1e-10 * max(smax, 1.0)))
    b = np.column_stack(list(cs.rhs.values()))
    x0 = (b.T @ u[:, :rank] / sv[:rank]) @ vt[:rank]  # one particular point per row
    return [AffineSolutionSet(
        name=name, n=cs.space.dim_i, particular=x, nullspace=vt[rank:],
        residual=float(np.linalg.norm(a @ x - rhs)))
        for (name, rhs), x in zip(cs.rhs.items(), x0)]


def _purify(m, max_iter=200, stop=1e-13):
    """Iterate m <- 3 m^2 - 2 m^3 on each Hermitian matrix of the stack m;
    converges to a projector from nearby starting points and preserves the
    affine solution set.

    Returns one entry per matrix: the projector once ``max|m^2 - m|`` falls
    below ``stop`` (tested before each step), or None when a step gives an
    entry not within 1e6 in modulus (NaN included), or after ``max_iter``
    steps.  Each matrix takes its own steps, unaffected by the others.
    Before the first product, a start with a column of ``m - I/2`` longer
    than ``_ESCAPE`` (or not finite) is given None: it has an eigenvalue
    whose orbit diverges.  That screen holds for Hermitian starts only; a
    non-normal one such as [[0, 100], [0, 0]] has a long column yet
    purifies to 0.
    """
    out = [None] * len(m)
    eye = np.eye(m.shape[-1])
    live = np.flatnonzero(np.linalg.norm(m - eye / 2, axis=-2).max(axis=-1) <= _ESCAPE)
    m = m[live]
    for _ in range(max_iter):
        if not live.size:
            break
        m2 = m @ m
        done = np.max(np.abs(m2 - m), axis=(1, 2)) < stop
        for k, mk in zip(live[done], m[done]):
            out[k] = mk
        m, m2, live = m[~done], m2[~done], live[~done]
        m = 3 * m2 - 2 * m2 @ m
        ok = np.max(np.abs(m), axis=(1, 2)) <= 1e6  # False for NaN too
        m, live = m[ok], live[ok]
    return out


# Matrix entries purified as one stack: bounds memory for any draw count
# (1024 free blocks at f = 4, 4096 at f = 2).
_STACK_ENTRIES = 1 << 14
_BOX = 2.0             # half-width of the centered box of nullspace coordinates drawn
_PROJECTOR_TOL = 1e-9  # of the projector predicates the fixed part P_A must pass
# With y = x - 1/2 a step maps an eigenvalue y to 3y/2 - 2y^3, of modulus
# |y| (2y^2 - 3/2) > |y| once |y| > sqrt(5)/2 ~ 1.118, a ratio that grows
# each step: every bounded orbit stays within sqrt(5)/2 of 1/2.  A column
# of a Hermitian m - I/2 is no longer than its largest |eigenvalue|, so a
# column longer than _ESCAPE puts an eigenvalue on a diverging orbit.
_ESCAPE = 1.2


def _free_block(sol: AffineSolutionSet):
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


def _stack_size(f):
    """Free blocks of size f x f purified as one stack."""
    return max(1, _STACK_ENTRIES // max(1, f * f))


def filter_projectors(sol: AffineSolutionSet, sp: ProductSpace,
                      draws=10000, seed=0, candidates=()):
    """Projector members of an affine solution set.

    Only the blocks X of the set P_A + V X V^dagger (``_free_block``) are
    purified, as McWeeny maps P_A plus a block to P_A plus the purified
    block, so every survivor lies in the set.  Candidates (if given) are
    compressed to F by their Hermitian part (m + m^dagger) / 2 and purified
    first, then ``draws`` nullspace coordinate points uniform in
    [-_BOX, _BOX]^nullity, in stacks of ``_stack_size(f)`` blocks.
    Survivors are distinct and in a fixed order for a fixed seed; there are
    none when P_A is not a projector to ``_PROJECTOR_TOL``.
    """
    draws = as_int(draws, "draws", lo=0)
    seed = as_int(seed, "seed", lo=0)
    p_a, v, x0, c = _free_block(sol)
    if not (is_hermitian(p_a, _PROJECTOR_TOL) and is_idempotent(p_a, _PROJECTOR_TOL)):
        return []
    vh, found = v.conj().T, []

    def consider(blocks):
        # a point set (F = 0) has empty blocks, each a projector already
        ys = _purify(blocks) if blocks.size else blocks
        for m in (p_a + v @ y @ vh for y in ys if y is not None):
            if all(np.max(np.abs(prev - m)) > 1e-8 for prev in found):
                found.append(m)

    cands = [as_cmatrix(m) for m in candidates]
    consider(np.array([vh @ ((m + m.conj().T) / 2) @ v for m in cands]))
    rng = np.random.default_rng(seed)
    stack = _stack_size(v.shape[1])
    for start in range(0, draws, stack):
        t = rng.uniform(-_BOX, _BOX, size=(min(stack, draws - start), sol.nullity))
        consider(x0 + np.tensordot(t, c, 1))
    return found
