"""Brute-force constraint solver, independent of the closed-form families.

Given the which-slit projector E_I, a state psi whose detector pattern is
consistent (T psi = E psi blockwise), and the block partition, the solver
assembles the linear system a detector identity imposes on the entries of
a Hermitian unknown (G_I from Y psi = G psi, and additionally L_I from
W psi = L psi in 8-block mode), describes its full affine solution set,
and searches that set for genuine projectors.  It is used as the oracle
that certifies the closed-form generators.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StateShapeError
from .linalg import as_cmatrix, as_cvector, is_hermitian, is_idempotent
from .space import ProductSpace, block_weights, detector_flags


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
class LinearTarget:
    """One unknown matrix and the real linear system pinning it down."""

    name: str
    n: int
    matrix: np.ndarray  # real, (2 * dim) x n^2
    rhs: np.ndarray

    def residual_of(self, m):
        return float(np.linalg.norm(self.matrix @ coords(m) - self.rhs))


@dataclass
class ConstraintSystem:
    space: ProductSpace
    mode: int
    targets: list
    degenerate: bool
    psi: np.ndarray

    def target(self, name):
        for t in self.targets:
            if t.name == name:
                return t
        raise KeyError(name)

    def residual_of(self, name, m):
        return self.target(name).residual_of(m)


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

    def project(self, m):
        """Closest member (in coordinates) to an arbitrary Hermitian m."""
        c = coords(as_cmatrix(m))
        delta = c - self.particular
        return from_coords(self.particular + self.nullspace.T @ (self.nullspace @ delta), self.n)


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


def assemble(E_I, psi, sp: ProductSpace) -> ConstraintSystem:
    """Linear system(s) whose Hermitian solutions reproduce the detector
    outcomes: {G : Y psi = (G x 1) psi} and, in 8-block mode,
    {L : W psi = (L x 1) psi}."""
    E_I = as_cmatrix(E_I)
    if E_I.shape != (sp.dim_i, sp.dim_i):
        raise StateShapeError(f"E_I shape {E_I.shape} does not match dim_i={sp.dim_i}")
    psi = as_cvector(psi)
    if psi.shape[0] != sp.dim:
        raise StateShapeError(f"state length {psi.shape[0]} does not match space dim {sp.dim}")

    scale = max(float(np.linalg.norm(psi)), 1.0)
    _pattern_check(psi, sp, np.abs(E_I.diagonal() - 1) < 1e-9, scale)

    n = sp.dim_i
    rows = psi.reshape(sp.dim_i, sp.dim_ii)
    # column k is (basis_k @ rows) flattened, real parts above imaginary parts
    cols = (from_coords(np.eye(n * n), n) @ rows).reshape(n * n, -1)
    a = np.concatenate([cols.real, cols.imag], axis=1).T

    targets = []
    pairs = [("G", "Y"), ("L", "W")] if sp.mode == 4 else [("G", "Y")]
    for name, detector in pairs:
        rhs_c = (rows * np.repeat(detector_flags(sp, detector), sp.partition)).reshape(-1)
        targets.append(LinearTarget(name, n, a, np.concatenate([rhs_c.real, rhs_c.imag])))

    e_psi = (E_I @ rows).reshape(-1)
    degenerate = bool(np.linalg.norm(e_psi) <= 1e-10 * scale
                      or np.linalg.norm(psi - e_psi) <= 1e-10 * scale)
    return ConstraintSystem(space=sp, mode=sp.mode, targets=targets,
                            degenerate=degenerate, psi=psi.copy())


def solve(cs: ConstraintSystem):
    """Affine solution set for each target: least-squares particular point
    plus an orthonormal basis of the homogeneous nullspace.

    All targets share the system matrix ``assemble`` builds, so one
    least-squares solve over the stacked right-hand sides and one SVD
    serve every target.
    """
    a = cs.targets[0].matrix
    if any(tgt.matrix is not a for tgt in cs.targets):
        raise ValueError("solve needs targets that share one system matrix")
    x0, *_ = np.linalg.lstsq(a, np.column_stack([tgt.rhs for tgt in cs.targets]), rcond=None)
    x0 = np.ascontiguousarray(x0.T)  # one particular point per row
    _, sv, vt = np.linalg.svd(a)
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > 1e-10 * max(smax, 1.0)))
    return [AffineSolutionSet(
        name=tgt.name, n=tgt.n, particular=x, nullspace=vt[rank:],
        residual=float(np.linalg.norm(a @ x - tgt.rhs)))
        for tgt, x in zip(cs.targets, x0)]


def _purify(m, max_iter=200, stop=1e-13):
    """Iterate m <- 3 m^2 - 2 m^3 on each matrix of the stack m; converges
    to a projector from nearby Hermitian starting points and preserves the
    affine solution set.

    Returns one entry per matrix: the projector once ``max|m^2 - m|`` falls
    below ``stop`` (tested before each step), or None when a step leaves
    the finite values or exceeds 1e6 in modulus, or after ``max_iter``
    steps.  Each matrix takes its own steps, unaffected by the others.
    """
    out = [None] * len(m)
    live = np.arange(len(m))
    for _ in range(max_iter):
        if not live.size:
            break
        m2 = m @ m
        done = np.max(np.abs(m2 - m), axis=(1, 2)) < stop
        for k, mk in zip(live[done], m[done]):
            out[k] = mk
        m, m2, live = m[~done], m2[~done], live[~done]
        m = 3 * m2 - 2 * m2 @ m
        ok = np.isfinite(m).all(axis=(1, 2)) & ~(np.max(np.abs(m), axis=(1, 2)) > 1e6)
        m, live = m[ok], live[ok]
    return out


# Starting points purified as one stack: bounds memory for any draw count.
_BATCH = 64


def filter_projectors(sol: AffineSolutionSet, sp: ProductSpace, tol=1e-9,
                      draws=10000, box=2.0, seed=0, candidates=()):
    """Projector members of an affine solution set.

    Candidate matrices (if given) are projected onto the set and purified
    first, then ``draws`` random coordinate points from the centered box of
    half-width ``box`` are purified in order, ``_BATCH`` at a time.
    Survivors must pass both projector predicates at ``tol``, still satisfy
    the linear system, and be distinct from earlier survivors; the result
    order is deterministic for a fixed seed.
    """
    found = []

    def consider(m):
        if m is None:
            return
        if not (is_hermitian(m, tol) and is_idempotent(m, tol)):
            return
        # membership: the purified point must not have left the affine set
        delta = coords(m) - sol.particular
        off_set = np.linalg.norm(delta - sol.nullspace.T @ (sol.nullspace @ delta))
        if off_set > max(tol, 1e-8):
            return
        for prev in found:
            if np.max(np.abs(prev - m)) <= 1e-8:
                return
        found.append(m)

    for m in _purify(np.array([sol.project(c) for c in candidates])):
        consider(m)
    rng = np.random.default_rng(seed)
    for start in range(0, int(draws), _BATCH):
        # one draw and one matrix-vector product per point: a batched
        # ts @ nullspace would run gemm, not gemv, and change the last bits
        points = [sol.particular + sol.nullspace.T @ rng.uniform(-box, box, size=sol.nullity)
                  for _ in range(min(_BATCH, int(draws) - start))]
        for m in _purify(from_coords(np.array(points), sol.n)):
            consider(m)
    return found
