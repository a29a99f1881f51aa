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

from .errors import ModeError, StateShapeError
from .linalg import as_cmatrix, as_cvector, is_hermitian, is_idempotent
from .space import ProductSpace, decompose, detector_flags


def hermitian_basis(n):
    """Real basis of the n x n Hermitian matrices: n diagonal units, then
    for each i < j a symmetric and an antisymmetric-imaginary unit."""
    mats = []
    for i in range(n):
        b = np.zeros((n, n), dtype=complex)
        b[i, i] = 1
        mats.append(b)
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = 1
            b[j, i] = 1
            mats.append(b)
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = 1j
            b[j, i] = -1j
            mats.append(b)
    return mats


def coords(m):
    """Coordinates of a Hermitian matrix in the hermitian_basis ordering."""
    m = as_cmatrix(m)
    n = m.shape[0]
    c = [m[i, i].real for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c.append(m[i, j].real)
            c.append(m[i, j].imag)
    return np.array(c)


def from_coords(c, n):
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        m[i, i] = c[i]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = c[k] + 1j * c[k + 1]
            m[j, i] = c[k] - 1j * c[k + 1]
            k += 2
    return m


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
    """particular + span(nullspace) in hermitian_basis coordinates."""

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


def _pattern_check(psi, sp, e_rows):
    """T psi = E psi, verified block by block on the decomposition."""
    flags = detector_flags(sp, "T")
    bv = decompose(psi, sp)
    scale = max(float(np.linalg.norm(psi)), 1.0)
    for j, row in enumerate(bv.parts):
        for k, block in enumerate(row):
            expected_zero = (flags[k] == 0) if j in e_rows else (flags[k] == 1)
            if expected_zero and np.linalg.norm(block) > 1e-10 * scale:
                raise StateShapeError(
                    f"state has weight in H_II block {k + 1} over H_I row {j + 1}, "
                    "violating the detector support pattern")


def _detector_apply(psi, sp, flags):
    """Apply a diagonal block detector to psi without building the matrix."""
    mask = np.concatenate([np.full(b, float(f)) for f, b in zip(flags, sp.partition)])
    rows = psi.reshape(sp.dim_i, sp.dim_ii) * mask
    return rows.reshape(-1)


def assemble(E_I, psi, sp: ProductSpace, mode=None) -> ConstraintSystem:
    """Linear system(s) whose Hermitian solutions reproduce the detector
    outcomes: {G : Y psi = (G x 1) psi} and, in 8-block mode,
    {L : W psi = (L x 1) psi}."""
    if mode is None:
        mode = sp.mode
    if mode not in (3, 4) or mode != sp.mode:
        raise ModeError(f"mode {mode} inconsistent with a {len(sp.partition)}-block partition")
    E_I = as_cmatrix(E_I)
    if E_I.shape != (sp.dim_i, sp.dim_i):
        raise StateShapeError(f"E_I shape {E_I.shape} does not match dim_i={sp.dim_i}")
    psi = as_cvector(psi)
    if psi.shape[0] != sp.dim:
        raise StateShapeError(f"state length {psi.shape[0]} does not match space dim {sp.dim}")

    e_rows = {j for j in range(sp.dim_i) if abs(E_I[j, j] - 1) < 1e-9}
    _pattern_check(psi, sp, e_rows)

    n = sp.dim_i
    rows = psi.reshape(sp.dim_i, sp.dim_ii)
    cols = []
    for b in hermitian_basis(n):
        col = (b @ rows).reshape(-1)
        cols.append(np.concatenate([col.real, col.imag]))
    a = np.array(cols).T

    targets = []
    flag_sets = [("G", detector_flags(sp, "Y"))]
    if mode == 4:
        flag_sets.append(("L", detector_flags(sp, "W")))
    for name, flags in flag_sets:
        rhs_c = _detector_apply(psi, sp, flags)
        targets.append(LinearTarget(name, n, a, np.concatenate([rhs_c.real, rhs_c.imag])))

    e_psi = (E_I @ rows).reshape(-1)
    scale = max(float(np.linalg.norm(psi)), 1.0)
    degenerate = bool(np.linalg.norm(e_psi) <= 1e-10 * scale
                      or np.linalg.norm(psi - e_psi) <= 1e-10 * scale)
    return ConstraintSystem(space=sp, mode=mode, targets=targets,
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
    """Iterate m <- 3 m^2 - 2 m^3; converges to a projector from nearby
    Hermitian starting points and preserves the affine solution set."""
    for _ in range(max_iter):
        m2 = m @ m
        if np.max(np.abs(m2 - m)) < stop:
            return m
        m = 3 * m2 - 2 * m2 @ m
        if not np.isfinite(m).all() or np.max(np.abs(m)) > 1e6:
            return None
    return None


def filter_projectors(sol: AffineSolutionSet, sp: ProductSpace, tol=1e-9,
                      draws=10000, box=2.0, seed=0, candidates=()):
    """Projector members of an affine solution set.

    Candidate matrices (if given) are projected onto the set and purified
    first, then ``draws`` random coordinate points from the centered box of
    half-width ``box`` are purified in order.  Survivors must pass both
    projector predicates at ``tol``, still satisfy the linear system, and
    be distinct from earlier survivors; the result order is deterministic
    for a fixed seed.
    """
    found = []

    def consider(m):
        m = _purify(m)
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

    for cand in candidates:
        consider(sol.project(cand))
    rng = np.random.default_rng(seed)
    for _ in range(int(draws)):
        t = rng.uniform(-box, box, size=sol.nullity)
        consider(sol.member(t))
    return found
