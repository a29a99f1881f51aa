"""Constraint solver from the state alone, independent of the closed-form families.

Given the which-slit projector E_I, a state psi whose detector pattern is
consistent (T psi = E psi blockwise), and the block partition, the solver
finds every Hermitian G_I with Y psi = (G_I x 1) psi and, in 8-block mode,
every L_I with W psi = (L_I x 1) psi, in closed form.  Write the state's
rows as rows = psi.reshape(dim_i, dim_ii), and split its columns into R_Y,
inside the detector's blocks, and R_N, outside them.  The identity reads
G R_Y = R_Y and G R_N = 0, so with A = col(R_Y) and B = col(R_N) a
solution exists if and only if A is orthogonal to B, and the solutions are
then exactly P_A + V X V^dagger: V an orthonormal basis of
F = (A + B)^perp and X any Hermitian block on F.  The projector search
purifies only X.  It is the oracle that certifies the closed-form
generators.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, StateShapeError
from .linalg import as_cmatrix
from .space import ProductSpace, as_int, as_state, block_weights, detector_flags, slit_projector

# Relative cut for "zero": of a norm against the state's, of a singular value
# against the largest one, and of the largest cosine between A and B.
_CUT = 1e-10


def from_coords(c, n):
    """Hermitian matrix from its unit-basis coordinates; a stack of
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


@dataclass
class ConstraintSystem:
    """The state's rows, psi as a dim_i x dim_ii matrix, and per unknown
    core ("G", then "L" in three-detector mode) the mask of the columns
    inside the blocks of the detector that tracks it."""

    space: ProductSpace
    rows: np.ndarray
    masks: dict
    degenerate: bool

    @property
    def mode(self):
        return self.space.mode

    def tracking_residual(self, name, m):
        """||(m x 1) psi - D psi|| for the detector D tracking core ``name``."""
        return float(np.linalg.norm(as_cmatrix(m) @ self.rows - self.rows * self.masks[name]))


@dataclass
class AffineSolutionSet:
    """The Hermitian solutions for one core: p_a + v X v^dagger for every
    Hermitian X on F, when ``exists``; none otherwise, and then ``v`` and
    ``rank_range`` bound no solution."""

    name: str
    space: ProductSpace
    p_a: np.ndarray                 # the projector onto A, the canonical member
    v: np.ndarray                   # orthonormal columns spanning F
    dim_a: int
    dim_b: int
    orthogonality_residual: float   # ||A^dagger B||_2, the largest cosine between A and B
    residual: float                 # tracking residual of p_a

    @property
    def exists(self):
        return self.orthogonality_residual <= _CUT

    @property
    def free_dim(self):
        return self.v.shape[1]

    @property
    def nullity(self):
        """Real dimension of the set: that of the Hermitian blocks X."""
        return self.free_dim ** 2

    @property
    def rank_range(self):
        """Lowest and highest rank of a projector in the set."""
        return self.dim_a, self.space.dim_i - self.dim_b


def _pattern_check(psi, sp, in_e, scale):
    """T psi = E psi, verified on the norm of each (H_I row, H_II block)."""
    t = np.array(detector_flags(sp, "T"), dtype=bool)
    forbidden = np.where(in_e[:, None], ~t, t)
    norms = np.sqrt(block_weights(psi, sp))
    bad = np.argwhere(forbidden & (norms > _CUT * scale))
    if bad.size:
        j, k = bad[0]
        raise StateShapeError(
            f"state has weight in H_II block {k + 1} over H_I row {j + 1}, "
            "violating the detector support pattern")


def assemble(E_I, psi, sp: ProductSpace) -> ConstraintSystem:
    """The constraints whose Hermitian solutions reproduce the detector
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
    # E_I is given: a mask per core after it
    masks = {name: np.repeat(np.array(flags, dtype=bool), sp.partition)
             for name, _, flags in sp.pairs[1:]}
    slit, rest = np.split(rows, [sp.rank_e])
    degenerate = bool(min(np.linalg.norm(slit), np.linalg.norm(rest)) <= _CUT * scale)
    return ConstraintSystem(space=sp, rows=rows, masks=masks, degenerate=degenerate)


def _column_basis(m):
    """Orthonormal basis of the column space of m, singular values cut at
    _CUT * max(s_0, 1)."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > _CUT * max(s[0] if s.size else 0.0, 1.0)]


def solve(cs: ConstraintSystem):
    """The solution set of each unknown core, from two thin SVDs (bases of
    A and B) and one complete QR of [A B], whose trailing columns span F."""
    sets = []
    for name, mask in cs.masks.items():
        a, b = _column_basis(cs.rows[:, mask]), _column_basis(cs.rows[:, ~mask])
        q, _ = np.linalg.qr(np.hstack([a, b]), mode="complete")
        p_a = a @ a.conj().T
        cross = a.conj().T @ b
        sets.append(AffineSolutionSet(
            name=name, space=cs.space, p_a=p_a, v=q[:, a.shape[1] + b.shape[1]:],
            dim_a=a.shape[1], dim_b=b.shape[1],
            orthogonality_residual=float(np.linalg.norm(cross, 2)) if cross.size else 0.0,
            residual=cs.tracking_residual(name, p_a)))
    return sets


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
_BOX = 2.0  # half-width of the centered box of block coordinates drawn
# With y = x - 1/2 a step maps an eigenvalue y to 3y/2 - 2y^3, of modulus
# |y| (2y^2 - 3/2) > |y| once |y| > sqrt(5)/2 ~ 1.118, a ratio that grows
# each step: every bounded orbit stays within sqrt(5)/2 of 1/2.  A column
# of a Hermitian m - I/2 is no longer than its largest |eigenvalue|, so a
# column longer than _ESCAPE puts an eigenvalue on a diverging orbit.
_ESCAPE = 1.2


def _stack_size(f):
    """Free blocks of size f x f purified as one stack."""
    return max(1, _STACK_ENTRIES // max(1, f * f))


def filter_projectors(sol: AffineSolutionSet, sp: ProductSpace,
                      draws=10000, seed=0, candidates=()):
    """Projector members of a solution set ``sol`` solved on the space ``sp``.

    Only the blocks X of the set P_A + V X V^dagger are purified, as
    McWeeny maps P_A plus a block to P_A plus the purified block, so every
    survivor lies in the set.  Candidates (if given) are compressed to F by
    their Hermitian part (m + m^dagger) / 2 and purified first, then
    ``draws`` blocks whose coordinates (``from_coords``) are uniform in
    [-_BOX, _BOX]^nullity, in stacks of ``_stack_size(f)`` blocks.
    Survivors are distinct and in a fixed order for a fixed seed; there are
    none when the set is empty.  A space other than ``sol.space`` raises
    DimensionError.
    """
    draws = as_int(draws, "draws", lo=0)
    seed = as_int(seed, "seed", lo=0)
    if sp != sol.space:
        raise DimensionError(f"solution set of {sol.name} was solved on {sol.space}, not {sp}")
    if not sol.exists:
        return []
    p_a, v, f, found = sol.p_a, sol.v, sol.free_dim, []
    vh = v.conj().T

    def consider(blocks):
        # a point set (F = 0) has empty blocks, each a projector already
        ys = _purify(blocks) if blocks.size else blocks
        for m in (p_a + v @ y @ vh for y in ys if y is not None):
            if all(np.max(np.abs(prev - m)) > 1e-8 for prev in found):
                found.append(m)

    cands = [as_cmatrix(m) for m in candidates]
    consider(np.array([vh @ ((m + m.conj().T) / 2) @ v for m in cands]))
    rng = np.random.default_rng(seed)
    stack = _stack_size(f)
    for start in range(0, draws, stack):
        t = rng.uniform(-_BOX, _BOX, size=(min(stack, draws - start), f * f))
        consider(from_coords(t, f))
    return found
