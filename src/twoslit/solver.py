"""Constraint solver from the state alone, independent of the closed-form families.

Given the which-slit projector E_I, a state psi whose detector pattern is consistent
(T psi = E psi blockwise), and the block partition, the solver finds every Hermitian
G_I with Y psi = (G_I x 1) psi and, in 8-block mode, every L_I with
W psi = (L_I x 1) psi, in closed form.  Split the columns of psi.reshape(dim_i, dim_ii)
into R_Y, inside the detector's blocks, and R_N, outside them: G R_Y = R_Y and
G R_N = 0, so with A = col(R_Y) and B = col(R_N) a solution exists if and only if A
is orthogonal to B, and the solutions are then exactly P_A + V X V^dagger, V an
orthonormal basis of F = (A + B)^perp and X any Hermitian block on F.  The projector
search purifies only X; it is the oracle that certifies the closed-form generators.
"""

from dataclasses import dataclass
from functools import cache

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


_STACK_ENTRIES = 1 << 14  # entries of one stack of blocks or members: bounds memory
_BOX = 2.0  # half-width of the centered box of block coordinates drawn
# A step maps y = x - 1/2 to 3y/2 - 2y^3, which grows once |y| > sqrt(5)/2 ~ 1.118, and
# no column of a Hermitian m - I/2 outgrows its largest |y|: one past _ESCAPE diverges.
_ESCAPE = 1.2
_STOP, _BOUND = 1e-13, 1e6  # x has converged once |x^2 - x| < _STOP, diverged past _BOUND
_DUPLICATE = 1e-8  # max-abs distance within which a member repeats a kept one


def _stack_size(f):  # free blocks of size f x f purified as one stack
    return max(1, _STACK_ENTRIES // max(1, f * f))


def _short(sq):
    """Whether each m of a stack, given |m - I/2|^2, has no column past _ESCAPE (or NaN)."""
    return np.sqrt(sq.sum(axis=-2)).max(axis=-1, initial=0.0) <= _ESCAPE


@cache
def _slots(f):
    """Where from_coords puts each coordinate of an f x f block (a pair where its re goes)."""
    return from_coords(np.arange(f * f), f).real.astype(int)


def _short_coords(t, f):
    """_short of from_coords(t, f): column j sums (t_j - 1/2)^2 and re^2 + im^2 of its pairs."""
    sq = np.concatenate([(t[:, :f] - 0.5) ** 2, t[:, f:] ** 2], axis=1)
    sq[:, f::2] += sq[:, f + 1::2]  # pair k's re^2 + im^2, where from_coords puts its re
    return _short(sq[:, _slots(f)])


def _spectral(m, max_iter=200):
    """McWeeny's map x <- 3 x^2 - 2 x^3, up to ``max_iter`` steps, on each eigenvalue x of
    each Hermitian m of the stack: the mask of the m whose x all converge, and U rint(x) U^H."""
    x, u = np.linalg.eigh(m)
    settled = np.zeros(x.shape, dtype=bool)
    for _ in range(max_iter):  # a converged x stays converged, and NaN stays NaN
        x2 = x * x
        if (settled := ~(np.abs(x2 - x) >= _STOP)).all():  # converged, or NaN
            break
        x = 3 * x2 - 2 * x2 * x
        x[np.abs(x) > _BOUND] = np.nan  # failed, and quiet from here on
    ok = (settled & ~np.isnan(x)).all(axis=-1)
    return ok, (u[ok] * np.rint(x[ok])[:, None, :]) @ u[ok].conj().transpose(0, 2, 1)


def _purify(m, max_iter=200):
    """Indices into m, and projectors, of the starts _short lets _spectral purify.  The
    screen needs Hermitian m: [[0, 100], [0, 0]] has a long column, yet purifies to 0."""
    d = m - np.eye(m.shape[-1]) / 2
    live = np.flatnonzero(_short(d.real ** 2 + d.imag ** 2))
    ok, ys = _spectral(m[live], max_iter)
    return live[ok], ys


def filter_projectors(sol: AffineSolutionSet, sp: ProductSpace,
                      draws=10000, seed=0, candidates=()):
    """Projector members of a solution set ``sol`` solved on the space ``sp``.

    Only the blocks X of P_A + V X V^dagger are purified, so every survivor lies in the
    set.  Candidates' Hermitian parts, compressed to F, go first, then ``draws`` blocks
    with coordinates uniform in [-_BOX, _BOX]^nullity, in stacks of ``_stack_size(f)``,
    built only if they pass _short_coords.  Survivors are distinct (_DUPLICATE), in a
    fixed order for a fixed seed, and none when the set is empty.  Another space than
    ``sol.space`` raises DimensionError."""
    draws, seed = as_int(draws, "draws", lo=0), as_int(seed, "seed", lo=0)
    if sp != sol.space:
        raise DimensionError(f"solution set of {sol.name} was solved on {sol.space}, not {sp}")
    if not sol.exists:
        return []
    p_a, v, f, n = sol.p_a, sol.v, sol.free_dim, sp.dim_i
    vh, kept = v.conj().T, np.empty((0, n, n), dtype=complex)

    def consider(ys, step=max(1, _STACK_ENTRIES // (n * n))):
        nonlocal kept
        for start in range(0, len(ys), step):  # members built at once
            members = v @ ys[start:start + step] @ vh
            members += p_a
            for m in members:
                if np.abs(kept - m).max(axis=(1, 2)).min(initial=np.inf) > _DUPLICATE:
                    kept = np.concatenate([kept, m[None]])

    blocks = [vh @ ((m + m.conj().T) / 2) @ v for m in map(as_cmatrix, candidates)]
    consider(_purify(np.array(blocks, dtype=complex).reshape(len(blocks), f, f))[1])
    rng, stack = np.random.default_rng(seed), _stack_size(f)
    for start in range(0, draws, stack):
        t = rng.uniform(-_BOX, _BOX, size=(min(stack, draws - start), f * f))
        if len(t := t[_short_coords(t, f)]):
            consider(_spectral(from_coords(t, f))[1])
    return list(kept)
