"""Two-factor product space with a block-partitioned right factor.

The full space is H_I (x) H_II.  H_I carries the which-slit projector
E_I = diag(1..1, 0..0) of rank dim_i/2; H_II is partitioned into 4 or 8
ordered blocks A_1..A_k on which the detector projectors live.  Basis
ordering: component index = (H_I index) * dim_ii + (H_II index), so
np.kron(left, right) matches the layout.

The number of blocks decides the mode.  ``ProductSpace.pairs``, the one
table of which properties and detectors a mode has, pairs each property
in order with the detector that tracks it and that detector's blocks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModeError, StateShapeError
from .linalg import as_cmatrix, as_cvector

# By number of blocks, the ordered (property, detector, block flags) triples: T = A1 + A2
# and Y = A1 + A3 on 4; on 8 the detectors overlap pairwise on two blocks, sharing A1.
_PAIRS = {4: (("E", "T", (1, 1, 0, 0)),
              ("G", "Y", (1, 0, 1, 0))),
          8: (("E", "T", (1, 1, 1, 0, 1, 0, 0, 0)),
              ("G", "Y", (1, 1, 0, 1, 0, 1, 0, 0)),
              ("L", "W", (1, 0, 1, 1, 0, 0, 1, 0)))}

_MAX_ENTRIES = int(np.iinfo(np.intp).max)  # the most entries numpy can shape one array to


def as_int(x, what, error=DimensionError, lo=None, hi=None):
    """x as a Python int in [lo, hi] (a bound of None is open): an int, a
    numpy integer or a float with an integral value; a bool, anything else
    or a value out of range raises ``error``."""
    if isinstance(x, bool) or not (isinstance(x, (int, np.integer)) or
                                   isinstance(x, (float, np.floating)) and float(x).is_integer()):
        raise error(f"{what} must be an integer, got {x!r}")
    n = int(x)
    if lo is not None and n < lo:
        raise error(f"{what} must be at least {lo}, got {n}")
    if hi is not None and n > hi:
        raise error(f"{what} must be at most {hi}, got {n}")
    return n


@dataclass(frozen=True)
class ProductSpace:
    """Dimensions of the two factors plus the right-factor block partition.

    ``partition`` must have length 4 (two-detector mode) or 8
    (three-detector mode) and each block size be at least 1; ``dim_i``
    must be even and at least 2, the slit projector rank being fixed to
    ``dim_i // 2``.  ``dim_i`` and each block size are read by ``as_int``
    and stored as Python ints, and ``dim ** 2`` must fit numpy's intp, so
    that numpy can shape a ``dim x dim`` operator.
    """

    dim_i: int
    partition: tuple

    def __post_init__(self):
        object.__setattr__(self, "dim_i", as_int(self.dim_i, "dim_i", lo=2))
        object.__setattr__(self, "partition",
                           tuple(as_int(b, "a block size", lo=1) for b in self.partition))
        if self.dim_i % 2 != 0:
            raise DimensionError(f"dim_i must be even, got {self.dim_i}")
        if len(self.partition) not in _PAIRS:
            raise ModeError(f"partition must have 4 or 8 blocks, got {len(self.partition)}")
        if self.dim ** 2 > _MAX_ENTRIES:
            raise DimensionError(f"space dim {self.dim} is too large for dim x dim operators")

    @property
    def rank_e(self):
        return self.dim_i // 2

    @property
    def dim_ii(self):
        return sum(self.partition)

    @property
    def dim(self):
        return self.dim_i * self.dim_ii

    @property
    def mode(self):
        """3 for a 4-block partition, 4 for an 8-block partition."""
        return 3 if len(self.partition) == 4 else 4

    @property
    def pairs(self):
        """The ordered (property, detector, block flags) triples of this mode."""
        return _PAIRS[len(self.partition)]


def as_state(psi, sp: ProductSpace, error=DimensionError):
    """psi as a complex vector of length ``sp.dim``, raising ``error`` for
    another length and StateShapeError for a non-finite entry."""
    psi = as_cvector(psi)
    if psi.shape[0] != sp.dim:
        raise error(f"state length {psi.shape[0]} does not match space dim {sp.dim}")
    if not np.all(np.isfinite(psi)):
        raise StateShapeError("state must be finite")
    return psi


def slit_projector(sp: ProductSpace):
    """E_I on H_I: identity on the first rank_e coordinates, zero after."""
    d = np.zeros(sp.dim_i)
    d[: sp.rank_e] = 1.0
    return np.diag(d).astype(complex)


def block_projector(sp: ProductSpace, flags):
    """Diagonal H_II projector selecting the flagged blocks."""
    if len(flags) != len(sp.partition):
        raise ModeError(f"need {len(sp.partition)} flags, got {len(flags)}")
    d = np.concatenate([np.full(b, float(f)) for f, b in zip(flags, sp.partition)])
    return np.diag(d).astype(complex)


def block_weights(psi, sp: ProductSpace):
    """Squared norm of psi over each (H_I basis vector, H_II block) pair,
    as a dim_i x (number of blocks) table."""
    weights = np.abs(psi.reshape(sp.dim_i, sp.dim_ii)) ** 2
    return np.add.reduceat(weights, np.cumsum((0,) + sp.partition[:-1]), axis=1)


def detector_flags(sp: ProductSpace, name):
    """Block membership (0/1 per block) of detector ``name`` in ``sp.pairs``."""
    for _, detector, flags in sp.pairs:
        if detector == name:
            return flags
    raise ModeError(f"no detector {name!r} in {len(sp.partition)}-block mode")


def lift_left(a, sp: ProductSpace):
    """a (x) identity, for a square matrix a on H_I.

    Built by placement, not by ``np.kron``: a copied bit for bit onto each
    stripe (:, k, :, k) of a zero (dim_i, dim_ii, dim_i, dim_ii) array.
    The result equals ``np.kron(a, eye)`` for finite a, and every entry
    off the stripes is +0.0, where the product x * 0.0 of kron gives -0.0
    for a negative x.
    """
    a = as_cmatrix(a)
    if a.shape != (sp.dim_i, sp.dim_i):
        raise DimensionError(f"expected {sp.dim_i}x{sp.dim_i}, got {a.shape}")
    n, m = sp.dim_i, sp.dim_ii
    out = np.zeros((n, m, n, m), dtype=complex)
    k = np.arange(m)
    out[:, k, :, k] = a
    return out.reshape(n * m, n * m)


def lift_right(b, sp: ProductSpace):
    """identity (x) b, for a square matrix b on H_II.

    Built by placement like ``lift_left``: b on each diagonal block
    (i, :, i, :), +0.0 everywhere else.
    """
    b = as_cmatrix(b)
    if b.shape != (sp.dim_ii, sp.dim_ii):
        raise DimensionError(f"expected {sp.dim_ii}x{sp.dim_ii}, got {b.shape}")
    n, m = sp.dim_i, sp.dim_ii
    out = np.zeros((n, m, n, m), dtype=complex)
    i = np.arange(n)
    out[i, :, i, :] = b
    return out.reshape(n * m, n * m)


@dataclass
class SolutionBundle:
    """A solution on the product space: each property (E, G and, with three
    detectors, L) paired in order with the detector (T, Y, W) that tracks it.

    ``E``..``W`` are the lifted operators, ``G_I``/``L_I`` the H_I cores of
    G and L.  ``L``, ``W`` and ``L_I`` are None for two detectors.
    ``derived`` holds the family's derived scalars in wire order.
    """

    space: ProductSpace
    psi: np.ndarray
    E: np.ndarray
    G: np.ndarray
    T: np.ndarray
    Y: np.ndarray
    G_I: np.ndarray
    L: np.ndarray = None
    W: np.ndarray = None
    L_I: np.ndarray = None
    params: object = None
    derived: dict = None


def assemble(space, psi, g_core, l_core=None, params=None, derived=None):
    """The bundle with the slit projector, the cores and the detectors lifted.

    ``l_core`` is required in three-detector mode and refused otherwise.
    """
    if (l_core is not None) != any(prop == "L" for prop, _, _ in space.pairs):
        raise ModeError(f"L_I is needed exactly in three-detector mode, got mode {space.mode}")
    cores = {"E": slit_projector(space), "G": g_core, "L": l_core}
    ops = {}
    for prop, detector, flags in space.pairs:
        ops[prop] = lift_left(cores[prop], space)
        ops[detector] = lift_right(block_projector(space, flags), space)
    return SolutionBundle(space=space, psi=psi, G_I=g_core, L_I=l_core,
                          params=params, derived=derived, **ops)
