"""Built-in reference instances with independently transcribed matrices.

Each fixture stores the parameter point, the expected core projector(s)
entry by entry, and the expected state vector.  The stored matrices are
deliberately *not* produced by the generator code — the test suite checks
the generators against them, so the two cannot drift together.

Fixture keys:

* ``spin32`` — the 6-dimensional two-detector instance whose right factor
  is the four-level ladder of a spin-3/2 degree of freedom;
* ``dim10``  — the 10-dimensional three-detector instance on an
  eight-block right factor.
"""

from dataclasses import dataclass

import numpy as np

from .family3 import Family3Params
from .family4 import Family4Params, derive_coefficients
from .space import ProductSpace, assemble

_S3 = np.sqrt(3.0)
_R5 = np.sqrt(5.0)
_R15 = np.sqrt(15.0)

_G6 = np.array([
    [2 / 3, -1 / (2 * _S3), 1 / 3, 1 / (6 * _R5), -1 / (2 * _R15), -1 / (6 * _R5)],
    [-1 / (2 * _S3), 1 / 2, 1 / (2 * _S3), -1 / (2 * _R15), 1 / (2 * _R5), 1 / (2 * _R15)],
    [1 / 3, 1 / (2 * _S3), 2 / 3, -1 / (6 * _R5), 1 / (2 * _R15), 1 / (6 * _R5)],
    [1 / (6 * _R5), -1 / (2 * _R15), -1 / (6 * _R5), 8 / 15, -1 / (10 * _S3), 7 / 15],
    [-1 / (2 * _R15), 1 / (2 * _R5), 1 / (2 * _R15), -1 / (10 * _S3), 1 / 10, 1 / (10 * _S3)],
    [-1 / (6 * _R5), 1 / (2 * _R15), 1 / (6 * _R5), 7 / 15, 1 / (10 * _S3), 8 / 15],
], dtype=complex)

# one H_I row per line: (block 1, block 2, block 3, block 4) of H_II
_PSI24 = np.array([
    1, _S3 / 2, 0, 0,
    0, 1, 0, 0,
    1, -_S3 / 2, 0, 0,
    0, 0, 1, _S3 / 2,
    0, 0, 0, 1,
    0, 0, 1, -_S3 / 2,
], dtype=complex) / 3.0

_W9 = np.sqrt(2.0) / 9

_G10 = np.array([
    [11/72, -1/36, -11/72, -1/8, -1/8, _W9, -_W9, -_W9, 0, 0],
    [-1/36, 5/18, 1/36, -1/4, -1/4, -_W9, _W9, _W9, 0, 0],
    [-11/72, 1/36, 11/72, 1/8, 1/8, -_W9, _W9, _W9, 0, 0],
    [-1/8, -1/4, 1/8, 3/8, 3/8, 0, 0, 0, 0, 0],
    [-1/8, -1/4, 1/8, 3/8, 3/8, 0, 0, 0, 0, 0],
    [_W9, -_W9, -_W9, 0, 0, 19/72, -5/36, -19/72, -1/8, -1/8],
    [-_W9, _W9, _W9, 0, 0, -5/36, 7/18, 5/36, -1/4, -1/4],
    [-_W9, _W9, _W9, 0, 0, -19/72, 5/36, 19/72, 1/8, 1/8],
    [0, 0, 0, 0, 0, -1/8, -1/4, 1/8, 3/8, 3/8],
    [0, 0, 0, 0, 0, -1/8, -1/4, 1/8, 3/8, 3/8],
], dtype=complex)

_Z19 = 4 / (19 * _S3)

_L10 = np.array([
    [67/456, -5/228, 5/456, -3/152, -43/152, _Z19, -_Z19, -_Z19, 0, 0],
    [-5/228, 31/114, -31/228, -27/76, -7/76, -_Z19, _Z19, _Z19, 0, 0],
    [5/456, -31/228, 139/456, 51/152, -29/152, -_Z19, _Z19, _Z19, 0, 0],
    [-3/152, -27/76, 51/152, 89/152, 9/152, 0, 0, 0, 0, 0],
    [-43/152, -7/76, -29/152, 9/152, 129/152, 0, 0, 0, 0, 0],
    [_Z19, -_Z19, -_Z19, 0, 0, 3/8, -1/4, -33/152, -3/152, -43/152],
    [-_Z19, _Z19, _Z19, 0, 0, -1/4, 1/2, 7/76, -27/76, -7/76],
    [-_Z19, _Z19, _Z19, 0, 0, -33/152, 7/76, 81/152, 51/152, -29/152],
    [0, 0, 0, 0, 0, -3/152, -27/76, 51/152, 89/152, 9/152],
    [0, 0, 0, 0, 0, -43/152, -7/76, -29/152, 9/152, 129/152],
], dtype=complex)

# per H_I row: (block-1, block-3, block-5) weight on the first five rows,
# (block-4, block-7, block-8) weight on the last five; other blocks empty
_X_ROWS = [(-1/3, -1/3, 7/3), (-2/3, 1/3, 2.0), (1/3, -2/3, 1/3), (1.0, -2/3, 1.0), (1.0, 1.0, 1.0)]
_Y_ROWS = _X_ROWS  # the all-ones point is mirror symmetric


def _psi80():
    psi = np.zeros(80, dtype=complex)
    for i, (a, c, e) in enumerate(_X_ROWS):
        base = 8 * i
        psi[base + 0], psi[base + 2], psi[base + 4] = a, c, e
    for j, (d, h, t) in enumerate(_Y_ROWS):
        base = 8 * (5 + j)
        psi[base + 3], psi[base + 6], psi[base + 7] = d, h, t
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class Fixture:
    name: str
    space: ProductSpace
    params: object
    cores: dict       # name -> expected core projector on H_I
    psi: np.ndarray   # expected unit state on the product space


def fixture_names():
    return ("spin32", "dim10")


def fixture(name) -> Fixture:
    if name == "spin32":
        return Fixture(
            name="spin32",
            space=ProductSpace(6, (1, 1, 1, 1)),
            params=Family3Params(p=2 / 3, theta=0.0, mu2=_S3, mu3=1.0,
                                 lambda2=_S3, lambda3=1.0),
            cores={"G_I": _G6.copy()},
            psi=_PSI24.copy(),
        )
    if name == "dim10":
        return Fixture(
            name="dim10",
            space=ProductSpace(10, (1,) * 8),
            params=Family4Params(p=11 / 72, m=67 / 456),
            cores={"G_I": _G10.copy(), "L_I": _L10.copy()},
            psi=_psi80(),
        )
    raise KeyError(f"unknown fixture {name!r}; available: {fixture_names()}")


def fixture_bundle(name):
    """A solution bundle assembled from the stored data (not the generators)."""
    fx = fixture(name)
    g_core = fx.cores["G_I"]
    if name == "spin32":
        derived = {"u": complex(g_core[0, 3]), "q": float(g_core[3, 3].real)}
    else:
        derived = derive_coefficients(fx.params).derived()
    return assemble(fx.space, fx.psi, g_core, fx.cores.get("L_I"),
                    params=fx.params, derived=derived)
