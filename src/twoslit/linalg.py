"""Dense complex linear algebra with an explicit tolerance policy.

All operators and states are plain numpy arrays of dtype complex128
(matrices are 2-d, vectors 1-d).  Two thresholds are used throughout the
package:

* ``DEFAULT_TOL`` — residual tolerance for equalities (``A == B`` style
  checks), 1e-12 unless overridden;
* ``NONZERO_TOL`` — threshold a norm must *exceed* for a "nonzero"
  requirement to count as satisfied, 1e-6 unless overridden.

Both can be overridden globally through the ``TWOSLIT_TOL`` /
``TWOSLIT_NONZERO_TOL`` environment variables, or per call via the ``tol``
arguments; ``tolerance`` reads each, raising FormatError unless it is finite and >= 0.
"""

import os
from functools import partial

import numpy as np

from .errors import DimensionError, FormatError

DEFAULT_TOL = 1e-12
NONZERO_TOL = 1e-6


def tolerance(tol=None, env="TWOSLIT_TOL", default=DEFAULT_TOL):
    """``tol``, else the nonempty environment variable ``env``, else ``default``,
    as a float; FormatError, naming the source, unless it is finite and >= 0."""
    what, value = ("tolerance", tol) if tol is not None else (env, os.environ.get(env) or default)
    try:
        t = float(value)
    except (TypeError, ValueError):
        t = np.nan
    if not 0 <= t < np.inf:
        raise FormatError(f"{what} must be a finite number >= 0, got {value!r}")
    return t


# The equality tolerance and the nonzero threshold: explicit, else environment, else default.
default_tol = tolerance
default_nonzero_tol = partial(tolerance, env="TWOSLIT_NONZERO_TOL", default=NONZERO_TOL)


def as_cmatrix(a):
    """Coerce to a 2-d complex ndarray, validating the shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    return m


def as_cvector(v):
    """Coerce to a 1-d complex ndarray, validating the shape."""
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={w.ndim}")
    return w


def commutator(a, b):
    """[a, b] = ab - ba for square matrices of equal size."""
    a, b = as_cmatrix(a), as_cmatrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"commutator needs equal square shapes, got {a.shape}, {b.shape}")
    return a @ b - b @ a


def frobenius_norm(a):
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def is_hermitian(a, tol=None):
    """True when max |a - a†| <= tol."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= tolerance(tol))


def is_idempotent(a, tol=None):
    """True when max |a·a - a| <= tol."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a @ a - a)) <= tolerance(tol))
