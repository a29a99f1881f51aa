"""Test helpers shared by several test modules."""

import numpy as np

from twoslit.errors import DimensionError
from twoslit.linalg import as_cmatrix, tolerance


def projector_rank(a, tol=1e-9):
    """Rank of a Hermitian idempotent, read off its trace.

    The trace of a projector is a nonnegative integer up to roundoff; a
    trace further than ``tol`` from an integer raises DimensionError since
    the input was then not a projector to begin with.
    """
    tr = np.trace(as_cmatrix(a))
    r = round(tr.real)
    if abs(tr - r) > tolerance(tol) or r < 0:
        raise DimensionError(f"trace {tr} is not a nonnegative integer within {tol}")
    return int(r)
