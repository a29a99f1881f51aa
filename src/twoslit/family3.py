"""Closed-form solution family with two detectors (4-block mode).

Produces a rank-3 projector G_I on a 6-dimensional H_I, an entangled state
psi on H_I (x) H_II, and detector projectors T, Y such that on psi the
detector outcomes reproduce the outcomes of the mutually incompatible
projections E (which-slit) and G — every defining condition is checkable
with :mod:`twoslit.verify`.

Free data: two real scalars (p, theta), four complex coefficients
(mu2, mu3, lambda2, lambda3) and four nonzero seed vectors, one per block
of H_II.  The remaining scalars u and q are forced by idempotence of G_I
and are exposed through :func:`derive_u` / :func:`derive_q` and the
bundle's ``derived`` dict.
"""

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cache, partial

import numpy as np

from .errors import ParamRangeError, SeedError
from .linalg import as_cvector
from .space import ProductSpace, SolutionBundle, as_int, assemble

# A parameter dataclass's field annotations are its schema: float, int (read by
# as_int), complex or np.ndarray (a seed vector); jsonio encodes by the same types.
_COERCE = {float: float, complex: complex, np.ndarray: as_cvector}
# Largest modulus whose square is a finite float: the formulas square every
# complex parameter's modulus with float **, which overflows past it.
_MAX_MODULUS = math.sqrt(sys.float_info.max)


def unit_seed():
    return np.ones(1, dtype=complex)


@cache
def _schema(cls):
    """(name, coercion) of each field of a parameter dataclass, the seed names and
    the complex names."""
    return ([(f.name, partial(as_int, what=f.name) if f.type is int else _COERCE[f.type])
             for f in fields(cls)],
            [f.name for f in fields(cls) if f.type is np.ndarray],
            [f.name for f in fields(cls) if f.type is complex])


def coerce_fields(params):
    """Convert each field of a parameter dataclass to its annotated type."""
    for name, convert in _schema(type(params))[0]:
        setattr(params, name, convert(getattr(params, name)))


def check_seeds(params):
    """Raise SeedError for the first seed vector that is zero (every entry,
    tested without a norm that tiny or huge entries would under- or overflow)."""
    for name in _schema(type(params))[1]:
        if not np.count_nonzero(getattr(params, name)):
            raise SeedError(f"{name} must be nonzero")


def check_moduli(params):
    """Raise ParamRangeError for the first complex field whose squared modulus
    is not a finite float (NaN and inf included)."""
    for name in _schema(type(params))[2]:
        value = getattr(params, name)
        if not math.hypot(value.real, value.imag) <= _MAX_MODULUS:
            raise ParamRangeError(f"{name}={value} must be finite with modulus at most "
                                  f"{_MAX_MODULUS:.6g}")


def unit_state(psi):
    """psi / ||psi||, the norm taken of psi scaled by a power of two near its
    largest modulus, so it neither overflows nor underflows; the scaling
    changes no bit of the quotient.  ParamRangeError if that modulus is 0 or
    not finite, as the norm would be."""
    peak = float(np.abs(psi).max())
    if not 0 < peak < math.inf:
        raise ParamRangeError(f"the state's largest modulus is {peak}, so its norm is not "
                              f"a positive finite number")
    psi = psi * math.ldexp(1.0, -math.frexp(peak)[1])
    return psi / np.linalg.norm(psi)


def _join_core(pb, qb, w, x2, x3, y2, y3):
    """The core [[P, U], [U^dagger, Q]] of either family: U = w * outer(l, r) with
    l = (1, -conj(x2), -conj(x3), 0, ...) and r = (1, -y2, -y3, 0, ...)."""
    pad = [0.0] * (len(pb) - 3)
    left = np.array([1.0, -np.conj(x2), -np.conj(x3), *pad])
    ub = w * np.outer(left, np.array([1.0, -y2, -y3, *pad]))
    return np.block([[pb, ub], [ub.conj().T, qb]])


@dataclass
class Family3Params:
    p: float
    theta: float = 0.0
    mu2: complex = 0.0
    mu3: complex = 0.0
    lambda2: complex = 0.0
    lambda3: complex = 0.0
    seed_a3: np.ndarray = field(default_factory=unit_seed)
    seed_b2: np.ndarray = field(default_factory=unit_seed)
    seed_gamma3: np.ndarray = field(default_factory=unit_seed)
    seed_delta2: np.ndarray = field(default_factory=unit_seed)

    def __post_init__(self):
        coerce_fields(self)

    # scalar combinations that recur in every formula
    @property
    def k_mu(self):
        return abs(self.mu3) ** 2 / (1 + abs(self.mu3) ** 2)

    @property
    def k_lambda(self):
        return abs(self.lambda3) ** 2 / (1 + abs(self.lambda3) ** 2)

    @property
    def s_mu(self):
        return 1 + abs(self.mu2) ** 2 + abs(self.mu3) ** 2

    @property
    def s_lambda(self):
        return 1 + abs(self.lambda2) ** 2 + abs(self.lambda3) ** 2

    @property
    def p_interval(self):
        """Open interval of admissible p values."""
        return self.k_mu, self.k_mu + 1.0 / self.s_mu

    def space(self):
        return ProductSpace(6, (len(self.seed_a3), len(self.seed_b2),
                                len(self.seed_gamma3), len(self.seed_delta2)))

    def validate(self):
        check_moduli(self)  # before p_interval squares them
        lo, hi = self.p_interval
        if not (lo < self.p < hi):
            raise ParamRangeError(f"p={self.p} outside open interval ({lo}, {hi})")
        check_seeds(self)


def derive_u(params: Family3Params) -> complex:
    """Off-diagonal scale u = e^{i theta} sqrt(radicand), forced by G_I^2 = G_I.

    The radicand is positive exactly on the open p interval, vanishing at
    both endpoints.
    """
    params.validate()
    t = params.p - params.k_mu
    radicand = (t - params.s_mu * t * t) / params.s_lambda
    if radicand <= 0:
        raise ParamRangeError(f"u radicand {radicand} not positive at p={params.p}")
    return np.exp(1j * params.theta) * np.sqrt(radicand)


def q_increment(params: Family3Params) -> float:
    """The increment q - k_lambda forced by idempotence.

    On its own this is *not* a valid q: plugged in directly it fails the
    idempotence oracle (see the regression test), which is why
    :func:`derive_q` adds the k_lambda offset.
    """
    params.validate()
    return (1 - params.s_mu * (params.p - params.k_mu)) / params.s_lambda


def derive_q(params: Family3Params) -> float:
    """Diagonal anchor of the lower-right block, forced by idempotence."""
    return params.k_lambda + q_increment(params)


def _corner_block(t, c2, c3, k):
    """3x3 projector-family block with diagonal anchor t.

    Same shape serves for both diagonal blocks of G_I: the upper-left one
    with (p, mu2, mu3, k_mu), the lower-right with (q, lambda2, lambda3,
    k_lambda).
    """
    c2b, c3b = np.conj(c2), np.conj(c3)
    return np.array([
        [t, -c2 * (t - k), c3 * (1 - t)],
        [-c2b * (t - k), abs(c2) ** 2 * (t - k), c3 * c2b * (t - k)],
        [c3b * (1 - t), c3b * c2 * (t - k), 1 - abs(c3) ** 2 * (1 - t)],
    ], dtype=complex)


def core_projector(params: Family3Params):
    """G_I as a 6x6 complex matrix (Hermitian idempotent for valid params)."""
    u = derive_u(params)  # validates params first
    q = derive_q(params)
    pb = _corner_block(params.p, params.mu2, params.mu3, params.k_mu)
    qb = _corner_block(q, params.lambda2, params.lambda3, params.k_lambda)
    return _join_core(pb, qb, u, params.mu2, params.mu3, params.lambda2, params.lambda3), u, q


def state(params: Family3Params):
    """The entangled unit vector on the product space.

    Block content per H_I row: the first three rows populate blocks 1-2 of
    H_II (multiples of seed_a3 / seed_b2), the last three rows blocks 3-4
    (multiples of seed_gamma3 / seed_delta2).
    """
    params.validate()
    sp = params.space()
    a, b = params.seed_a3, params.seed_b2
    g, d = params.seed_gamma3, params.seed_delta2
    mu2, mu3 = params.mu2, params.mu3
    la2, la3 = params.lambda2, params.lambda3
    mden = 1 + abs(mu3) ** 2
    lden = 1 + abs(la3) ** 2
    z1, z2, z3, z4 = (np.zeros(n, dtype=complex) for n in sp.partition)
    rows = [
        np.concatenate([mu3 * a, (mu2 / mden) * b, z3, z4]),
        np.concatenate([z1, b, z3, z4]),
        np.concatenate([a, (-mu2 * np.conj(mu3) / mden) * b, z3, z4]),
        np.concatenate([z1, z2, la3 * g, (la2 / lden) * d]),
        np.concatenate([z1, z2, z3, d]),
        np.concatenate([z1, z2, g, (-la2 * np.conj(la3) / lden) * d]),
    ]
    return unit_state(np.concatenate(rows))


def build(params: Family3Params) -> SolutionBundle:
    """Assemble the full bundle (operators lifted to the product space)."""
    g_core, u, q = core_projector(params)
    return assemble(params.space(), state(params), g_core,
                    params=params, derived={"u": u, "q": q})
