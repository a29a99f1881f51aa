"""Closed-form solution family with three detectors (8-block mode).

Builds two rank-deficient projectors G_I (rank 3) and L_I (rank 5) on a
10-dimensional H_I, a state psi on H_I (x) H_II with H_II split into eight
blocks, and detectors T, Y, W such that T tracks the which-slit projector
E while Y and W track G and L — with E, G, L pairwise non-commuting and
T, Y, W pairwise commuting.

The two anchor scalars (p, m), two phases and ten complex coefficients are
free within open intervals; everything else (u, z, q, n and the
normalization constants below) is forced by idempotence of G_I and L_I.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParamRangeError, ZeroDivisorError
from .family3 import _join_core, check_moduli, check_seeds, coerce_fields, unit_seed
from .space import ProductSpace, SolutionBundle, assemble


@dataclass
class Family4Params:
    p: float
    m: float
    theta1: float = 0.0
    theta2: float = 0.0
    # blocks 2 and 6 carry no component of psi; their sizes are free
    dim_block2: int = 1
    dim_block6: int = 1
    # x-side coefficients (first five H_I rows)
    a2: complex = 1.0
    a3: complex = 1.0
    b4: complex = 1.0
    b5: complex = 1.0
    l5: complex = 1.0
    # y-side coefficients (last five H_I rows)
    alpha2: complex = 1.0
    alpha3: complex = 1.0
    beta4: complex = 1.0
    beta5: complex = 1.0
    lambda5: complex = 1.0
    # one seed vector per populated sub-block of psi
    seed_a5: np.ndarray = field(default_factory=unit_seed)
    seed_c5: np.ndarray = field(default_factory=unit_seed)
    seed_e4: np.ndarray = field(default_factory=unit_seed)
    seed_e5: np.ndarray = field(default_factory=unit_seed)
    seed_delta5: np.ndarray = field(default_factory=unit_seed)
    seed_eta5: np.ndarray = field(default_factory=unit_seed)
    seed_theta4: np.ndarray = field(default_factory=unit_seed)
    seed_theta5: np.ndarray = field(default_factory=unit_seed)

    def __post_init__(self):
        coerce_fields(self)
        for a, b in (("seed_e4", "seed_e5"), ("seed_theta4", "seed_theta5")):
            if len(getattr(self, a)) != len(getattr(self, b)):
                raise DimensionError(f"{a} and {b} must share a block, equal lengths required")

    def space(self):
        return ProductSpace(10, (
            len(self.seed_a5), self.dim_block2, len(self.seed_c5),
            len(self.seed_delta5), len(self.seed_e4), self.dim_block6,
            len(self.seed_eta5), len(self.seed_theta4),
        ))

    def validate(self):
        check_moduli(self)  # before _side squares them
        for name in ("b4", "beta4", "b5", "l5", "beta5", "lambda5"):
            if getattr(self, name) == 0:
                raise ZeroDivisorError(f"{name} = 0 divides the coefficient formulas")
        check_seeds(self)


@dataclass
class Family4Coefficients:
    """All derived scalars, in dependency order."""

    s_a: float
    s_alpha: float
    l4: complex
    lambda4: complex
    C: float
    Gamma: float
    D: float
    Delta: float
    A2: float
    A3: float
    A: float
    B2: float
    B3: float
    B: float
    Lambda2: float
    Lambda3: float
    Lambda: float
    Sigma2: float
    Sigma3: float
    Sigma: float
    u: complex
    z: complex
    q: float
    n: float

    @property
    def p_interval(self):
        return self.A2 / self.s_a, (self.A2 + 1) / self.s_a

    @property
    def m_interval(self):
        return (self.A2 + self.B3) / self.s_a, (self.A2 + self.B3 + 1) / self.s_a

    def derived(self):
        """The scalars a bundle carries, in wire order."""
        return {"u": self.u, "z": self.z, "q": self.q, "n": self.n,
                "l4": self.l4, "lambda4": self.lambda4}


# the names of _side's results, per side, as Family4Coefficients calls them
_X_SIDE = ("s_a", "l4", "C", "D", "A2", "A3", "B2", "B3")
_Y_SIDE = ("s_alpha", "lambda4", "Gamma", "Delta", "Lambda2", "Lambda3", "Sigma2", "Sigma3")


def _side(names, c2, c3, d4, d5, e5):
    """The sums one side's letters fix: (a2, a3, b4, b5, l5) give s_a, l4, C, D,
    A2, A3, B2, B3, and the y-side letters s_alpha, lambda4, Gamma, Delta,
    Lambda2, Lambda3, Sigma2, Sigma3, as ``names`` calls them.  Moduli that
    each pass ``check_moduli`` can still overflow these sums and products
    (a tiny b4 makes l4 huge): ParamRangeError names the first that is not
    finite."""
    with np.errstate(all="ignore"):  # a non-finite result is reported below
        s = 1 + abs(c2) ** 2 + abs(c3) ** 2
        e4 = c2 * np.conj(c3) / (np.conj(d4) * s) - e5 * np.conj(d5) / np.conj(d4)
        norm1 = (1 + abs(c3) ** 2) + (abs(d4) ** 2 + abs(d5) ** 2) * s
        norm2 = (1 + abs(c2) ** 2) + (abs(e4) ** 2 + abs(e5) ** 2) * s
        values = (s, e4, norm1, norm2, abs(c2) ** 2 / norm1, (1 + abs(c3) ** 2) / norm1,
                  (1 + abs(c2) ** 2) / norm2, abs(c3) ** 2 / norm2)
    for name, value in zip(names, values):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ParamRangeError(f"derived {name}={value} is not finite: "
                                  "the coefficients overflow float64")
    return values


def derive_coefficients(params: Family4Params) -> Family4Coefficients:
    """Resolve every derived scalar, validating the p and m ranges."""
    params.validate()
    pr = params
    s_a, l4, big_c, big_d, a2f, a3f, b2f, b3f = _side(
        _X_SIDE, pr.a2, pr.a3, pr.b4, pr.b5, pr.l5)
    s_al, lambda4, gamma, delta, lam2, lam3, sig2, sig3 = _side(
        _Y_SIDE, pr.alpha2, pr.alpha3, pr.beta4, pr.beta5, pr.lambda5)

    co = Family4Coefficients(
        s_a=s_a, s_alpha=s_al, l4=l4, lambda4=lambda4,
        C=big_c, Gamma=gamma, D=big_d, Delta=delta,
        A2=a2f, A3=a3f, A=a2f + a3f, B2=b2f, B3=b3f, B=b2f + b3f,
        Lambda2=lam2, Lambda3=lam3, Lambda=lam2 + lam3,
        Sigma2=sig2, Sigma3=sig3, Sigma=sig2 + sig3,
        u=None, z=None,  # set below, once p and m are admitted
        q=(1 + lam2 + a2f - pr.p * s_a) / s_al,
        n=(1 + a2f + b3f + lam2 + sig3 - pr.m * s_a) / s_al,
    )
    for name, t, (lo, hi) in (("p", pr.p, co.p_interval), ("m", pr.m, co.m_interval)):
        if not (lo < t < hi):
            raise ParamRangeError(f"{name}={t} outside open interval ({lo}, {hi})")

    dp = pr.p - 1 / big_c
    rad_u = (dp * (1 - 2 * a3f) - dp * dp * s_a
             + a3f * (abs(pr.b4) ** 2 + abs(pr.b5) ** 2) / big_c) / s_al
    dm = pr.m - 1 / big_c
    rad_z = (dm * (1 - 2 * (a3f - b3f)) - dm * dm * s_a
             - ((b3f - a3f) ** 2 + (b3f - a3f)) / s_a) / s_al
    for name, rad, anchor, t in (("u", rad_u, "p", pr.p), ("z", rad_z, "m", pr.m)):
        if rad <= 0:
            raise ParamRangeError(f"{name} radicand {rad} not positive at {anchor}={t}")
    co.u = np.exp(1j * pr.theta1) * np.sqrt(rad_u)
    co.z = np.exp(1j * pr.theta2) * np.sqrt(rad_z)
    return co


def _double_block(t, c2, c3, d4, d5, norm1, f3, f, e4=0, e5=0, norm2=np.inf, g2=0, g=0):
    """5x5 diagonal block mixing two coefficient ladders (d and e).

    Used for M (x-side, e = l-coefficients) and N (y-side, e =
    lambda-coefficients); ``norm1``/``norm2`` are (C, D) or (Gamma, Delta),
    (f3, f) the first ladder's fractions (A3, A) or (Lambda3, Lambda) and
    (g2, g) the second's (B2, B) or (Sigma2, Sigma).  P (t=p, x side) and
    Q (t=q, y side) are its one-ladder case: with the defaults every
    second-ladder term is exactly zero.
    """
    c = np.conj
    out = np.empty((5, 5), dtype=complex)
    out[0] = [t, -c2 * (t - 1 / norm1), -c3 * (t - 1 / norm2),
              -d4 * c2 / norm1 - e4 * c3 / norm2, -d5 * c2 / norm1 - e5 * c3 / norm2]
    out[1, 1] = f3 + abs(c2) ** 2 * (t - 1 / norm1)
    out[1, 2] = c3 * c(c2) * (t - 1 / norm1 - 1 / norm2)
    out[1, 3] = -d4 * f3 + e4 * c(c2) * c3 / norm2
    out[1, 4] = -d5 * f3 + e5 * c(c2) * c3 / norm2
    out[2, 2] = g2 + abs(c3) ** 2 * (t - 1 / norm2)
    out[2, 3] = c(c3) * d4 * c2 / norm1 - e4 * g2
    out[2, 4] = c(c3) * d5 * c2 / norm1 - e5 * g2
    out[3, 3] = abs(d4) ** 2 * f + abs(e4) ** 2 * g
    out[3, 4] = c(d4) * d5 * f + c(e4) * e5 * g
    out[4, 4] = abs(d5) ** 2 * f + abs(e5) ** 2 * g
    for i in range(5):
        for j in range(i):
            out[i, j] = c(out[j, i])
    return out


def core_projectors(params: Family4Params):
    """(G_I, L_I) as 10x10 complex matrices, plus the derived coefficients."""
    co = derive_coefficients(params)
    pr = params
    # each side's letters and first ladder: all of P or Q, the first part of M or N
    x = (pr.a2, pr.a3, pr.b4, pr.b5, co.C, co.A3, co.A)
    y = (pr.alpha2, pr.alpha3, pr.beta4, pr.beta5, co.Gamma, co.Lambda3, co.Lambda)
    pb, qb = _double_block(pr.p, *x), _double_block(co.q, *y)
    mb = _double_block(pr.m, *x, co.l4, pr.l5, co.D, co.B2, co.B)
    nb = _double_block(co.n, *y, co.lambda4, pr.lambda5, co.Delta, co.Sigma2, co.Sigma)
    g_core = _join_core(pb, qb, co.u, pr.a2, pr.a3, pr.alpha2, pr.alpha3)
    l_core = _join_core(mb, nb, co.z, pr.a2, pr.a3, pr.alpha2, pr.alpha3)
    return _polish(g_core), _polish(l_core), co


def _polish(m):
    """One McWeeny step m <- 3m^2 - 2m^3 between Hermitian parts: the closed
    forms cancel large terms at extreme coefficients and can leave 1e-11
    of idempotence error, which one step squares away.  The closed form's
    exact zeros are kept: the step would fill them with roundoff."""
    h = (m + m.conj().T) / 2
    h2 = h @ h
    h = 3 * h2 - 2 * h2 @ h
    return np.where(m == 0, 0, (h + h.conj().T) / 2)


def _ladder(c2, c3, d4, d5, e4, e5, f3, f, g2, g):
    """One side's multipliers of its four seed vectors over its five rows, from
    (a2, a3, b4, b5, l4, l5) and (A3, A, B2, B) for the x side, or the
    y-side letters and (Lambda3, Lambda, Sigma2, Sigma)."""
    c = np.conj
    k2 = -f3 / (c(d5) * f)
    k4 = c(d4) / c(d5)
    k3 = e4 * k4 + e5
    k1 = c2 * k2 + c3 * k3
    mu4 = c(e4) / c(e5)
    mu3 = -g2 / (c(e5) * g)
    h2 = d4 * mu4 + d5
    h1 = c2 * h2 + c3 * mu3
    return (np.array([k1, k2, k3, k4, 1.0]), np.array([h1, h2, mu3, mu4, 1.0]),
            np.array([c2 * d4 + c3 * e4, d4, e4, 1.0, 0.0]),
            np.array([c2 * d5 + c3 * e5, d5, e5, 0.0, 1.0]))


def state(params: Family4Params, co: Family4Coefficients = None):
    """The entangled unit vector on the product space."""
    if co is None:
        co = derive_coefficients(params)
    params.validate()
    sp = params.space()
    pr = params
    # per-row multipliers of the seed vectors, one ladder per side
    gx, hx, sx, tx = _ladder(pr.a2, pr.a3, pr.b4, pr.b5, co.l4, pr.l5, co.A3, co.A, co.B2, co.B)
    gy, hy, sy, ty = _ladder(pr.alpha2, pr.alpha3, pr.beta4, pr.beta5, co.lambda4, pr.lambda5,
                             co.Lambda3, co.Lambda, co.Sigma2, co.Sigma)
    # the x side fills blocks 1, 3, 5 of rows 1-5, the y side blocks 4, 7, 8 of rows 6-10
    block = [np.zeros((10, b), dtype=complex) for b in sp.partition]
    block[0][:5] = np.outer(gx, params.seed_a5)
    block[2][:5] = np.outer(hx, params.seed_c5)
    block[4][:5] = np.outer(sx, params.seed_e4) + np.outer(tx, params.seed_e5)
    block[3][5:] = np.outer(gy, params.seed_delta5)
    block[6][5:] = np.outer(hy, params.seed_eta5)
    block[7][5:] = np.outer(sy, params.seed_theta4) + np.outer(ty, params.seed_theta5)
    psi = np.concatenate(block, axis=1).reshape(-1)
    return psi / np.linalg.norm(psi)


def build(params: Family4Params) -> SolutionBundle:
    """Assemble the full bundle (operators lifted to the product space)."""
    g_core, l_core, co = core_projectors(params)
    return assemble(params.space(), state(params, co), g_core, l_core,
                    params=params, derived=co.derived())
