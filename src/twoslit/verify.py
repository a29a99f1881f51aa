"""Condition checks, conditional probabilities and correlation detection.

Every defining condition of a candidate solution is evaluated numerically
and reported with its residual.  Equality conditions pass when the
residual is at most the equality tolerance; "nonzero" conditions (the
incompatibility requirements) pass when the residual *exceeds* a separate
nonzeroness threshold, so they cannot be satisfied by numerical dust.

``verify_bundle`` evaluates the conditions on the factors when every
operator is bit for bit a lift ``a (x) 1`` or ``1 (x) b``: with
``rows = psi.reshape(dim_i, dim_ii)``, ``(a (x) 1) psi`` is ``a @ rows``,
``(1 (x) b) psi`` is ``rows @ b.T``, ``||[a (x) 1, c (x) 1]||_F`` is
``sqrt(dim_ii) ||[a, c]||_F`` and ``[a (x) 1, 1 (x) b]`` vanishes.  Any
other bundle goes through the dense checks ``check3``/``check4``.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DimensionError, NonCommutingError, ZeroConditioningError
from .linalg import (as_cmatrix, as_cvector, commutator, default_nonzero_tol,
                     default_tol, frobenius_norm)
from .space import lift_right


@dataclass
class CheckEntry:
    name: str
    kind: str  # "eq" | "nonzero" | "structural"
    residual: float
    passed: bool


@dataclass
class CorrelationFinding:
    identity: str
    residual: float


@dataclass
class VerificationReport:
    entries: list
    tol: float
    tol_nonzero: float
    correlation_findings: list = field(default_factory=list)
    method: str = "dense"  # "factored" | "dense": which path produced the entries

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def failing(self):
        return [e.name for e in self.entries if not e.passed]

    def to_dict(self):
        return {
            "tol": self.tol,
            "tol_nonzero": self.tol_nonzero,
            "passed": self.passed,
            "method": self.method,
            "conditions": [
                {"name": e.name, "kind": e.kind, "residual": e.residual, "pass": e.passed}
                for e in self.entries
            ],
            "correlations": [
                {"identity": f.identity, "residual": f.residual}
                for f in self.correlation_findings
            ],
        }


def _normalized(psi):
    psi = as_cvector(psi)
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise DimensionError("state vector must be nonzero")
    return psi / nrm


def _conformable(psi, *mats):
    n = psi.shape[0]
    for m in mats:
        m = as_cmatrix(m)
        if m.shape != (n, n):
            raise DimensionError(f"operator shape {m.shape} does not match state length {n}")


def _eq(name, residual, tol):
    return CheckEntry(name, "eq", float(residual), bool(residual <= tol))


def _nonzero(name, residual, tol_nz):
    return CheckEntry(name, "nonzero", float(residual), bool(residual > tol_nz))


def check3(E, G, T, Y, psi, tol=None, tol_nonzero=None, space=None):
    """Evaluate the five (plus one structural) two-detector conditions.

    C.1  [E,G] nonzero (incompatibility);
    C.2  [T,E] = 0 and T psi = E psi;
    C.3  [Y,G] = 0 and Y psi = G psi;
    C.4  [T,Y] = 0;
    C.5  E psi and G psi differ from both 0 and psi (non-triviality);
    C.6  (when ``space`` is given) T and Y act on the right factor only.
    """
    t = default_tol() if tol is None else float(tol)
    tnz = default_nonzero_tol() if tol_nonzero is None else float(tol_nonzero)
    psi = _normalized(psi)
    _conformable(psi, E, G, T, Y)
    entries = [
        _nonzero("C.1", frobenius_norm(commutator(E, G)), tnz),
        _eq("C.2", max(frobenius_norm(commutator(T, E)), np.linalg.norm(T @ psi - E @ psi)), t),
        _eq("C.3", max(frobenius_norm(commutator(Y, G)), np.linalg.norm(Y @ psi - G @ psi)), t),
        _eq("C.4", frobenius_norm(commutator(T, Y)), t),
        _nonzero("C.5", min(np.linalg.norm(E @ psi), np.linalg.norm(psi - E @ psi),
                            np.linalg.norm(G @ psi), np.linalg.norm(psi - G @ psi)), tnz),
    ]
    if space is not None:
        res = max(_right_factor_residual(T, space), _right_factor_residual(Y, space))
        entries.append(CheckEntry("C.6", "structural", float(res), bool(res <= t)))
    return VerificationReport(entries=entries, tol=t, tol_nonzero=tnz)


def _right_factor_residual(op, space):
    """How far op is from identity (x) (its leading right-factor block)."""
    op = as_cmatrix(op)
    d2 = space.dim_ii
    if op.shape != (space.dim, space.dim):
        raise DimensionError(f"operator shape {op.shape} does not match space dim {space.dim}")
    return float(np.max(np.abs(op - lift_right(op[:d2, :d2], space))))


def check4(E, G, L, T, Y, W, psi, tol=None, tol_nonzero=None):
    """Evaluate the ten three-detector conditions.

    C.1-C.3  pairwise incompatibility of E, G, L;
    C.4-C.6  T, Y, W track E, G, L on psi while commuting with them;
    C.7-C.9  pairwise compatibility of T, Y, W;
    C.10     non-triviality of E psi, G psi, L psi.
    """
    t = default_tol() if tol is None else float(tol)
    tnz = default_nonzero_tol() if tol_nonzero is None else float(tol_nonzero)
    psi = _normalized(psi)
    _conformable(psi, E, G, L, T, Y, W)
    nontrivial = min(v for target in (E, G, L)
                     for v in (np.linalg.norm(target @ psi),
                               np.linalg.norm(psi - target @ psi)))
    entries = [
        _nonzero("C.1", frobenius_norm(commutator(E, G)), tnz),
        _nonzero("C.2", frobenius_norm(commutator(E, L)), tnz),
        _nonzero("C.3", frobenius_norm(commutator(G, L)), tnz),
        _eq("C.4", max(frobenius_norm(commutator(T, E)), np.linalg.norm(T @ psi - E @ psi)), t),
        _eq("C.5", max(frobenius_norm(commutator(Y, G)), np.linalg.norm(Y @ psi - G @ psi)), t),
        _eq("C.6", max(frobenius_norm(commutator(W, L)), np.linalg.norm(W @ psi - L @ psi)), t),
        _eq("C.7", frobenius_norm(commutator(T, Y)), t),
        _eq("C.8", frobenius_norm(commutator(T, W)), t),
        _eq("C.9", frobenius_norm(commutator(Y, W)), t),
        _nonzero("C.10", nontrivial, tnz),
    ]
    return VerificationReport(entries=entries, tol=t, tol_nonzero=tnz)


def conditional_probability(a, b, psi, tol=None):
    """p(a | b) = <psi| a b psi> / <psi| b psi> for commuting projectors.

    Raises NonCommutingError when [a, b] is not numerically zero (the
    ratio has no probability meaning then) and ZeroConditioningError when
    the conditioning event has zero probability on psi.
    """
    t = default_tol() if tol is None else float(tol)
    psi = _normalized(psi)
    _conformable(psi, a, b)
    if frobenius_norm(commutator(a, b)) > max(t, 1e-10):
        raise NonCommutingError("projectors do not commute; conditional probability undefined")
    bp = b @ psi
    denom = float(np.real(np.vdot(psi, bp)))
    if denom <= t:
        raise ZeroConditioningError(f"conditioning probability {denom} is not positive")
    num = float(np.real(np.vdot(psi, a @ bp)))
    return num / denom


# The finite catalog of detection-correlation identities.  Each entry maps
# an identity label to a residual function of the bundle's operators.
def _catalog(bundle):
    T, Y, psi = bundle.T, bundle.Y, _normalized(bundle.psi)
    idents = [
        ("YT psi = Y psi", np.linalg.norm(Y @ (T @ psi) - Y @ psi)),
        ("TY psi = T psi", np.linalg.norm(T @ (Y @ psi) - T @ psi)),
    ]
    W = getattr(bundle, "W", None)
    if W is not None:
        eye = np.eye(W.shape[0])
        idents += [
            ("TW psi = 0", np.linalg.norm(T @ (W @ psi))),
            ("WY psi = 0", np.linalg.norm(W @ (Y @ psi))),
            ("(1-W)Y psi = 0", np.linalg.norm((eye - W) @ (Y @ psi))),
            ("(1-T)(1-W)Y psi = 0", np.linalg.norm((eye - T) @ ((eye - W) @ (Y @ psi)))),
        ]
    return idents


def detect_correlations(bundle, tol=None):
    """Identities from the catalog that hold on the bundle's state.

    A returned finding means one detector's outcome constrains another's,
    i.e. the detections are not informationally independent.  An empty
    list certifies the non-correlated branch.
    """
    t = default_tol() if tol is None else float(tol)
    return [CorrelationFinding(name, float(res))
            for name, res in _catalog(bundle) if res <= t]


def _projector_residual(m):
    m = as_cmatrix(m)
    return max(float(np.max(np.abs(m - m.conj().T))), float(np.max(np.abs(m @ m - m))))


_PROPERTIES = ("E", "G", "L")


def _lift_core(op, sp, left):
    """The factor that ``op`` lifts, when ``op`` equals it lifted bit for bit.

    ``left`` selects ``core (x) 1`` (core ``op[::dim_ii, ::dim_ii]``),
    otherwise ``1 (x) core`` (core ``op[:dim_ii, :dim_ii]``).  Every entry
    the lift fixes to the core must equal it exactly and every other entry
    must be zero, so a non-finite entry or a one-ulp change anywhere gives
    None.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (sp.dim, sp.dim):
        return None
    n, m = sp.dim_i, sp.dim_ii
    blocks = op.reshape(n, m, n, m)
    if left:  # kept[i, j, k] = op[i*m + k, j*m + k]
        core, kept = op[::m, ::m], np.diagonal(blocks, axis1=1, axis2=3)
    else:     # kept[k, l, i] = op[i*m + k, i*m + l]
        core, kept = op[:m, :m], np.diagonal(blocks, axis1=0, axis2=2)
    if not np.isfinite(core).all() or not (kept == core[:, :, None]).all():
        return None
    if np.count_nonzero(op) != np.count_nonzero(kept):
        return None
    return core.copy()


def _factors(bundle, names):
    """Name -> core for an exactly lifted bundle with a finite state, else None."""
    sp = getattr(bundle, "space", None)
    psi = np.asarray(bundle.psi, dtype=complex)
    if sp is None or psi.shape != (sp.dim,) or not np.isfinite(psi).all():
        return None
    cores = {}
    for name in names:
        cores[name] = _lift_core(getattr(bundle, name), sp, name in _PROPERTIES)
        if cores[name] is None:
            return None
    return cores


def _factored_catalog(rows, t, y, w=None):
    """The correlation catalog of ``_catalog``, applied to psi's rows."""
    norm = np.linalg.norm
    tp, yp = rows @ t.T, rows @ y.T
    idents = [
        ("YT psi = Y psi", norm(tp @ y.T - yp)),
        ("TY psi = T psi", norm(yp @ t.T - tp)),
    ]
    if w is not None:
        not_wy = yp - yp @ w.T
        idents += [
            ("TW psi = 0", norm(rows @ w.T @ t.T)),
            ("WY psi = 0", norm(yp @ w.T)),
            ("(1-W)Y psi = 0", norm(not_wy)),
            ("(1-T)(1-W)Y psi = 0", norm(not_wy - not_wy @ t.T)),
        ]
    return idents


def _verify_factored(bundle, cores, tol, tol_nonzero):
    """The verify_bundle report, evaluated on the n x n and m x m factors.

    Labels follow check3/check4: pairwise incompatibility of the
    properties, each detector tracking its property on psi, pairwise
    compatibility of the detectors, non-triviality.  The two-detector list
    ends with the structural C.6, which the exact-lift gate has settled.
    """
    t = default_tol() if tol is None else float(tol)
    tnz = default_nonzero_tol() if tol_nonzero is None else float(tol_nonzero)
    sp = bundle.space
    rows = _normalized(bundle.psi).reshape(sp.dim_i, sp.dim_ii)
    props = [core for name, core in cores.items() if name in _PROPERTIES]
    dets = [core for name, core in cores.items() if name not in _PROPERTIES]
    props_psi = [a @ rows for a in props]
    nontrivial = min(v for a_psi in props_psi
                     for v in (np.linalg.norm(a_psi), np.linalg.norm(rows - a_psi)))
    conditions = (
        [(_nonzero, np.sqrt(sp.dim_ii) * frobenius_norm(commutator(a, b)), tnz)
         for a, b in combinations(props, 2)]
        + [(_eq, np.linalg.norm(rows @ d.T - a_psi), t) for d, a_psi in zip(dets, props_psi)]
        + [(_eq, np.sqrt(sp.dim_i) * frobenius_norm(commutator(a, b)), t)
           for a, b in combinations(dets, 2)]
        + [(_nonzero, nontrivial, tnz)]
    )
    entries = [check(f"C.{i}", residual, limit)
               for i, (check, residual, limit) in enumerate(conditions, start=1)]
    if len(dets) == 2:
        entries.append(CheckEntry("C.6", "structural", 0.0, True))
    entries += [_eq(f"projector({name})", _projector_residual(core), t)
                for name, core in cores.items()]
    findings = [CorrelationFinding(name, float(res))
                for name, res in _factored_catalog(rows, *dets) if res <= t]
    return VerificationReport(entries=entries, tol=t, tol_nonzero=tnz,
                              correlation_findings=findings, method="factored")


def verify_bundle(bundle, tol=None, tol_nonzero=None):
    """Full report for a solution bundle.

    Runs the applicable condition list, then appends one "projector"
    precondition per operator (Hermiticity + idempotence residual, so a
    tampered operator entry is caught even where the detector identities
    are blind to it) and the correlation scan.

    A bundle whose operators are all exact lifts of their factors is
    checked on the factors (``method == "factored"``); any other bundle
    (non-product, tampered, wrongly shaped or non-finite) gets the dense
    ``check3``/``check4`` evaluation (``method == "dense"``).  Both give
    the same labels, kinds and pass flags.
    """
    three = getattr(bundle, "W", None) is not None
    names = ("E", "G", "L", "T", "Y", "W") if three else ("E", "G", "T", "Y")
    cores = _factors(bundle, names)
    if cores is not None:
        return _verify_factored(bundle, cores, tol, tol_nonzero)
    if three:
        report = check4(bundle.E, bundle.G, bundle.L, bundle.T, bundle.Y, bundle.W,
                        bundle.psi, tol=tol, tol_nonzero=tol_nonzero)
    else:
        report = check3(bundle.E, bundle.G, bundle.T, bundle.Y, bundle.psi,
                        tol=tol, tol_nonzero=tol_nonzero, space=bundle.space)
    for name in names:
        report.entries.append(
            _eq(f"projector({name})", _projector_residual(getattr(bundle, name)), report.tol))
    report.correlation_findings = detect_correlations(bundle, tol=tol)
    return report
