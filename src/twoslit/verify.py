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
other bundle goes through the dense checks of ``check3``/``check4``.  Both
paths build their entries with one generator over the space's (property,
detector) pairs and scan one correlation catalog.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DimensionError, NonCommutingError, ZeroConditioningError
from .linalg import (as_cmatrix, as_cvector, commutator, default_nonzero_tol, frobenius_norm,
                     tolerance)
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
    with np.errstate(invalid="ignore"):  # a NaN or infinite norm: the checks fail on the NaNs
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


def _dense_act(op, psi):
    """op applied to the state, for an operator on the whole product space."""
    return op @ psi


def _factor_act(b, rows):
    """(1 (x) b) psi for an H_II factor b, with psi given as its rows."""
    return rows @ b.T


def _conditions(props, dets, psi, tol, tol_nonzero, factored=False):
    """The C.x entries for properties ``props`` paired in order with ``dets``.

    In order: pairwise incompatibility of the properties; each detector
    commuting with its property and tracking it on psi; pairwise
    compatibility of the detectors; non-triviality of every property on
    psi.  Operators are dense on the product space and psi a vector, or,
    with ``factored``, H_I cores a, H_II cores b and psi as its
    ``(dim_i, dim_ii)`` rows.  Non-finite residuals propagate, so they fail.
    """
    norm = np.linalg.norm
    if factored:
        n, m = psi.shape
        act, props_scale, dets_scale = _factor_act, np.sqrt(m), np.sqrt(n)
    else:
        act, props_scale, dets_scale = _dense_act, 1.0, 1.0
    props_psi = [a @ psi for a in props]
    conditions = (
        [(_nonzero, props_scale * frobenius_norm(commutator(a, c)), tol_nonzero)
         for a, c in combinations(props, 2)]
        + [(_eq, np.maximum(0.0 if factored else frobenius_norm(commutator(d, a)),
                            norm(act(d, psi) - a_psi)), tol)
           for a, d, a_psi in zip(props, dets, props_psi)]
        + [(_eq, dets_scale * frobenius_norm(commutator(d, e)), tol)
           for d, e in combinations(dets, 2)]
        + [(_nonzero, np.min([v for a_psi in props_psi
                              for v in (norm(a_psi), norm(psi - a_psi))]), tol_nonzero)]
    )
    return [check(f"C.{i}", residual, limit)
            for i, (check, residual, limit) in enumerate(conditions, start=1)]


def check3(E, G, T, Y, psi, tol=None, tol_nonzero=None, space=None):
    """Evaluate the five (plus one structural) two-detector conditions.

    C.1  [E,G] nonzero (incompatibility);
    C.2  [T,E] = 0 and T psi = E psi;
    C.3  [Y,G] = 0 and Y psi = G psi;
    C.4  [T,Y] = 0;
    C.5  E psi and G psi differ from both 0 and psi (non-triviality);
    C.6  (when ``space`` is given) T and Y act on the right factor only.
    """
    return _dense_report([E, G], [T, Y], psi, tol, tol_nonzero, space)


def _dense_report(props, dets, psi, tol, tol_nonzero, space=None):
    """The dense report for ``props`` paired in order with ``dets``; with ``space``,
    also the structural C.6: every detector acts on the right factor only."""
    t, tnz = tolerance(tol), default_nonzero_tol(tol_nonzero)
    psi = _normalized(psi)
    _conformable(psi, *props, *dets)
    entries = _conditions(props, dets, psi, t, tnz)
    if space is not None:
        res = max(_right_factor_residual(d, space) for d in dets)
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
    return _dense_report([E, G, L], [T, Y, W], psi, tol, tol_nonzero)


def conditional_probability(a, b, psi, tol=None):
    """p(a | b) = <psi| a b psi> / <psi| b psi> for commuting projectors.

    Raises NonCommutingError when the Frobenius norm of [a, b] exceeds
    the tolerance (the ratio has no probability meaning then) and
    ZeroConditioningError when the conditioning event has zero
    probability on psi.
    """
    t = tolerance(tol)
    psi = _normalized(psi)
    _conformable(psi, a, b)
    if frobenius_norm(commutator(a, b)) > t:
        raise NonCommutingError("projectors do not commute; conditional probability undefined")
    bp = b @ psi
    denom = float(np.real(np.vdot(psi, bp)))
    if denom <= t:
        raise ZeroConditioningError(f"conditioning probability {denom} is not positive")
    num = float(np.real(np.vdot(psi, a @ bp)))
    return num / denom


def _catalog(act, psi, t, y, w=None):
    """The finite catalog of detection-correlation identities.

    Maps each identity label to its residual on psi, where ``act(d, psi)``
    applies detector d to a state (``_dense_act`` or ``_factor_act``).
    """
    norm = np.linalg.norm
    tp, yp = act(t, psi), act(y, psi)
    idents = [
        ("YT psi = Y psi", norm(act(y, tp) - yp)),
        ("TY psi = T psi", norm(act(t, yp) - tp)),
    ]
    if w is not None:
        not_wy = yp - act(w, yp)
        idents += [
            ("TW psi = 0", norm(act(t, act(w, psi)))),
            ("WY psi = 0", norm(act(w, yp))),
            ("(1-W)Y psi = 0", norm(not_wy)),
            ("(1-T)(1-W)Y psi = 0", norm(not_wy - act(t, not_wy))),
        ]
    return idents


def _findings(idents, tol):
    return [CorrelationFinding(name, float(res)) for name, res in idents if res <= tol]


def detect_correlations(bundle, tol=None):
    """Identities from the catalog that hold on the bundle's state.

    A returned finding means one detector's outcome constrains another's,
    i.e. the detections are not informationally independent.  An empty
    list certifies the non-correlated branch.
    """
    t = tolerance(tol)
    idents = _catalog(_dense_act, _normalized(bundle.psi), bundle.T, bundle.Y,
                      getattr(bundle, "W", None))
    return _findings(idents, t)


def _projector_residual(m):
    m = as_cmatrix(m)
    return max(float(np.max(np.abs(m - m.conj().T))), float(np.max(np.abs(m @ m - m))))


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


def _factors(bundle, props, dets):
    """Name -> core for an exactly lifted bundle with a finite state, else None."""
    sp = bundle.space
    psi = np.asarray(bundle.psi, dtype=complex)
    if psi.shape != (sp.dim,) or not np.isfinite(psi).all():
        return None
    cores = {}
    for name in props + dets:
        cores[name] = _lift_core(getattr(bundle, name), sp, name in props)
        if cores[name] is None:
            return None
    return cores


def verify_bundle(bundle, tol=None, tol_nonzero=None):
    """Full report for a solution bundle.

    Runs the applicable condition list, then appends one "projector"
    precondition per operator (Hermiticity + idempotence residual, so a
    tampered operator entry is caught even where the detector identities
    are blind to it) and the correlation scan.

    A bundle whose operators are all exact lifts of their factors is
    checked on the factors (``method == "factored"``); any other bundle
    (non-product, tampered, wrongly shaped or non-finite) gets the dense
    ``check3``/``check4`` evaluation (``method == "dense"``).  Both paths
    take the (property, detector) pairs from ``bundle.space``, draw their
    entries from one condition generator and their findings from one
    correlation catalog.  The structural C.6 is checked on 4 blocks only.
    """
    sp = bundle.space
    props, dets, _ = zip(*sp.pairs)
    structural = len(sp.partition) == 4
    cores = _factors(bundle, props, dets)
    if cores is None:
        ops = {name: getattr(bundle, name) for name in props + dets}
        report = _dense_report([ops[name] for name in props], [ops[name] for name in dets],
                               bundle.psi, tol, tol_nonzero, sp if structural else None)
        report.correlation_findings = detect_correlations(bundle, tol=tol)
    else:
        ops = cores
        t, tnz = tolerance(tol), default_nonzero_tol(tol_nonzero)
        rows = _normalized(bundle.psi).reshape(sp.dim_i, sp.dim_ii)
        det_cores = [cores[name] for name in dets]
        entries = _conditions([cores[name] for name in props], det_cores, rows, t, tnz,
                              factored=True)
        if structural:  # the exact-lift gate has settled it
            entries.append(CheckEntry("C.6", "structural", 0.0, True))
        report = VerificationReport(
            entries=entries, tol=t, tol_nonzero=tnz, method="factored",
            correlation_findings=_findings(_catalog(_factor_act, rows, *det_cores), t))
    report.entries += [_eq(f"projector({name})", _projector_residual(op), report.tol)
                       for name, op in ops.items()]
    return report
