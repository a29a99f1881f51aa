"""Condition checks, conditional probabilities and correlation detection.

Every defining condition of a candidate solution is evaluated numerically
and reported with its residual.  Equality conditions pass when the
residual is at most the equality tolerance; "nonzero" conditions (the
incompatibility requirements) pass when the residual *exceeds* a separate
nonzeroness threshold, so they cannot be satisfied by numerical dust.  A
non-finite residual fails, and maxima of residuals are taken with numpy,
which keeps a NaN (Python's ``max(0.0, nan)`` is 0.0).

``verify_bundle`` checks every bundle on its factors.  It reads each
property's H_I core off the first stripe, ``op[::dim_ii, ::dim_ii]``, and
each detector's H_II core off the first diagonal block,
``op[:dim_ii, :dim_ii]``, and measures the lift residual
``max|op - lift(core)|``: exactly 0 for a lift ``a (x) 1`` or ``1 (x) b``,
NaN for a NaN entry.  The conditions are read off the cores: with
``rows = psi.reshape(dim_i, dim_ii)``, ``(a (x) 1) psi`` is ``a @ rows``,
``(1 (x) b) psi`` is ``rows @ b.T``, ``||[a (x) 1, c (x) 1]||_F`` is
``sqrt(dim_ii) ||[a, c]||_F`` and ``[a (x) 1, 1 (x) b]`` vanishes.
``projector(X)`` is the largest of the Hermiticity and idempotence
residuals of X's core and X's lift residual; with 4 blocks the structural
``C.6`` is the detectors' largest lift residual.  So an operator that is
not a lift, a tampered one say, fails its ``projector(X)`` (and ``C.6``).

``check3``, ``check4`` and ``detect_correlations`` evaluate the same
conditions and catalog on dense operators, at a cost cubic in the
dimension.  They are the dense reference the tests compare against;
``verify_bundle`` does not call them.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DimensionError, NonCommutingError, ZeroConditioningError
from .linalg import (as_cmatrix, as_cvector, commutator, default_nonzero_tol, frobenius_norm,
                     tolerance)


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


def _structural(residuals, tol):
    """C.6: the largest of the detectors' lift residuals, NaN kept."""
    residual = np.max(residuals)
    return CheckEntry("C.6", "structural", float(residual), bool(residual <= tol))


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
    C.6  (when ``space`` is given) T and Y act on the right factor only:
         their largest lift residual.

    The dense test reference for ``verify_bundle``, which does not call
    it; ``bench/tracing.py`` traces it by name.
    """
    return _dense_report([E, G], [T, Y], psi, tol, tol_nonzero, space)


def _dense_report(props, dets, psi, tol, tol_nonzero, space=None):
    """The dense report for ``props`` paired in order with ``dets``; with ``space``,
    also the structural C.6, the detectors' largest lift residual."""
    t, tnz = tolerance(tol), default_nonzero_tol(tol_nonzero)
    psi = _normalized(psi)
    _conformable(psi, *props, *dets)
    entries = _conditions(props, dets, psi, t, tnz)
    if space is not None:
        entries.append(_structural([_lift_residual(d, space, False)[1] for d in dets], t))
    return VerificationReport(entries=entries, tol=t, tol_nonzero=tnz)


def check4(E, G, L, T, Y, W, psi, tol=None, tol_nonzero=None):
    """Evaluate the ten three-detector conditions.

    C.1-C.3  pairwise incompatibility of E, G, L;
    C.4-C.6  T, Y, W track E, G, L on psi while commuting with them;
    C.7-C.9  pairwise compatibility of T, Y, W;
    C.10     non-triviality of E psi, G psi, L psi.

    The dense test reference for ``verify_bundle``, which does not call
    it; ``bench/tracing.py`` traces it by name.
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
    list certifies the non-correlated branch.  This is the dense test
    reference: ``verify_bundle`` scans the same catalog on the detectors'
    cores and does not call it; ``bench/tracing.py`` traces it by name.
    """
    t = tolerance(tol)
    idents = _catalog(_dense_act, _normalized(bundle.psi), bundle.T, bundle.Y,
                      getattr(bundle, "W", None))
    return _findings(idents, t)


def _projector_residual(core, lift_residual):
    """Hermiticity and idempotence of ``core``, and how far its operator is from its lift."""
    herm, idem = np.max(np.abs(core - core.conj().T)), np.max(np.abs(core @ core - core))
    return np.maximum(np.maximum(herm, idem), lift_residual)


def _lift_residual(op, sp, left):
    """(core, max|op - lift(core)|) for the core on ``op``'s first stripe.

    ``left`` selects ``core (x) 1`` (core ``op[::dim_ii, ::dim_ii]``),
    otherwise ``1 (x) core`` (core ``op[:dim_ii, :dim_ii]``).  The residual
    is exactly 0 for an exact lift, which costs no subtraction, and NaN for
    a NaN entry.  It is read off the stripes and the count of nonzero
    entries, without building the lift.
    """
    op = as_cmatrix(op)
    if op.shape != (sp.dim, sp.dim):
        raise DimensionError(f"operator shape {op.shape} does not match space dim {sp.dim}")
    # pairs[k, l] is op's block between H_II indices k, l (left) or H_I indices (right);
    # the lift puts the core on every stripe pairs[k, k] and zeros elsewhere
    pairs = op.reshape(sp.dim_i, sp.dim_ii, sp.dim_i, sp.dim_ii).transpose(
        (1, 3, 0, 2) if left else (0, 2, 1, 3))
    core, stripes = pairs[0, 0].copy(), np.diagonal(pairs)  # stripes[:, :, k] = pairs[k, k]
    off_stripes = np.count_nonzero(op) != np.count_nonzero(stripes)
    if not off_stripes and (stripes == core[:, :, None]).all():
        return core, 0.0
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, which fails
        residual = np.max(np.abs(stripes - core[:, :, None]))
    if off_stripes:
        off = np.abs(pairs)
        k = np.arange(len(off))
        off[k, k] = 0.0
        residual = np.max([residual, np.max(off)])
    return core, float(residual)


def verify_bundle(bundle, tol=None, tol_nonzero=None):
    """Full report for a solution bundle, checked on its cores.

    Runs the condition list of the bundle's mode on the cores and the
    state's rows, then appends one ``projector(X)`` entry per operator
    (Hermiticity and idempotence of its core and its lift residual, so a
    tampered entry is caught even where the conditions are blind to it)
    and the correlation scan.  With 4 blocks the structural C.6 is the
    detectors' largest lift residual.  The (property, detector) pairs come
    from ``bundle.space``.  An operator of the wrong shape or a state of
    the wrong length raises DimensionError.
    """
    sp = bundle.space
    t, tnz = tolerance(tol), default_nonzero_tol(tol_nonzero)
    props, dets, _ = zip(*sp.pairs)
    lifts = {name: _lift_residual(getattr(bundle, name), sp, name in props)
             for name in props + dets}
    psi = _normalized(bundle.psi)
    if psi.shape != (sp.dim,):
        raise DimensionError(f"state length {psi.shape[0]} does not match space dim {sp.dim}")
    rows = psi.reshape(sp.dim_i, sp.dim_ii)
    det_cores = [lifts[name][0] for name in dets]
    entries = _conditions([lifts[name][0] for name in props], det_cores, rows, t, tnz,
                          factored=True)
    if len(sp.partition) == 4:
        entries.append(_structural([lifts[name][1] for name in dets], t))
    entries += [_eq(f"projector({name})", _projector_residual(core, residual), t)
                for name, (core, residual) in lifts.items()]
    return VerificationReport(entries=entries, tol=t, tol_nonzero=tnz,
                              correlation_findings=_findings(_catalog(_factor_act, rows,
                                                                      *det_cores), t))
