"""JSON wire formats for matrices, states, spaces, parameters and bundles.

Complex numbers travel as [re, im] pairs; matrices as
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` with the data flat in
row-major order; vectors as ``{"dim": n, "data": [...]}``.  Values
round-trip through these encoders at full double precision.  ``dumps``
writes objects indented and arrays on one line; input may use any JSON
whitespace.
"""

import json

import numpy as np

from .errors import DimensionError, ModeError
from .family3 import Family3Params
from .family4 import Family4Params
from .space import ProductSpace, SolutionBundle


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        try:
            return complex(float(v[0]), float(v[1]))
        except (TypeError, ValueError):
            pass
    raise DimensionError(f"cannot read {v!r} as a complex number")


def _to_pairs(a):
    """[[re, im], ...] of a complex array in row-major order, as Python floats."""
    return np.ascontiguousarray(a).reshape(-1, 1).view(float).tolist()


def _from_pairs(data):
    """A flat complex array from wire data, read as ``pair_to_complex`` reads it.

    A numeric (N, 2) array is viewed as complex at once; anything else --
    bare numbers, ragged rows, strings, bools -- goes element by element,
    so malformed data raises the same error either way.
    """
    try:
        a = np.asarray(data)
    except ValueError:  # numpy refuses an inhomogeneous shape
        a = None
    if a is not None and a.ndim == 2 and a.shape[1] == 2 and a.dtype.kind in "fiu":
        return np.ascontiguousarray(a, dtype=float).view(complex).reshape(-1)
    return np.array([pair_to_complex(v) for v in data], dtype=complex)


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    return {"rows": m.shape[0], "cols": m.shape[1], "data": _to_pairs(m)}


def matrix_from_json(d):
    rows, cols = int(d["rows"]), int(d["cols"])
    data = d["data"]
    if len(data) != rows * cols:
        raise DimensionError(f"matrix data length {len(data)} != {rows}*{cols}")
    return _from_pairs(data).reshape(rows, cols)


def vector_to_json(v):
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={v.ndim}")
    return {"dim": v.shape[0], "data": _to_pairs(v)}


def vector_from_json(d):
    data = d["data"]
    if len(data) != int(d["dim"]):
        raise DimensionError(f"vector data length {len(data)} != dim {d['dim']}")
    return _from_pairs(data)


def space_to_json(sp):
    return {"dim_i": sp.dim_i, "rank_e": sp.rank_e, "partition": list(sp.partition)}


def space_from_json(d):
    sp = ProductSpace(int(d["dim_i"]), tuple(d["partition"]))
    rank = d.get("rank_e")
    if rank is not None and int(rank) != sp.rank_e:
        raise DimensionError(f"rank_e {rank} inconsistent with dim_i {sp.dim_i}")
    return sp


_P3_COMPLEX = ("mu2", "mu3", "lambda2", "lambda3")
_P3_SEEDS = ("seed_a3", "seed_b2", "seed_gamma3", "seed_delta2")
_P4_COMPLEX = ("a2", "a3", "b4", "b5", "l5", "alpha2", "alpha3", "beta4", "beta5", "lambda5")
_P4_SEEDS = ("seed_a5", "seed_c5", "seed_e4", "seed_e5",
             "seed_delta5", "seed_eta5", "seed_theta4", "seed_theta5")


def params3_to_json(p: Family3Params):
    out = {"p": p.p, "theta": p.theta}
    out.update({k: complex_to_pair(getattr(p, k)) for k in _P3_COMPLEX})
    out.update({k: vector_to_json(getattr(p, k)) for k in _P3_SEEDS})
    return out


def params3_from_json(d):
    kwargs = {"p": float(d["p"]), "theta": float(d.get("theta", 0.0))}
    for k in _P3_COMPLEX:
        if k in d:
            kwargs[k] = pair_to_complex(d[k])
    for k in _P3_SEEDS:
        if k in d:
            kwargs[k] = vector_from_json(d[k])
    return Family3Params(**kwargs)


def params4_to_json(p: Family4Params):
    out = {"p": p.p, "m": p.m, "theta1": p.theta1, "theta2": p.theta2,
           "dim_block2": p.dim_block2, "dim_block6": p.dim_block6}
    out.update({k: complex_to_pair(getattr(p, k)) for k in _P4_COMPLEX})
    out.update({k: vector_to_json(getattr(p, k)) for k in _P4_SEEDS})
    return out


def params4_from_json(d):
    kwargs = {"p": float(d["p"]), "m": float(d["m"]),
              "theta1": float(d.get("theta1", 0.0)), "theta2": float(d.get("theta2", 0.0))}
    for k in _P4_COMPLEX:
        if k in d:
            kwargs[k] = pair_to_complex(d[k])
    for k in _P4_SEEDS:
        if k in d:
            kwargs[k] = vector_from_json(d[k])
    for k in ("dim_block2", "dim_block6"):
        if k in d:
            kwargs[k] = int(d[k])
    return Family4Params(**kwargs)


_KINDS = {3: "two-detector", 4: "three-detector"}  # by space mode
_PARAMS = {3: (params3_to_json, params3_from_json), 4: (params4_to_json, params4_from_json)}
_OPERATORS = {3: ("E", "G", "T", "Y"), 4: ("E", "G", "T", "Y", "L", "W")}
_CORES = {3: ("G_I",), 4: ("G_I", "L_I")}


def bundle_to_json(bundle):
    """Encode a bundle; ``derived`` complex values travel as [re, im] pairs."""
    mode = bundle.space.mode
    params_to_json, _ = _PARAMS[mode]
    derived = bundle.derived
    return {
        "kind": _KINDS[mode],
        "space": space_to_json(bundle.space),
        "psi": vector_to_json(bundle.psi),
        "operators": {k: matrix_to_json(getattr(bundle, k)) for k in _OPERATORS[mode]},
        "core": {k: matrix_to_json(getattr(bundle, k)) for k in _CORES[mode]
                 if getattr(bundle, k) is not None},
        "params": params_to_json(bundle.params) if bundle.params is not None else None,
        "derived": None if derived is None else {
            k: complex_to_pair(v) if isinstance(v, complex) else float(v)
            for k, v in derived.items()},
    }


def bundle_from_json(d):
    """Rebuild a bundle from its JSON form, so that re-encoding it gives d back.

    The space decides which operators are required; other operator keys
    are ignored.  ``params``, ``derived`` and the cores are None when
    absent: the condition checks need only the operators, the state and
    the space.
    """
    sp = space_from_json(d["space"])
    kind = d.get("kind")
    if kind is not None and kind != _KINDS[sp.mode]:
        raise ModeError(f"bundle kind {kind!r} does not match a {len(sp.partition)}-block space")
    _, params_from_json = _PARAMS[sp.mode]
    ops = d["operators"]
    core = d.get("core", {})
    derived = d.get("derived")
    return SolutionBundle(
        space=sp, psi=vector_from_json(d["psi"]),
        **{k: matrix_from_json(ops[k]) for k in _OPERATORS[sp.mode]},
        **{k: matrix_from_json(core[k]) if k in core else None for k in _CORES[sp.mode]},
        params=params_from_json(d["params"]) if d.get("params") else None,
        derived=None if derived is None else {
            k: pair_to_complex(v) if isinstance(v, list) else float(v)
            for k, v in derived.items()},
    )


def report_to_csv(report):
    lines = ["name,kind,residual,pass"]
    for e in report.entries:
        lines.append(f"{e.name},{e.kind},{e.residual:.6e},{str(e.passed).lower()}")
    for f in report.correlation_findings:
        lines.append(f"\"{f.identity}\",correlation,{f.residual:.6e},true")
    return "\n".join(lines) + "\n"


def dumps(obj):
    """JSON text with the values of ``json.dumps(obj, indent=2)``, laid out for speed.

    Each object, and each array that holds an object, is indented by two
    spaces; every other array goes on one line through ``json.dumps``
    without ``indent``, which keeps CPython's C encoder.  Keys are written
    as ``str(key)``: the outputs here have string keys only.
    """
    return _dumps(obj, "")


def _dumps(obj, indent):
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [json.dumps(str(k)) + ": " + _dumps(v, inner) for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, dict) for v in obj):
        items = [_dumps(v, inner) for v in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    body = ",\n".join(inner + item for item in items)
    return f"{brackets[0]}\n{body}\n{indent}{brackets[1]}"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj) + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
