"""JSON wire formats for matrices, states, spaces, parameters and bundles.

Complex scalars travel as [re, im] pairs.  Matrices travel as
``{"rows": r, "cols": c, "data": [re0, im0, re1, im1, ...]}``, the real
and imaginary parts interleaved in row-major order, and vectors as
``{"dim": n, "data": [re0, im0, ...]}``.  The older array layout, one
[re, im] pair (or a bare real number) per entry, is still read: the
declared size tells the two apart.  Values round-trip through these
encoders at full double precision.

The public ``*_to_json`` encoders return plain JSON types: dicts, lists,
Python floats and ints.  ``bundle_to_wire`` returns the same layout with
each ``data`` left as a read-only float64 array, which ``dumps`` writes
byte for byte as ``json.dumps`` writes its list; the CLI writes bundles
that way.  For a mostly-zero array, as a lifted operator is, ``dumps``
builds no Python float per entry and formats each distinct value once:
a lift repeats each entry of its core.  ``dumps`` writes objects
indented and arrays on one line; input may use any JSON whitespace.

``read_json`` reads back the layout ``dumps`` writes with each flat
``data`` array as an owned float64 array, again without a Python float
per entry that is ``0.0``; the decoders take such an array as it is.  It
reads any other layout through ``json.load``, with the values (lists)
that ``json.load`` gives.

``read_json`` raises ``FormatError`` for text that is not JSON (with the
message of ``json.load``, whose exception is its ``__cause__``), and the
``*_from_json`` readers for a missing key or a value of the wrong type or
form; a bad size or shape raises DimensionError.
"""

import json
from dataclasses import MISSING, fields
from functools import partial, wraps

import numpy as np

from . import flatjson
from .errors import DimensionError, FormatError, ModeError
from .family3 import Family3Params
from .family4 import Family4Params
from .space import ProductSpace, SolutionBundle, as_int


def _reading(from_json):
    """Report a missing key, or a value of the wrong JSON type or form (a
    null where a number or an object belongs, a list for an object, a
    string or an integer past 1e308 for a float), as FormatError."""
    @wraps(from_json)
    def read(*args):
        try:
            return from_json(*args)
        except KeyError as exc:
            raise FormatError(f"missing key {exc}") from exc
        except (TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise FormatError(f"malformed input: {exc}") from exc
    return read


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(v):
    try:
        if isinstance(v, (int, float)):
            return complex(v)
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError, OverflowError):  # OverflowError: an integer past 1e308
        pass
    raise DimensionError(f"cannot read {v!r} as a complex number")


def _to_wire(a):
    """[re0, im0, re1, im1, ...] of an array in row-major order, as a read-only
    float64 view: of ``a`` itself when it is a C-contiguous complex array."""
    data = np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float)
    data.flags.writeable = False
    return data


def _plain(wire):
    """A wire form in plain JSON types: each array as a list of Python floats."""
    if isinstance(wire, np.ndarray):
        return wire.tolist()
    if isinstance(wire, dict):
        return {k: _plain(v) for k, v in wire.items()}
    return wire


def _from_wire(data, n):
    """The n complex entries of wire data, flat in row-major order.

    data is a list or, as ``read_json`` returns it, a float64 array; the
    entries of a contiguous float64 array of 2n numbers are a view of it.
    2n numbers are the interleaved layout, read only as a flat numeric
    array: a string, null, list or integer past 64 bits among them, or
    bools alone, raise DimensionError; a bool among numbers reads as 0 or
    1, as numpy casts it.  n entries are the older layout: a numeric (n, 2) array is
    viewed as complex at once, anything else is read entry by entry as
    ``pair_to_complex`` reads it.
    """
    try:
        a = np.asarray(data)
    except ValueError:  # numpy refuses an inhomogeneous shape
        a = None
    if a is not None and a.dtype.kind not in "fiu":
        a = None
    if len(data) == 2 * n:
        if a is None or a.ndim != 1:
            raise DimensionError("interleaved data must be 2n numbers")
    elif len(data) == n:
        if a is None or a.shape != (n, 2):
            return np.array([pair_to_complex(v) for v in data], dtype=complex)
    else:
        raise DimensionError(f"data length {len(data)} is neither {n} entries "
                             f"nor their {2 * n} interleaved parts")
    return np.ascontiguousarray(a, dtype=float).view(complex).reshape(-1)


def _matrix_to_wire(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    return {"rows": m.shape[0], "cols": m.shape[1], "data": _to_wire(m)}


def matrix_to_json(m):
    return _plain(_matrix_to_wire(m))


@_reading
def matrix_from_json(d):
    rows, cols = _integer(d["rows"], what="rows", lo=0), _integer(d["cols"], what="cols", lo=0)
    return _from_wire(d["data"], rows * cols).reshape(rows, cols)


def _vector_to_wire(v):
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got ndim={v.ndim}")
    return {"dim": v.shape[0], "data": _to_wire(v)}


def vector_to_json(v):
    return _plain(_vector_to_wire(v))


@_reading
def vector_from_json(d):
    return _from_wire(d["data"], _integer(d["dim"], what="dim", lo=0))


def space_to_json(sp):
    return {"dim_i": sp.dim_i, "rank_e": sp.rank_e, "partition": list(sp.partition)}


@_reading
def space_from_json(d):
    sp = ProductSpace(d["dim_i"], tuple(d["partition"]))
    rank = d.get("rank_e")
    if rank is not None and _integer(rank) != sp.rank_e:
        raise DimensionError(f"rank_e {rank} inconsistent with dim_i {sp.dim_i}")
    return sp


# a JSON integer, or a float with an integral value; never a bool
_integer = partial(as_int, what="the value", error=FormatError)


# encoders and decoders by the annotated type of a parameter field
_ENCODE = {float: float, int: int, complex: complex_to_pair, np.ndarray: _vector_to_wire}
_DECODE = {float: float, int: _integer, complex: pair_to_complex, np.ndarray: vector_from_json}


def _params_to_wire(p):
    return {f.name: _ENCODE[f.type](getattr(p, f.name)) for f in fields(p)}


def params_to_json(p):
    """A family's parameters: one key per dataclass field, in field order."""
    return _plain(_params_to_wire(p))


@_reading
def params_from_json(cls, d):
    """Parameters of dataclass ``cls``; absent fields take their defaults,
    and an absent required field raises KeyError."""
    return cls(**{f.name: _DECODE[f.type](d[f.name]) for f in fields(cls)
                  if f.name in d or (f.default is MISSING and f.default_factory is MISSING)})


_KINDS = {3: "two-detector", 4: "three-detector"}  # by space mode
_PARAMS = {3: Family3Params, 4: Family4Params}
_OPERATORS = {3: ("E", "G", "T", "Y"), 4: ("E", "G", "T", "Y", "L", "W")}


def _cores(sp):
    """The key of each property's H_I core, for the properties after E."""
    return [f"{prop}_I" for prop, _, _ in sp.pairs[1:]]


def bundle_to_wire(bundle):
    """The layout of ``bundle_to_json``, with each ``data`` a read-only float64
    view for ``dumps`` to write; ``derived`` complex values travel as [re, im]
    pairs."""
    mode = bundle.space.mode
    derived = bundle.derived
    return {
        "kind": _KINDS[mode],
        "space": space_to_json(bundle.space),
        "psi": _vector_to_wire(bundle.psi),
        "operators": {k: _matrix_to_wire(getattr(bundle, k)) for k in _OPERATORS[mode]},
        "core": {k: _matrix_to_wire(getattr(bundle, k)) for k in _cores(bundle.space)
                 if getattr(bundle, k) is not None},
        "params": _params_to_wire(bundle.params) if bundle.params is not None else None,
        "derived": None if derived is None else {
            k: complex_to_pair(v) if isinstance(v, complex) else float(v)
            for k, v in derived.items()},
    }


def bundle_to_json(bundle):
    """Encode a bundle in plain JSON types."""
    return _plain(bundle_to_wire(bundle))


@_reading
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
    ops = d["operators"]
    core = d.get("core", {})
    derived = d.get("derived")
    return SolutionBundle(
        space=sp, psi=vector_from_json(d["psi"]),
        **{k: matrix_from_json(ops[k]) for k in _OPERATORS[sp.mode]},
        **{k: matrix_from_json(core[k]) if k in core else None for k in _cores(sp)},
        params=params_from_json(_PARAMS[sp.mode], d["params"]) if d.get("params") else None,
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
    spaces; every other array goes on one line, written as ``json.dumps``
    without ``indent`` writes it.  That is CPython's C encoder, except for
    a 1-D float64 ndarray, such as the data of ``bundle_to_wire``:
    ``_float_array`` writes it as ``json.dumps`` writes its list.  Any
    other ndarray is written as its ``tolist()``.  Keys are written as
    ``str(key)``: the outputs here have string keys only.
    """
    parts = []
    _write(obj, "", parts)
    return "".join(parts)


def _write(obj, indent, parts):
    """Append the text of obj to parts, so that each array's text is copied
    once, into the result of ``dumps``."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:
            parts.append(_float_array(obj))
            return
        obj = obj.tolist()
    if isinstance(obj, dict) and obj:
        items, brackets = [(json.dumps(str(k)) + ": ", v) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, dict) for v in obj):
        items, brackets = [("", v) for v in obj], "[]"
    else:
        parts.append(json.dumps(obj))
        return
    inner = indent + "  "
    separator = brackets[0] + "\n" + inner
    for prefix, v in items:
        parts.append(separator + prefix)
        _write(v, inner, parts)
        separator = ",\n" + inner
    parts.append("\n" + indent + brackets[1])


_CHUNK = 1 << 15  # entries per list of Python floats that _float_array hands to json.dumps


def _float_array(a):
    """``json.dumps(a.tolist())`` for a 1-D float64 array, faster when most entries are 0.0.

    The entries whose bits are zero are written as runs of ``0.0``, each
    distinct run length built once by string repetition.  Each distinct
    bit pattern among the others (-0.0 among them) goes through
    ``float.__repr__`` once, and its text is gathered wherever it occurs:
    a lifted operator repeats each entry of its core ``dim_ii`` times.  An
    array with more than one nonzero entry in five, where the C encoder is
    faster, or with a NaN or an infinity goes to ``json.dumps`` in lists of
    ``_CHUNK`` entries, so that no list of Python floats grows with the
    array.
    """
    bits = a.view(np.int64)
    nonzero = bits != 0
    if 5 * np.count_nonzero(nonzero) <= len(a):
        at = np.flatnonzero(nonzero)
        if np.isfinite(a[at]).all():
            distinct, value_of = np.unique(bits[at], return_inverse=True)
            texts = [repr(x) + ", " for x in distinct.view(np.float64).tolist()]
            # the zeros before each entry, and after the last
            zeros = (np.diff(at, prepend=-1, append=len(a)) - 1).tolist()
            runs = {z: "0.0, " * z for z in set(zeros)}
            parts = [""] * (2 * len(at) + 1)
            parts[0::2] = map(runs.__getitem__, zeros)
            parts[1::2] = map(texts.__getitem__, value_of.tolist())
            return "[" + "".join(parts)[:-2] + "]"
    return "[" + ", ".join(json.dumps(a[start:start + _CHUNK].tolist())[1:-1]
                           for start in range(0, len(a), _CHUNK)) + "]"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.writelines((dumps(obj), "\n"))


def read_json(path):
    """The value of ``json.load`` on the file at path, with each flat
    ``"data"`` array that ``dumps`` wrote read as an owned float64 array in
    place of a list of Python floats: see ``flatjson.loads``."""
    try:
        with open(path, "rb") as fh:
            return flatjson.loads(fh.read())
    except (ValueError, RecursionError) as exc:  # not JSON, or nested past the recursion limit
        raise FormatError(str(exc)) from exc
