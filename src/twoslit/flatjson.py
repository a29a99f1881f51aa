"""JSON text in which flat float arrays read as float64 arrays.

``loads`` reads the layout that ``jsonio.dumps`` writes: each flat
``"data": [x, y, ...]`` array comes back as an owned float64 array, and
no Python float is built for an entry that is ``0.0``.  That holds for
text that is ASCII, has no ``NaN`` or ``Infinity`` outside the arrays,
and in each ``data`` array has only JSON floats and only ``", "``
separators.  Any other text (other whitespace in an array, the pair
layout, integers, bools, ``null``, a BOM, a syntax error) is read by
``json.load`` whole, so its value, or the error it raises, is the one
``json.load`` gives for a file holding it.
"""

import io
import json

import numpy as np


def loads(raw):
    """The value ``json.load`` reads from a file holding the bytes raw, with
    each flat ``data`` array of the ``jsonio.dumps`` layout a float64 array."""
    value = _read_arrays(raw)
    if value is None:  # decoded as open(path) decodes the file
        value = json.load(io.TextIOWrapper(io.BytesIO(raw)))
    return value


_DATA = b'"data": ['
_READ_CHUNK = 1 << 18  # bytes of array text that _flat_floats scans at a time


def _read_arrays(raw):
    """``json.loads`` of raw with each flat data array read by ``_flat_floats``,
    or None when raw holds no such array or any part it cannot read exactly.

    Each array is cut out of the text and a ``NaN`` token left in its place;
    ``json.loads`` reads the remaining skeleton, and ``parse_constant`` puts
    the arrays back in document order.  Only an escaped quote can put
    ``"data": [`` inside a string or a longer key, so a file with one is
    left to ``json.load``; should a ``NaN`` still land inside a string,
    fewer arrays come back than were cut, and the file is left to it too.
    """
    skeleton, arrays, start = [], [], 0
    work = np.empty(4 * (_READ_CHUNK + 64), np.uint8)  # reused by every chunk: mapped in once
    at = raw.find(_DATA)
    while at >= 0:
        if raw[at - 1:at] == b"\\":  # the quote is escaped: "data" ends a longer string
            return None
        begin = at + len(_DATA)
        end = raw.find(b"]", begin)
        a = _flat_floats(raw, begin, end, work) if end >= 0 else None
        if a is None:
            return None
        skeleton += (raw[start:begin - 1], b"NaN")
        arrays.append(a)
        start = end + 1
        at = raw.find(_DATA, start)
    skeleton.append(raw[start:])
    if not arrays or any(b"NaN" in t or b"Infinity" in t for t in skeleton[::2]):
        return None
    rest = iter(arrays)
    try:  # non-ASCII text raises UnicodeDecodeError: json.load decodes it by the locale
        value = json.loads(b"".join(skeleton).decode("ascii"),
                           parse_constant=lambda _: next(rest))
    except (ValueError, RecursionError):
        return None
    return value if next(rest, None) is None else None


def _json_floats(text):
    """The list ``json.loads`` reads from the bytes ``text``, or None unless
    it reads a list of floats."""
    try:
        values = json.loads(text.decode("ascii"))
    except (ValueError, RecursionError):
        return None
    return values if set(map(type, values)) <= {float} else None


def _flat_floats(raw, begin, end, work):
    """The numbers of the array text ``raw[begin:end]`` as an owned float64
    array, or None unless each is a JSON float and each comma starts a
    ``", "`` separator.

    A long text is scanned in chunks of about ``_READ_CHUNK`` bytes, with
    the temporaries in ``work``, so that none grows with the text.  Tokens
    that are exactly ``0.0`` are found by ``_sparse_runs`` and left as the
    zeros of the result; only the other tokens go through ``json.loads``.
    """
    if begin == end:
        return np.zeros(0)
    u = np.frombuffer(raw, np.uint8)
    commas = 0
    for p in range(begin, end, _READ_CHUNK):
        block = u[p:min(p + _READ_CHUNK, end)]
        commas += np.count_nonzero(np.equal(block, ord(","), out=work[:len(block)].view(bool)))
    out = np.zeros(commas + 1)
    done = 0
    while begin < end:
        stop = raw.find(b", ", min(begin + _READ_CHUNK, end), end)
        stop = end if stop < 0 else stop
        if len(work) < 4 * (stop - begin + 4):  # a token longer than the slack
            work = np.empty(4 * (stop - begin + 4), np.uint8)
        runs = _sparse_runs(u[begin:stop], work)
        if runs is None:
            return None
        count, firsts, lasts, at = runs
        if len(at):
            values = _json_floats(b"[" + b", ".join(
                [raw[begin + f:begin + l] for f, l in zip(firsts, lasts)]) + b"]")
            if values is None or len(values) != len(at):
                return None
            out[done + at] = values
        done += count
        begin = stop + 2
    return out if done == len(out) else None


def _sparse_runs(text, work):
    """Where the tokens of a flat array's text are not exactly ``0.0``.

    ``text`` is a uint8 array of tokens split by ", ".  Returns the token
    count, the start and end offsets of each run of adjacent tokens that
    are not ``0.0``, and the indices of those tokens; or the whole text as
    one run when most tokens are not ``0.0``; or None when a comma in the
    text does not start a ", " separator.  ``work`` holds the temporaries:
    four arrays of ``len(text) + 4`` bytes.
    """
    n = len(text) + 4
    x = work[:n]  # the text between two ", " separators
    comma, sep, zero = (work[k * n:(k + 1) * n].view(bool) for k in (1, 2, 3))
    x[:2] = x[-2:] = (ord(","), ord(" "))
    x[2:-2] = text
    np.equal(x, ord(","), out=comma)
    count = np.count_nonzero(comma) - 1
    np.equal(x[1:], ord(" "), out=sep[:-1])  # sep[j]: a separator at x[j], a token at text[j]
    sep[:-1] &= comma[:-1]
    sep[-1] = False
    if np.count_nonzero(sep) != count + 1:
        return None
    m = max(n - 6, 0)  # zero[j]: the token after separator j is 0.0
    np.equal(x[2:2 + m], ord("0"), out=zero[:m])
    zero[m:] = False
    for k, byte in ((3, "."), (4, "0")):
        zero[:m] &= np.equal(x[k:k + m], ord(byte), out=comma[:m])
    zero[:m] &= sep[:m]
    zero[:m] &= sep[5:5 + m]
    np.greater(sep, zero, out=comma)  # the separators before tokens that are not 0.0
    comma[-2:] = False
    kept = np.count_nonzero(comma)
    if not kept:
        return count, [], [], ()
    if 2 * kept > count:
        return count, [0], [len(text)], np.arange(count)
    starts = np.flatnonzero(comma)
    comma[:5] = sep[:5]  # the separators after them
    comma[0] = False
    np.greater(sep[5:], zero[:-5], out=comma[5:])
    ends = np.flatnonzero(comma) - 2
    lengths = ends - starts + 2
    # every token between two of these is 0.0 and takes 5 bytes with its separator
    at = (starts - np.cumsum(lengths) + lengths) // 5 + np.arange(kept)
    joins = np.flatnonzero(np.diff(at) != 1)  # a 0.0 between tokens joins[k] and joins[k] + 1
    return (count, starts[np.concatenate(([0], joins + 1))].tolist(),
            ends[np.append(joins, -1)].tolist(), at)
