import dataclasses
import json
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoslit import family3, family4, fixtures, flatjson, jsonio
from twoslit.errors import DimensionError, FormatError, ModeError
from twoslit.space import ProductSpace
from twoslit.verify import verify_bundle


def test_complex_pair_codec():
    assert jsonio.complex_to_pair(1.5 - 2j) == [1.5, -2.0]
    assert jsonio.pair_to_complex([1.5, -2.0]) == 1.5 - 2j
    assert jsonio.pair_to_complex(3) == 3 + 0j


def test_matrix_roundtrip_is_exact():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    again = jsonio.matrix_from_json(json.loads(json.dumps(jsonio.matrix_to_json(m))))
    assert np.array_equal(again, m)


def test_vector_roundtrip_is_exact():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    again = jsonio.vector_from_json(json.loads(json.dumps(jsonio.vector_to_json(v))))
    assert np.array_equal(again, v)


def test_matrix_data_length_checked():
    d = jsonio.matrix_to_json(np.eye(3))
    d["data"] = d["data"][:-1]
    with pytest.raises(DimensionError):
        jsonio.matrix_from_json(d)


def test_space_roundtrip_and_consistency():
    sp = ProductSpace(10, (1, 2, 1, 1, 3, 1, 1, 2))
    assert jsonio.space_from_json(jsonio.space_to_json(sp)) == sp
    bad = jsonio.space_to_json(sp)
    bad["rank_e"] = 4
    with pytest.raises(DimensionError):
        jsonio.space_from_json(bad)


def test_params_roundtrips():
    p3 = fixtures.fixture("spin32").params
    r3 = jsonio.params_from_json(family3.Family3Params,
                                 json.loads(json.dumps(jsonio.params_to_json(p3))))
    assert r3.p == p3.p and r3.mu2 == p3.mu2 and r3.lambda3 == p3.lambda3
    assert np.array_equal(r3.seed_b2, p3.seed_b2)

    p4 = fixtures.fixture("dim10").params
    r4 = jsonio.params_from_json(family4.Family4Params,
                                 json.loads(json.dumps(jsonio.params_to_json(p4))))
    assert r4.p == p4.p and r4.m == p4.m and r4.beta5 == p4.beta5
    assert np.array_equal(r4.seed_theta4, p4.seed_theta4)


def test_params_from_json_tolerates_missing_seeds():
    minimal = {"p": 2 / 3, "mu2": [1.7320508075688772, 0.0], "mu3": 1.0,
               "lambda2": [1.7320508075688772, 0.0], "lambda3": 1.0}
    p = jsonio.params_from_json(family3.Family3Params, minimal)
    assert np.array_equal(p.seed_a3, np.ones(1))


def test_params_wire_keys_in_field_order():
    assert list(jsonio.params_to_json(fixtures.fixture("spin32").params)) == [
        "p", "theta", "mu2", "mu3", "lambda2", "lambda3",
        "seed_a3", "seed_b2", "seed_gamma3", "seed_delta2"]
    assert list(jsonio.params_to_json(fixtures.fixture("dim10").params)) == [
        "p", "m", "theta1", "theta2", "dim_block2", "dim_block6",
        "a2", "a3", "b4", "b5", "l5", "alpha2", "alpha3", "beta4", "beta5", "lambda5",
        "seed_a5", "seed_c5", "seed_e4", "seed_e5",
        "seed_delta5", "seed_eta5", "seed_theta4", "seed_theta5"]


def _random_fields(rng, cls):
    """Random values for every field of a parameter class, by annotated type;
    seed vectors of one length per draw, so paired seeds always match."""
    k = int(rng.integers(1, 4))
    draw = {float: lambda: rng.normal(), int: lambda: int(rng.integers(1, 5)),
            complex: lambda: complex(rng.normal(), rng.normal()),
            np.ndarray: lambda: rng.normal(size=k) + 1j * rng.normal(size=k)}
    return {f.name: draw[f.type]() for f in dataclasses.fields(cls)}


def _assert_same_params(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("cls", [family3.Family3Params, family4.Family4Params])
def test_params_round_trip_every_field(cls):
    rng = np.random.default_rng(17)
    seen_blocks, seen_lengths = set(), set()
    for _ in range(100):
        p = cls(**_random_fields(rng, cls))
        again = jsonio.params_from_json(cls, json.loads(json.dumps(jsonio.params_to_json(p))))
        _assert_same_params(again, p)
        seen_blocks.add(getattr(p, "dim_block2", None))
        seen_lengths.add(len(p.seed_delta2 if cls is family3.Family3Params else p.seed_e4))
    assert max(seen_lengths) > 1
    if cls is family4.Family4Params:
        assert len(seen_blocks) > 1


def test_family4_minimal_params_take_the_defaults():
    p = jsonio.params_from_json(family4.Family4Params, {"p": 11 / 72, "m": 67 / 456})
    _assert_same_params(p, family4.Family4Params(p=11 / 72, m=67 / 456))
    assert p.dim_block2 == p.dim_block6 == 1


def test_params_from_json_checks_paired_seed_lengths():
    d = jsonio.params_to_json(fixtures.fixture("dim10").params)
    d["seed_e4"] = jsonio.vector_to_json(np.ones(2))
    with pytest.raises(DimensionError):
        jsonio.params_from_json(family4.Family4Params, d)


@pytest.mark.parametrize("cls, key", [(family3.Family3Params, "p"),
                                      (family4.Family4Params, "p"),
                                      (family4.Family4Params, "m")])
def test_params_from_json_missing_required_key_raises_format_error(cls, key):
    d = jsonio.params_to_json(fixtures.fixture("spin32" if cls is family3.Family3Params
                                               else "dim10").params)
    del d[key]
    with pytest.raises(FormatError) as got:
        jsonio.params_from_json(cls, d)
    assert str(got.value) == f"missing key '{key}'"
    assert type(got.value.__cause__) is KeyError


@pytest.mark.parametrize("key, error", [("p", FormatError), ("theta", FormatError),
                                        ("seed_a3", FormatError), ("mu2", DimensionError)])
def test_params_from_json_null_value_raises_a_typed_error(key, error):
    d = jsonio.params_to_json(fixtures.fixture("spin32").params)
    d[key] = None
    with pytest.raises(error):
        jsonio.params_from_json(family3.Family3Params, d)


def test_bundle_roundtrip_two_detector():
    bundle = family3.build(fixtures.fixture("spin32").params)
    blob = json.loads(json.dumps(jsonio.bundle_to_json(bundle)))
    assert blob["kind"] == "two-detector"
    again = jsonio.bundle_from_json(blob)
    assert np.array_equal(again.G, bundle.G)
    assert np.array_equal(again.psi, bundle.psi)
    assert again.params.p == bundle.params.p
    assert verify_bundle(again).passed


def test_bundle_roundtrip_three_detector():
    bundle = family4.build(fixtures.fixture("dim10").params)
    blob = json.loads(json.dumps(jsonio.bundle_to_json(bundle)))
    assert blob["kind"] == "three-detector"
    again = jsonio.bundle_from_json(blob)
    assert np.array_equal(again.W, bundle.W)
    assert np.array_equal(again.L_I, bundle.L_I)
    assert verify_bundle(again).passed


@pytest.mark.parametrize("build", [
    lambda: family3.build(fixtures.fixture("spin32").params),
    lambda: family4.build(fixtures.fixture("dim10").params),
    lambda: fixtures.fixture_bundle("spin32"),
    lambda: fixtures.fixture_bundle("dim10"),
], ids=["family3", "family4", "fixture-spin32", "fixture-dim10"])
def test_bundle_json_round_trip_is_exact(build):
    bundle = build()
    blob = json.loads(json.dumps(jsonio.bundle_to_json(bundle)))
    assert blob["derived"] is not None
    again = jsonio.bundle_from_json(blob)
    assert again.derived == bundle.derived
    assert jsonio.bundle_to_json(again) == blob


def test_bundle_without_derived_reencodes_as_null():
    blob = json.loads(json.dumps(jsonio.bundle_to_json(fixtures.fixture_bundle("spin32"))))
    del blob["derived"]
    again = jsonio.bundle_to_json(jsonio.bundle_from_json(blob))
    assert again["derived"] is None
    assert {k: v for k, v in again.items() if k != "derived"} == blob


def test_bundle_kind_must_match_the_space():
    blob = jsonio.bundle_to_json(fixtures.fixture_bundle("spin32"))
    blob["kind"] = "three-detector"
    with pytest.raises(ModeError):
        jsonio.bundle_from_json(blob)


def test_report_to_csv_layout():
    report = verify_bundle(fixtures.fixture_bundle("dim10"))
    csv = jsonio.report_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "name,kind,residual,pass"
    # 10 conditions + 6 projector preconditions + 2 correlation rows
    assert len(lines) == 1 + 16 + 2
    assert all(line.endswith(",true") for line in lines[1:])


def test_write_and_read_json(tmp_path):
    path = tmp_path / "blob.json"
    jsonio.write_json(path, {"x": [1, 2.5]})
    assert jsonio.read_json(path) == {"x": [1, 2.5]}


def _reference_wire(a):
    """The per-element interleaved encoding the vectorised codec must equal."""
    return [float(x) for z in np.asarray(a, dtype=complex).reshape(-1) for x in (z.real, z.imag)]


def _reference_pairs(a):
    """The per-element encoding of the older pair layout."""
    return [[z.real, z.imag] for z in np.asarray(a, dtype=complex).reshape(-1)]


def _reference_decode(data):
    return np.array([jsonio.pair_to_complex(v) for v in data], dtype=complex)


_RNG = np.random.default_rng(17)
_M = _RNG.standard_normal((4, 6)) + 1j * _RNG.standard_normal((4, 6))
_M[0, 0] = complex(-0.0, -0.0)
_PSI = _RNG.standard_normal(9) + 1j * _RNG.standard_normal(9)


_MATRICES = pytest.mark.parametrize("m", [
    _M, np.asfortranarray(_M), _M.T, _M[::2, 1::3], _M.real, np.arange(12).reshape(3, 4),
    np.zeros((0, 5)), np.zeros((5, 0), dtype=complex),
], ids=["C", "F-ordered", "transposed", "strided", "real", "integer", "0xn", "nx0"])
_VECTORS = pytest.mark.parametrize("v", [
    _PSI, _PSI[::2], _PSI[::-1], _PSI.real, np.arange(5), np.zeros(0),
], ids=["contiguous", "strided", "reversed", "real", "integer", "empty"])


@_MATRICES
def test_matrix_codec_equals_the_per_element_reference(m):
    d = jsonio.matrix_to_json(m)
    assert (d["rows"], d["cols"]) == m.shape
    assert d["data"] == _reference_wire(m)
    assert json.dumps(d["data"]) == json.dumps(_reference_wire(m))  # -0.0 and repr kept
    assert all(type(x) is float for x in d["data"])
    again = jsonio.matrix_from_json(json.loads(json.dumps(d)))
    assert again.shape == m.shape
    assert again.tobytes() == np.asarray(m, dtype=complex).tobytes()


@_MATRICES
def test_matrix_in_the_pair_layout_decodes_to_the_same_bytes(m):
    d = {"rows": m.shape[0], "cols": m.shape[1], "data": _reference_pairs(m)}
    again = jsonio.matrix_from_json(json.loads(json.dumps(d)))
    assert again.shape == m.shape
    assert again.tobytes() == np.asarray(m, dtype=complex).tobytes()


@_VECTORS
def test_vector_codec_equals_the_per_element_reference(v):
    d = jsonio.vector_to_json(v)
    assert d["dim"] == v.shape[0]
    assert d["data"] == _reference_wire(v)
    assert json.dumps(d["data"]) == json.dumps(_reference_wire(v))
    again = jsonio.vector_from_json(json.loads(json.dumps(d)))
    assert again.tobytes() == np.asarray(v, dtype=complex).tobytes()


@_VECTORS
def test_vector_in_the_pair_layout_decodes_to_the_same_bytes(v):
    d = {"dim": v.shape[0], "data": _reference_pairs(v)}
    again = jsonio.vector_from_json(json.loads(json.dumps(d)))
    assert again.tobytes() == np.asarray(v, dtype=complex).tobytes()


def test_codec_keeps_signed_zeros_and_non_finite_values():
    inf, nan = float("inf"), float("nan")
    v = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(nan, -inf),
                  complex(inf, nan), complex(-inf, 1.0)])
    d = jsonio.vector_to_json(v)
    assert all(type(x) is float for x in d["data"])
    assert json.dumps(d["data"]) == json.dumps(_reference_wire(v))
    assert json.dumps(d["data"]) == "[-0.0, 0.0, 0.0, -0.0, NaN, -Infinity, Infinity, NaN, " \
                                    "-Infinity, 1.0]"
    for text in (json.dumps(d), json.dumps({"dim": 5, "data": _reference_pairs(v)})):
        assert jsonio.vector_from_json(json.loads(text)).tobytes() == v.tobytes()


@pytest.mark.parametrize("data", [
    [[1.0, 2.0], [3.0, 4.0, 5.0]],           # a 3-wide pair
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],      # every pair 3 wide
    [[1.0, 2.0], "ab"],                      # a string entry
    ["ab", "cd"],                            # only strings
    [[1.0, 2.0], [3.0]],                     # ragged rows
    [[1.0, 2.0], 3.0, [4.0]],                # ragged mix of pairs and bare numbers
    [{"re": 1.0}, [2.0, 3.0]],               # an object entry
    [[1.0, 2.0], [None, 0.0]],               # a null inside a pair
    [[1.0, 2.0], [[1.0], 0.0]],              # a nested list inside a pair
    [[1.0, 2.0], ["x", 0.0]],                # a non-numeric string inside a pair
], ids=["wide-pair", "all-wide", "string", "strings", "ragged", "ragged-mix", "object",
        "null-in-pair", "list-in-pair", "string-in-pair"])
def test_malformed_data_raises_dimension_error(data):
    with pytest.raises(DimensionError):
        jsonio.vector_from_json({"dim": len(data), "data": data})
    with pytest.raises(DimensionError):
        jsonio.matrix_from_json({"rows": 1, "cols": len(data), "data": data})


@pytest.mark.parametrize("text", [
    "[1.5, -2, 0.0]",                          # all bare numbers
    "[[1, 2], [3, -4]]",                       # integer pairs
    "[[1.5, 2], [3, -4.25]]",                  # mixed integer and float pairs
    "[[1.0, 2.0], 3.0, [4.0, -0.0]]",          # pairs mixed with bare numbers
    "[[NaN, Infinity], [-Infinity, 1.0]]",     # non-finite tokens
    "[[true, false], [1.0, 2.0]]",             # booleans among floats
    "[[true, false], [false, true]]",          # booleans only
    '[["1", "2.5"], ["-0", "3"]]',             # numeric strings
    "[]",
], ids=["bare", "int-pairs", "mixed-pairs", "pairs-and-bare", "non-finite", "bools",
        "only-bools", "numeric-strings", "empty"])
def test_wire_data_decodes_as_per_element(text):
    data = json.loads(text)
    want = _reference_decode(data)
    got = jsonio.vector_from_json({"dim": len(data), "data": data})
    assert got.dtype == complex and got.tobytes() == want.tobytes()
    got = jsonio.matrix_from_json({"rows": len(data), "cols": 1, "data": data})
    assert got.shape == (len(data), 1) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("build", [
    lambda: family3.build(fixtures.fixture("spin32").params),
    lambda: family4.build(fixtures.fixture("dim10").params),
], ids=["family3", "family4"])
def test_bundle_files_in_the_indented_layout_still_read(build, tmp_path):
    bundle = build()
    obj = {"bundle": jsonio.bundle_to_json(bundle)}
    old = tmp_path / "indented.json"
    with open(old, "w") as fh:  # the layout of json.dump(obj, fh, indent=2)
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    new = tmp_path / "new.json"
    jsonio.write_json(new, obj)
    assert new.stat().st_size < old.stat().st_size
    a = jsonio.bundle_from_json(jsonio.read_json(old)["bundle"])
    b = jsonio.bundle_from_json(jsonio.read_json(new)["bundle"])
    for name in ("psi", "E", "G", "T", "Y", "L", "W", "G_I", "L_I"):
        want = getattr(bundle, name)
        if want is None:
            assert getattr(a, name) is None and getattr(b, name) is None
            continue
        assert getattr(a, name).tobytes() == want.tobytes()
        assert getattr(b, name).tobytes() == want.tobytes()


_ARRAYS = ("psi", "E", "G", "T", "Y", "L", "W", "G_I", "L_I")


@pytest.mark.parametrize("build", [
    lambda: family3.build(fixtures.fixture("spin32").params),
    lambda: family4.build(fixtures.fixture("dim10").params),
], ids=["family3", "family4"])
def test_bundle_files_in_the_pair_layout_still_read(build, tmp_path, pair_layout):
    bundle = build()
    obj = {"bundle": jsonio.bundle_to_json(bundle)}
    new = tmp_path / "new.json"
    jsonio.write_json(new, obj)
    old = tmp_path / "pairs.json"
    jsonio.write_json(old, pair_layout(obj))
    assert all(len(p) == 2 for p in jsonio.read_json(old)["bundle"]["psi"]["data"])
    a = jsonio.bundle_from_json(jsonio.read_json(old)["bundle"])
    b = jsonio.bundle_from_json(jsonio.read_json(new)["bundle"])
    for name in _ARRAYS:
        want = getattr(bundle, name)
        if want is None:
            assert getattr(a, name) is None and getattr(b, name) is None
            continue
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes() == want.tobytes()
    assert jsonio.bundle_to_json(a) == jsonio.bundle_to_json(b) == obj["bundle"]


def test_bundle_mixing_layouts_across_arrays_reads(pair_layout):
    bundle = family4.build(fixtures.fixture("dim10").params)
    blob = jsonio.bundle_to_json(bundle)
    mixed = pair_layout(blob)  # psi, E, T, L and G_I stay in the pair layout
    mixed["operators"].update({k: blob["operators"][k] for k in ("G", "Y", "W")})
    mixed["core"]["L_I"] = blob["core"]["L_I"]
    again = jsonio.bundle_from_json(json.loads(json.dumps(mixed)))
    for name in _ARRAYS:
        assert getattr(again, name).tobytes() == getattr(bundle, name).tobytes()
    assert jsonio.bundle_to_json(again) == blob


@pytest.mark.parametrize("n, data, want", [
    (0, [], []),
    (1, [1.5, -2.0], [1.5 - 2j]),                 # 2n numbers: interleaved
    (1, [[1.5, -2.0]], [1.5 - 2j]),               # n entries: a pair
    (1, [1.5], [1.5]),                            # n entries: a bare number
    (2, [1.5, -2.0, 0.0, 4.0], [1.5 - 2j, 4j]),   # 2n numbers: interleaved
    (2, [1.5, -2.0], [1.5, -2.0]),                # n entries: bare numbers
    (2, [[1.5, -2.0], [0.0, 4.0]], [1.5 - 2j, 4j]),
    (2, [[1.5, -2.0], 3], [1.5 - 2j, 3]),
    (2, [1, 2, 3, 4], [1 + 2j, 3 + 4j]),          # JSON integers
], ids=["0", "1-flat", "1-pair", "1-bare", "2-flat", "2-bare", "2-pairs", "2-mixed", "2-ints"])
def test_declared_size_picks_the_layout(n, data, want):
    want = np.array(want, dtype=complex)
    got = jsonio.vector_from_json({"dim": n, "data": data})
    assert got.dtype == complex and got.tobytes() == want.tobytes()
    got = jsonio.matrix_from_json({"rows": 1, "cols": n, "data": data})
    assert got.shape == (1, n) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, data", [
    (2, [1.0, 2.0, 3.0]),                         # odd length
    (2, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),          # neither n nor 2n
    (2, [1.0, 2.0, "3", 4.0]),                    # a string
    (2, [1.0, None, 3.0, 4.0]),                   # a null
    (2, [1.0, 2.0, [3.0], 4.0]),                  # a nested list
    (2, [1.0, 2.0, [3.0, 4.0], 5.0]),             # a pair inside flat data
    (1, [[1.0, 2.0], [3.0, 4.0]]),                # 2n pairs
    (1, [10 ** 400, 0.0]),                        # an integer past the float range
    (1, [True, False]),                           # bools alone
], ids=["odd", "neither", "string", "null", "nested", "pair", "pairs", "huge-integer",
        "only-bools"])
def test_malformed_flat_data_raises_dimension_error(n, data):
    with pytest.raises(DimensionError):
        jsonio.vector_from_json({"dim": n, "data": data})
    with pytest.raises(DimensionError):
        jsonio.matrix_from_json({"rows": n, "cols": 1, "data": data})


@pytest.mark.parametrize("data", [[[1.0, 2.0], [10 ** 400, 0.0]], [[1.0, 2.0], 10 ** 400]],
                         ids=["in-a-pair", "bare"])
def test_integer_past_the_float_range_in_the_pair_layout_raises_dimension_error(data):
    with pytest.raises(DimensionError):
        jsonio.vector_from_json({"dim": len(data), "data": data})


@pytest.mark.parametrize("value", [2.5, True, False, "2", None, [2], float("inf")],
                         ids=["fraction", "true", "false", "string", "null", "list", "inf"])
def test_params_from_json_rejects_a_non_integer_int_field(value):
    d = jsonio.params_to_json(fixtures.fixture("dim10").params)
    d["dim_block2"] = value
    with pytest.raises(FormatError):
        jsonio.params_from_json(family4.Family4Params, d)


@pytest.mark.parametrize("value", [2, 2.0], ids=["integer", "integral-float"])
def test_params_from_json_reads_an_integral_int_field(value):
    d = jsonio.params_to_json(fixtures.fixture("dim10").params)
    d["dim_block2"] = value
    p = jsonio.params_from_json(family4.Family4Params, d)
    assert type(p.dim_block2) is int and p.dim_block2 == 2


def test_dumps_layout():
    obj = {"a": [[1.0, -0.0], [2.5, 3.0]], "b": {"c": [], "d": {}}, "e": [{"f": 1}, [2]],
           "g": (1, "x"), "h": None, 1: True}
    text = jsonio.dumps(obj)
    assert text == (
        '{\n'
        '  "a": [[1.0, -0.0], [2.5, 3.0]],\n'
        '  "b": {\n'
        '    "c": [],\n'
        '    "d": {}\n'
        '  },\n'
        '  "e": [\n'
        '    {\n'
        '      "f": 1\n'
        '    },\n'
        '    [2]\n'
        '  ],\n'
        '  "g": [1, "x"],\n'
        '  "h": null,\n'
        '  "1": true\n'
        '}')
    assert json.loads(text) == json.loads(json.dumps(obj, indent=2))
    assert jsonio.dumps([]) == "[]" and jsonio.dumps({}) == "{}"
    assert jsonio.dumps(float("nan")) == "NaN"


_EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
                2.225073858507201e-308, 1e308, -1e308, 1.0, -2.5]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


def _mostly_zero(entries):
    """Each (k, x) gives x when k == 0, else 0.0: about one entry in eight nonzero."""
    return [x if k == 0 else 0.0 for k, x in entries]


_FLAT_LISTS = st.one_of(
    st.lists(_FLOATS),
    st.lists(st.tuples(st.integers(0, 7), _FLOATS)).map(_mostly_zero),
    st.lists(st.tuples(st.integers(0, 7), st.one_of(
        _FLOATS, st.integers(-3, 3), st.booleans(), _FLOATS.map(np.float64)))).map(_mostly_zero),
)


@settings(max_examples=300, deadline=None)
@given(_FLAT_LISTS, st.booleans())
def test_dumps_writes_a_flat_list_as_json_dumps_does(values, as_tuple):
    values = tuple(values) if as_tuple else values
    assert jsonio.dumps(values) == json.dumps(values)
    assert jsonio.dumps({"data": values}) == '{\n  "data": ' + json.dumps(values) + "\n}"


@pytest.mark.parametrize("values", [
    [0.0] * 9 + [-0.0],
    [0.0] * 9 + [5e-324],
    [-1e308] + [0.0] * 9,
    [0.0] * 5 + [float("nan")] + [0.0] * 4,
    [0.0] * 5 + [float("-inf")] + [0.0] * 4,
    [1.5, -0.0] * 5,
    [0.0] * 10,
    [0.0],
    # over two chunks with a NaN: all of it goes to json.dumps, chunk by chunk
    [1.0 / 3] * jsonio._CHUNK
    + ([0.0] * 18 + [-0.0, 2.5]) * (jsonio._CHUNK // 20 + 1)
    + [0.0] * 5 + [float("nan")],
], ids=["negative-zero", "subnormal", "huge", "nan", "infinity", "half-nonzero",
        "zeros", "one-zero", "chunks"])
def test_float_array_equals_json_dumps(values):
    want = json.dumps(values).split(", ")  # as lists, a failure reports the first difference fast
    a = np.array(values)
    assert jsonio._float_array(a).split(", ") == want
    assert jsonio.dumps(a).split(", ") == want


def _float64_arrays(values, layout):
    """A 1-D float64 array holding values: owned, read-only, or a strided view."""
    if layout == "strided":
        a = np.full(2 * len(values) + 1, 7.5)
        a[1::2][::-1] = values[::-1]
        return a[1::2]
    a = np.array(values, dtype=float)
    a.flags.writeable = layout != "read-only"
    return a


_FLOAT_LISTS = st.one_of(
    st.lists(_FLOATS),
    st.lists(st.tuples(st.integers(0, 7), _FLOATS)).map(_mostly_zero),
    # values from a pool of at most four, so that most of them repeat
    st.lists(_FLOATS, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.tuples(st.integers(0, 7), st.sampled_from(pool)))).map(_mostly_zero),
)


@settings(max_examples=300, deadline=None)
@given(_FLOAT_LISTS, st.sampled_from(["owned", "read-only", "strided"]), st.integers(1, 9))
def test_dumps_writes_a_float64_array_as_json_dumps_writes_its_list(values, layout, chunk):
    a = _float64_arrays(values, layout)
    assert a.tobytes() == np.array(values, dtype=float).tobytes()
    with mock.patch.object(jsonio, "_CHUNK", chunk):  # short chunks keep long arrays cheap
        assert jsonio.dumps(a) == json.dumps(a.tolist())
        assert jsonio.dumps({"data": a}) == '{\n  "data": ' + json.dumps(a.tolist()) + "\n}"


def _twin_core():
    """A 4x4 complex core whose parts repeat: ±0.0 twins, subnormals of both
    signs, and values one ulp apart, each several times."""
    one = 1.0
    parts = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, one, np.nextafter(one, 2.0),
             np.nextafter(one, 0.0), -one, 1 / 3, np.nextafter(1 / 3, 1.0), 0.0, -0.0, one,
             -1 / 3, 5e-324]
    return np.array(parts, dtype=float).reshape(4, 4) + 1j * np.array(parts[::-1]).reshape(4, 4)


@pytest.mark.parametrize("m", [1, 5, 24])
@pytest.mark.parametrize("lift", ["kron", "placement"])
def test_float_array_writes_lift_shaped_data_as_json_dumps(m, lift):
    """kron writes x * 0.0 off the stripes, -0.0 for a negative x, which makes
    most entries nonzero; placement, as ``space.lift_left`` builds a lift,
    leaves them +0.0."""
    core = _twin_core()
    if lift == "kron":
        a = np.kron(core, np.eye(m))
    else:
        a = np.zeros((4, m, 4, m), dtype=complex)
        a[:, np.arange(m), :, np.arange(m)] = core
    data = a.reshape(-1).view(float)
    assert jsonio._float_array(data) == json.dumps(data.tolist())
    assert jsonio._float_array(data.copy()) == json.dumps(data.tolist())


def test_float_array_formats_each_distinct_value_once():
    core = _twin_core()
    data = np.zeros((4, 24, 4, 24), dtype=complex)
    data[:, np.arange(24), :, np.arange(24)] = core
    data = data.reshape(-1).view(float)
    calls = []

    def recording_repr(x):
        calls.append(x)
        return float.__repr__(x)

    with mock.patch.object(jsonio, "repr", recording_repr, create=True):
        assert jsonio._float_array(data) == json.dumps(data.tolist())
    bits = data.view(np.int64)
    assert sorted(np.array(calls).view(np.int64)) == np.unique(bits[bits != 0]).tolist()


@pytest.mark.parametrize("a", [
    np.eye(5, 2, 1), np.arange(6.0).reshape(2, 3), np.array([0, 0, 0, 0, 0, -3]),
    np.array([0.1, -0.0, 0.0], dtype=np.float32),
], ids=["sparse-matrix", "matrix", "integers", "float32"])
def test_dumps_writes_any_other_array_as_its_list(a):
    assert jsonio.dumps(a) == json.dumps(a.tolist())
    assert jsonio.dumps({"data": a}) == '{\n  "data": ' + json.dumps(a.tolist()) + "\n}"


@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_bundle_wire_data_is_read_only_and_written_as_the_plain_form(name):
    bundle = fixtures.fixture_bundle(name)
    wire = jsonio.bundle_to_wire(bundle)
    arrays = [wire["psi"], *wire["operators"].values(), *wire["core"].values()]
    for d in arrays:
        assert d["data"].dtype == np.float64 and d["data"].ndim == 1
        with pytest.raises(ValueError):
            d["data"][0] = 1.0
    assert np.shares_memory(wire["operators"]["E"]["data"], bundle.E)
    plain = jsonio.bundle_to_json(bundle)
    assert jsonio.dumps(wire) == jsonio.dumps(plain)
    assert json.loads(json.dumps(plain)) == plain
    assert all(type(x) is float for x in plain["operators"]["E"]["data"])


def test_lifted_operator_data_reads_back_as_sparse_float64_arrays(tmp_path):
    wire = jsonio.bundle_to_wire(fixtures.fixture_bundle("dim10"))
    path = tmp_path / "dim10.json"
    jsonio.write_json(path, wire)
    runs, sparse_runs = {}, flatjson._sparse_runs

    def recording_runs(text, work):
        runs[len(text)] = sparse_runs(text, work)
        return runs[len(text)]

    with mock.patch.object(flatjson, "_sparse_runs", recording_runs):
        back = jsonio.read_json(path)
    for name in ("E", "G", "L", "T", "Y", "W"):
        want, got = wire["operators"][name]["data"], back["operators"][name]["data"]
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.flags.owndata
        count, _, _, at = runs[len(jsonio.dumps(want)) - 2]  # the one chunk of this array
        assert count == len(want) and 5 * len(at) < count  # only the entries not 0.0 parsed
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _assert_reads_as_json_load(got, want, key=None):
    """got equals want, the value of json.load, except that got may hold a
    float64 array where want holds the list of a "data" key: then bit for
    bit its np.asarray."""
    if isinstance(got, np.ndarray):
        assert key == "data" and type(want) is list
        assert got.dtype == np.float64 and got.flags.owndata
        assert got.view(np.int64).tolist() == np.asarray(want).view(np.int64).tolist()
        return
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for k in want:
            _assert_reads_as_json_load(got[k], want[k], k)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            _assert_reads_as_json_load(x, y)
    else:
        assert got == want or (got != got and want != want)


def _data_values(value):
    """Every value under a "data" key, in document order."""
    if isinstance(value, dict):
        for k, v in value.items():
            if k == "data":
                yield v
            else:
                yield from _data_values(v)
    elif isinstance(value, list):
        for v in value:
            yield from _data_values(v)


_DOCUMENTS = st.recursive(
    st.fixed_dictionaries({"dim": st.integers(0, 9), "data": st.one_of(
        st.lists(_FLOATS, max_size=30),
        st.lists(st.tuples(st.integers(0, 7), _FLOATS), max_size=300).map(_mostly_zero))}),
    lambda inner: st.one_of(
        st.dictionaries(st.sampled_from(["psi", "operators", "G", "data-ish"]), inner,
                        min_size=1, max_size=3),
        st.lists(inner, min_size=1, max_size=3)),
    max_leaves=5)
_LAYOUTS = {"dumps": jsonio.dumps,
            "compact": partial(json.dumps, separators=(",", ":")),
            "indent-1": partial(json.dumps, indent=1)}


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS, st.sampled_from(sorted(_LAYOUTS)), st.sampled_from([1, 7, 64, 1 << 18]))
def test_read_json_reads_as_json_load(tmp_path_factory, doc, layout, chunk):
    path = tmp_path_factory.mktemp("read") / "doc.json"
    path.write_text(_LAYOUTS[layout](doc))
    with mock.patch.object(flatjson, "_READ_CHUNK", chunk):  # short chunks: long arrays cheaply
        got = jsonio.read_json(path)
    with open(path) as fh:
        _assert_reads_as_json_load(got, json.load(fh))
    if layout == "dumps":  # the writer's layout reads without a Python float per 0.0
        assert all(type(d) is np.ndarray for d in _data_values(got))


_LONG = ", ".join(["0.0"] * 3 + ["-2.5"] + ["0.0"] * 4)


@pytest.mark.parametrize("text", [
    '{"dim": 2, "data": [0.0, 1, 0.0, 0.0]}',
    '{"dim": 2, "data": [0.0, true, 0.0, 0.0]}',
    '{"dim": 2, "data": [0.0, null, 0.0, 0.0]}',
    '{"dim": 2, "data": [0.0, "1.5", 0.0, 0.0]}',
    '{"dim": 2, "data": [NaN, Infinity, -Infinity, 0.0]}',
    '{"x": NaN, "data": [0.0, 1.5]}',
    '{"dim": 1, "data": [123456789012345678901234567890, 0.0]}',
    '{"data": [0.0, 1., 0.0]}',
    '{"data": [0.0, .5, 0.0]}',
    '{"data": [0.0, +1, 0.0]}',
    '{"data": [0.0, 00, 0.0]}',
    '{"data": [0.0, 000, 0.0]}',
    '{"data": [0.0, 0e0, 0.0]}',
    '{"data": [0.0, 1.5, ]}',
    '{"data": [0.0,  1.5, 0.0]}',
    '{"data": [0.0,\n 1.5, 0.0]}',
    '{"data": [0.0,-0.0, 1.5]}',
    '\ufeff{"data": [0.0, 1.5]}',
    '{"name": "\u00e9", "data": [0.0, 1.5]}',
    '{"s": "x \\"data\\": [1.5, 0.0] y", "data": [0.0, 2.5]}',
    '{"x\\"data": [1.5, 0.0], "data": [0.0]}',
    '{"s": "\\"data": [1.5]", "data": [0.0]}',
    '{"data": [1.5, 0.0], "data": [0.0, 2.5, 0.0]}',
    '{"dim": 2, "data": [[1.5, 0.0], [0.0, 0.0]]}',
    '{"a" 1, "data": [' + "[" * 1500 + '1.0]}',
    '{"dim": 4, "data": [' + _LONG,
    '{"dim": 4, "data": [' + _LONG + '], "rows"',
    '{"dim": 4, "data": [' + _LONG + ']}',
    '{"dim": 4, "data": [' + _LONG + '], "other": {"data": []}}',
], ids=["int", "bool", "null", "string", "non-finite", "nan-outside", "huge-integer",
        "1.", ".5", "+1", "00", "000", "0e0", "trailing-comma", "double-space", "newline", "no-space",
        "bom", "non-ascii", "escaped-in-string", "escaped-key", "escaped-quote-invalid",
        "duplicate-data", "pairs", "deep-nesting", "truncated-array", "truncated-object", "plain", "empty"])
@pytest.mark.parametrize("chunk", [1 << 18, 4], ids=["whole", "chunked"])
def test_read_json_hostile_text_reads_as_json_load(tmp_path, text, chunk):
    path = tmp_path / "hostile.json"
    path.write_bytes(text.encode("utf-8"))
    with open(path) as fh:
        try:
            want = json.load(fh)
        except ValueError as exc:
            want = exc
    with mock.patch.object(flatjson, "_READ_CHUNK", chunk):
        if isinstance(want, Exception):
            with pytest.raises(FormatError) as got:
                jsonio.read_json(path)
            assert str(got.value) == str(want)
            assert type(got.value.__cause__) is type(want)
        else:
            _assert_reads_as_json_load(jsonio.read_json(path), want)


def test_read_json_not_utf8_raises_as_json_load(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"data": [0.0, 1.5], "s": "\xff"}')
    with open(path) as fh, pytest.raises(ValueError) as want:
        json.load(fh)
    with pytest.raises(FormatError) as got:
        jsonio.read_json(path)
    assert str(got.value) == str(want.value)
    assert type(got.value.__cause__) is type(want.value)
