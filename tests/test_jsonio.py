import json

import numpy as np
import pytest

from twoslit import family3, family4, fixtures, jsonio
from twoslit.errors import DimensionError, ModeError
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
    r3 = jsonio.params3_from_json(json.loads(json.dumps(jsonio.params3_to_json(p3))))
    assert r3.p == p3.p and r3.mu2 == p3.mu2 and r3.lambda3 == p3.lambda3
    assert np.array_equal(r3.seed_b2, p3.seed_b2)

    p4 = fixtures.fixture("dim10").params
    r4 = jsonio.params4_from_json(json.loads(json.dumps(jsonio.params4_to_json(p4))))
    assert r4.p == p4.p and r4.m == p4.m and r4.beta5 == p4.beta5
    assert np.array_equal(r4.seed_theta4, p4.seed_theta4)


def test_params_from_json_tolerates_missing_seeds():
    minimal = {"p": 2 / 3, "mu2": [1.7320508075688772, 0.0], "mu3": 1.0,
               "lambda2": [1.7320508075688772, 0.0], "lambda3": 1.0}
    p = jsonio.params3_from_json(minimal)
    assert np.array_equal(p.seed_a3, np.ones(1))


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


def _reference_pairs(a):
    """The per-element encoding the vectorised codec must equal."""
    return [[z.real, z.imag] for z in np.asarray(a, dtype=complex).reshape(-1)]


def _reference_decode(data):
    return np.array([jsonio.pair_to_complex(v) for v in data], dtype=complex)


_RNG = np.random.default_rng(17)
_M = _RNG.standard_normal((4, 6)) + 1j * _RNG.standard_normal((4, 6))
_M[0, 0] = complex(-0.0, -0.0)
_PSI = _RNG.standard_normal(9) + 1j * _RNG.standard_normal(9)


@pytest.mark.parametrize("m", [
    _M, np.asfortranarray(_M), _M.T, _M[::2, 1::3], _M.real, np.arange(12).reshape(3, 4),
    np.zeros((0, 5)), np.zeros((5, 0), dtype=complex),
], ids=["C", "F-ordered", "transposed", "strided", "real", "integer", "0xn", "nx0"])
def test_matrix_codec_equals_the_per_element_reference(m):
    d = jsonio.matrix_to_json(m)
    assert (d["rows"], d["cols"]) == m.shape
    assert d["data"] == _reference_pairs(m)
    assert json.dumps(d["data"]) == json.dumps(_reference_pairs(m))  # -0.0 and repr kept
    assert all(type(x) is float for pair in d["data"] for x in pair)
    again = jsonio.matrix_from_json(json.loads(json.dumps(d)))
    assert again.shape == m.shape
    assert again.tobytes() == np.asarray(m, dtype=complex).tobytes()


@pytest.mark.parametrize("v", [
    _PSI, _PSI[::2], _PSI[::-1], _PSI.real, np.arange(5), np.zeros(0),
], ids=["contiguous", "strided", "reversed", "real", "integer", "empty"])
def test_vector_codec_equals_the_per_element_reference(v):
    d = jsonio.vector_to_json(v)
    assert d["dim"] == v.shape[0]
    assert d["data"] == _reference_pairs(v)
    assert json.dumps(d["data"]) == json.dumps(_reference_pairs(v))
    again = jsonio.vector_from_json(json.loads(json.dumps(d)))
    assert again.tobytes() == np.asarray(v, dtype=complex).tobytes()


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
