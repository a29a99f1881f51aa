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
