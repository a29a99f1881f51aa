import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from twoslit import cli, family3, family4, fixtures, jsonio
from twoslit.cli import main
from twoslit.space import ProductSpace
from twoslit.verify import verify_bundle

from test_simulate import GOLDEN
from test_solver import _generic_state as generic_state


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, _ = run_cli(capsys, *argv)
    return rc, json.loads(out)


def test_reproduce_spin32(capsys):
    rc, payload = run_json(capsys, "reproduce", "--fixture", "spin32")
    assert rc == 0
    assert payload["reproduced"] is True
    assert all(v <= 1e-12 for v in payload["max_abs_diff"].values())
    assert payload["report"]["passed"] is True


def test_reproduce_dim10(capsys):
    rc, payload = run_json(capsys, "reproduce", "--fixture", "dim10")
    assert rc == 0
    assert payload["reproduced"] is True
    assert set(payload["max_abs_diff"]) == {"G_I", "L_I", "psi"}


def test_reproduce_compares_at_the_report_tolerance(capsys, monkeypatch):
    stored = fixtures.fixture("spin32")
    psi = stored.psi.copy()
    psi[0] += 1e-9
    monkeypatch.setattr(cli, "fixture", lambda name: dataclasses.replace(stored, psi=psi))
    monkeypatch.setenv("TWOSLIT_TOL", "1e-8")
    rc, payload = run_json(capsys, "reproduce", "--fixture", "spin32")
    assert 1e-12 < payload["max_abs_diff"]["psi"] <= 1e-8
    assert payload["report"]["tol"] == 1e-8
    assert rc == 0 and payload["reproduced"] is True


def test_generate3_default_point(capsys):
    rc, payload = run_json(capsys, "generate3")
    assert rc == 0
    assert payload["bundle"]["kind"] == "two-detector"
    assert payload["report"]["passed"] is True
    assert payload["report"]["correlations"] == []


def test_generate4_with_params_file(capsys, tmp_path):
    params = jsonio.params_to_json(fixtures.fixture("dim10").params)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    rc, payload = run_json(capsys, "generate4", "--params", str(path))
    assert rc == 0
    assert payload["bundle"]["kind"] == "three-detector"
    idents = {c["identity"] for c in payload["report"]["correlations"]}
    assert "(1-W)Y psi = 0" in idents


def test_generate3_bad_params_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 0.95, "mu2": 1.0, "mu3": 1.0,
                                "lambda2": 1.0, "lambda3": 1.0}))
    rc, out, err = run_cli(capsys, "generate3", "--params", str(path))
    assert rc == 2
    assert "error:" in err


def test_verify_accepts_generated_bundle(capsys, tmp_path):
    path = tmp_path / "b3.json"
    rc, _, _ = run_cli(capsys, "generate3", "--out", str(path))
    assert rc == 0
    rc, payload = run_json(capsys, "verify", "--bundle", str(path))
    assert rc == 0
    assert payload["passed"] is True and payload["failing"] == []


def _assert_tampered_g_fails_at_default_tol(capsys, tmp_path, blob):
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(blob))

    rc, payload = run_json(capsys, "verify", "--bundle", str(tampered))
    assert rc == 1
    assert "projector(G)" in payload["failing"]

    # a loose explicit tolerance accepts the same file
    rc, _, _ = run_cli(capsys, "verify", "--bundle", str(tampered), "--tol", "0.01")
    assert rc == 0


def test_verify_flags_tampered_operator(capsys, tmp_path):
    path = tmp_path / "b3.json"
    run_cli(capsys, "generate3", "--out", str(path))
    blob = json.loads(path.read_text())
    blob["bundle"]["operators"]["G"]["data"][2 * 2] += 1e-3  # the real part of entry 2
    _assert_tampered_g_fails_at_default_tol(capsys, tmp_path, blob)


def test_verify_flags_tampered_operator_in_the_pair_layout(capsys, tmp_path, pair_layout):
    path = tmp_path / "b3.json"
    run_cli(capsys, "generate3", "--out", str(path))
    blob = pair_layout(json.loads(path.read_text()))
    blob["bundle"]["operators"]["G"]["data"][2][0] += 1e-3
    _assert_tampered_g_fails_at_default_tol(capsys, tmp_path, blob)


def test_verify_csv_format(capsys, tmp_path):
    path = tmp_path / "b3.json"
    run_cli(capsys, "generate3", "--out", str(path))
    rc, out, _ = run_cli(capsys, "verify", "--bundle", str(path), "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "name,kind,residual,pass"


def test_verify_missing_file_exits_2(capsys):
    rc, _, err = run_cli(capsys, "verify", "--bundle", "/nonexistent/x.json")
    assert rc == 2 and "error:" in err


def test_solve_fixture(capsys):
    rc, payload = run_json(capsys, "solve", "--fixture", "spin32", "--draws", "50")
    assert rc == 0
    (target,) = payload["targets"]
    assert target["name"] == "G" and target["nullity"] == 4
    assert target["exists"] is True and target["free_dim"] == 2
    assert target["orthogonality_residual"] <= 1e-12 and target["rank_range"] == [2, 4]
    assert target["residual"] < 1e-10
    assert target["fixture_residual"] < 1e-10
    assert target["projectors_found"] >= 1
    assert target["fixture_recovery_dist"] < 1e-9


def test_solve_no_filter(capsys):
    rc, payload = run_json(capsys, "solve", "--fixture", "dim10", "--no-filter")
    assert rc == 0
    assert {t["name"] for t in payload["targets"]} == {"G", "L"}
    assert all("projectors_found" not in t for t in payload["targets"])


def test_solve_from_state_files(capsys, tmp_path):
    fx = fixtures.fixture("spin32")
    psi_path, space_path = tmp_path / "psi.json", tmp_path / "space.json"
    psi_path.write_text(json.dumps(jsonio.vector_to_json(fx.psi)))
    space_path.write_text(json.dumps(jsonio.space_to_json(fx.space)))
    rc, payload = run_json(capsys, "solve", "--psi", str(psi_path),
                           "--space", str(space_path), "--draws", "0")
    assert rc == 0
    assert payload["targets"][0]["residual"] < 1e-10


def test_solve_on_a_single_point_set(capsys, tmp_path):
    sp = ProductSpace(2, (1, 1, 1, 1))
    psi_path, space_path = tmp_path / "psi.json", tmp_path / "space.json"
    jsonio.write_json(psi_path, jsonio.vector_to_json(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / 2 ** 0.5))
    jsonio.write_json(space_path, jsonio.space_to_json(sp))
    rc, payload = run_json(capsys, "solve", "--psi", str(psi_path), "--space", str(space_path))
    assert rc == 0
    (target,) = payload["targets"]
    assert target["nullity"] == 0 and target["residual"] == 0.0
    assert target["projectors_found"] == 1 and target["projector_traces"] == [1.0]


@pytest.mark.parametrize("no_filter", [(), ("--no-filter",)], ids=["search", "no-filter"])
def test_solve_without_a_solution_exits_1(capsys, tmp_path, no_filter):
    sp = ProductSpace(10, (2, 2, 2, 2))
    psi_path, space_path = tmp_path / "psi.json", tmp_path / "space.json"
    jsonio.write_json(psi_path, jsonio.vector_to_json(generic_state(sp, 0)))
    jsonio.write_json(space_path, jsonio.space_to_json(sp))
    rc, payload = run_json(capsys, "solve", "--psi", str(psi_path), "--space", str(space_path),
                           "--draws", "20", *no_filter)
    assert rc == 1
    (target,) = payload["targets"]
    assert target["exists"] is False and target["orthogonality_residual"] > 1e-3
    assert target["residual"] > 1e-10
    assert target.get("projectors_found", 0) == 0


def _write_indented(path, obj):
    path.write_text(json.dumps(obj, indent=1))


@pytest.mark.parametrize("write", [jsonio.write_json, _write_indented],
                         ids=["dumps", "indent-1"])
@pytest.mark.parametrize("name", ["spin32", "dim10"])
def test_solve_and_simulate_read_state_files_as_the_fixture(capsys, tmp_path, write, name):
    fx = fixtures.fixture(name)
    psi_path, space_path = tmp_path / "psi.json", tmp_path / "space.json"
    write(psi_path, jsonio.vector_to_json(fx.psi))
    write(space_path, jsonio.space_to_json(fx.space))
    files = ("--psi", str(psi_path), "--space", str(space_path))
    rc, solved = run_json(capsys, "solve", *files, "--no-filter")
    rc_fixture, want = run_json(capsys, "solve", "--fixture", name, "--no-filter")
    assert rc == rc_fixture == 0
    assert [{k: t[k] for k in ("name", "residual", "nullity")} for t in solved["targets"]] \
        == [{k: t[k] for k in ("name", "residual", "nullity")} for t in want["targets"]]
    for fmt in ("json", "csv"):
        simulated = run_cli(capsys, "simulate", *files, "--samples", "2000", "--format", fmt)
        assert simulated == run_cli(capsys, "simulate", "--fixture", name, "--samples", "2000",
                                    "--format", fmt)
        assert simulated[0] == 0


def test_solve_requires_inputs(capsys):
    rc, _, err = run_cli(capsys, "solve")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("command, given, message", [
    ("solve", "--psi", "solve needs either --fixture or both --psi and --space"),
    ("simulate", "--space", "simulate needs both --psi and --space, or neither"),
], ids=["solve-psi-only", "simulate-space-only"])
def test_one_state_file_alone_exits_2(capsys, tmp_path, command, given, message):
    fx = fixtures.fixture("spin32")
    path = tmp_path / "input.json"
    jsonio.write_json(path, jsonio.vector_to_json(fx.psi) if given == "--psi"
                      else jsonio.space_to_json(fx.space))
    rc, out, err = run_cli(capsys, command, given, str(path))
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_simulate_default(capsys):
    rc, payload = run_json(capsys, "simulate")
    assert rc == 0
    assert payload["samples"] == 100000
    assert payload["counts"] == GOLDEN["spin32"]  # the defaults: spin32, seed 42
    assert abs(payload["p_T"] - 0.5) < 0.01
    assert payload["p_slit_given_T"] == 1.0
    rc2, payload2 = run_json(capsys, "simulate")
    assert rc2 == 0 and payload2["counts"] == payload["counts"]


def test_simulate_sharded_matches(capsys):
    _, base = run_json(capsys, "simulate", "--samples", "20000")
    _, sharded = run_json(capsys, "simulate", "--samples", "20000", "--shards", "4")
    assert base["counts"] == sharded["counts"]


def test_simulate_csv(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--samples", "1000", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "slit_bit,block,exact,count,empirical,stderr"
    assert len(lines) == 1 + 8


def test_simulate_rejects_bad_sample_count(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--samples", "0")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--shards", "0"),
    ("simulate", "--shards", "-5", "--samples", "10"),
    ("solve", "--fixture", "dim10", "--draws", "-1"),
    ("simulate", "--seed", "-1"),
    ("simulate", "--samples", str(2**63)),
    ("solve", "--fixture", "spin32", "--seed", "-1"),
], ids=["zero-shards", "negative-shards", "negative-draws", "negative-seed", "samples-2**63",
        "negative-solve-seed"])
def test_bad_counts_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and err.startswith("error:") and err.count("\n") == 1
    assert out == ""


def _bad_state_files(tmp_path, bad):
    """--psi and --space files of the spin32 state with its first entry set to bad."""
    fx = fixtures.fixture("spin32")
    psi = fx.psi.copy()
    psi[0] = bad
    psi_path, space_path = tmp_path / "psi.json", tmp_path / "space.json"
    jsonio.write_json(psi_path, jsonio.vector_to_json(psi))
    jsonio.write_json(space_path, jsonio.space_to_json(fx.space))
    return ("--psi", str(psi_path), "--space", str(space_path))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_simulate_rejects_a_non_finite_state(capsys, tmp_path, bad, fmt):
    rc, out, err = run_cli(capsys, "simulate", *_bad_state_files(tmp_path, bad),
                           "--samples", "10", "--format", fmt)
    assert (rc, out, err) == (2, "", "error: state must be finite\n")


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "verify")[0] == 2  # --bundle is required
    assert run_cli(capsys, "solve", "--fixture", "spin32", "--box", "1")[0] == 2


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "tally.json"
    rc, out, _ = run_cli(capsys, "simulate", "--samples", "1000", "--out", str(path))
    assert rc == 0
    payload = json.loads(path.read_text())
    assert sum(map(sum, payload["counts"])) == 1000


def _off_block_t(blob, delta):
    """Raise T[0, dim_ii] of a generated bundle file's data, an entry outside
    every diagonal block, by ``delta``."""
    bundle = blob["bundle"]
    m = sum(bundle["space"]["partition"])
    T = bundle["operators"]["T"]
    assert T["data"][2 * m] == 0.0
    T["data"][2 * m] += delta  # the real part of row 0, column m
    return blob


def test_verify_fails_a_tampered_detector_on_its_projector_entry(capsys, tmp_path):
    path = tmp_path / "b4.json"
    assert run_cli(capsys, "generate4", "--out", str(path))[0] == 0
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(_off_block_t(json.loads(path.read_text()), 1e-9)))
    rc, payload = run_json(capsys, "verify", "--bundle", str(tampered))
    assert rc == 1 and payload["failing"] == ["projector(T)"]
    assert "method" not in payload
    rc, payload = run_json(capsys, "verify", "--bundle", str(tampered), "--tol", "1e-6")
    assert rc == 0 and payload["failing"] == []


@pytest.mark.parametrize("key, size", [("G", 20), ("psi", 20)], ids=["operator", "state"])
def test_verify_a_wrong_size_exits_2(capsys, tmp_path, key, size):
    path = tmp_path / "b3.json"
    assert run_cli(capsys, "generate3", "--out", str(path))[0] == 0
    blob = json.loads(path.read_text())["bundle"]
    if key == "psi":
        blob["psi"] = {"dim": size, "data": blob["psi"]["data"][:2 * size]}
    else:
        blob["operators"][key] = {"rows": size, "cols": size,
                                  "data": blob["operators"][key]["data"][:2 * size * size]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    rc, out, err = run_cli(capsys, "verify", "--bundle", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "does not match" in err


def test_generate4_zero_divisor_exits_2_without_traceback(capsys, tmp_path):
    params = jsonio.params_to_json(fixtures.fixture("dim10").params)
    params["b4"] = [0.0, 0.0]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    rc, out, err = run_cli(capsys, "generate4", "--params", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, operator", [("generate3", "Y"), ("generate4", "W")])
def test_verify_needs_every_operator_and_ignores_unknown_ones(capsys, tmp_path, command,
                                                              operator):
    path = tmp_path / "bundle.json"
    assert run_cli(capsys, command, "--out", str(path))[0] == 0
    blob = json.loads(path.read_text())["bundle"]
    ops = blob["operators"]
    ops["X"] = ops["E"]
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(blob))
    rc, payload = run_json(capsys, "verify", "--bundle", str(extra))
    assert rc == 0 and payload["passed"] is True

    del ops[operator]
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps(blob))
    rc, out, err = run_cli(capsys, "verify", "--bundle", str(missing))
    assert rc == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("entry", [[0.5, 0.0, 1.0], "abc", [0.5], [None, 0.0], [[0.5], 0.0],
                                   ["x", 0.0]],
                         ids=["wide-pair", "string", "ragged", "null-in-pair", "list-in-pair",
                              "string-in-pair"])
def test_verify_malformed_operator_data_exits_2(capsys, tmp_path, entry):
    path = tmp_path / "b4.json"
    assert run_cli(capsys, "generate4", "--out", str(path))[0] == 0
    blob = json.loads(path.read_text())
    blob["bundle"]["operators"]["G"]["data"][3] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    rc, out, err = run_cli(capsys, "verify", "--bundle", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, key", [("generate3", "p"), ("generate3", "theta"),
                                          ("generate4", "dim_block2")])
def test_null_parameter_value_exits_2(capsys, tmp_path, command, key):
    params = jsonio.params_to_json(fixtures.fixture(
        "spin32" if command == "generate3" else "dim10").params)
    params[key] = None
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    rc, out, err = run_cli(capsys, command, "--params", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _set(blob, path, value):
    for key in path[:-1]:
        blob = blob[key]
    blob[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("space",), None), (("psi",), None), (("params", "p"), None),
    (("params", "seed_a3"), None), (("derived", "q"), None),
    (("space", "partition"), None), (("operators",), []),
], ids=["space", "psi", "params.p", "params.seed_a3", "derived.q", "space.partition",
        "operators-list"])
def test_verify_malformed_bundle_value_exits_2(capsys, tmp_path, path, value):
    good = tmp_path / "b3.json"
    assert run_cli(capsys, "generate3", "--out", str(good))[0] == 0
    blob = json.loads(good.read_text())["bundle"]
    _set(blob, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    rc, out, err = run_cli(capsys, "verify", "--bundle", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("path, value", [
    (("space", "dim_i"), 6.9), (("space", "rank_e"), 3.5), (("space", "partition", 0), 1.5),
    (("space", "partition", 0), True), (("operators", "G", "rows"), 24.9),
    (("operators", "G", "cols"), 24.9), (("psi", "dim"), 24.9),
], ids=["dim_i", "rank_e", "partition", "partition-true", "rows", "cols", "dim"])
def test_verify_non_integer_size_exits_2(capsys, tmp_path, path, value):
    good = tmp_path / "b3.json"
    assert run_cli(capsys, "generate3", "--out", str(good))[0] == 0
    blob = json.loads(good.read_text())["bundle"]
    _set(blob, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    rc, out, err = run_cli(capsys, "verify", "--bundle", str(bad))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "integer" in err


def test_verify_reads_integral_float_sizes(capsys, tmp_path):
    good = tmp_path / "b3.json"
    assert run_cli(capsys, "generate3", "--out", str(good))[0] == 0
    blob = json.loads(good.read_text())["bundle"]
    assert blob["space"] == {"dim_i": 6, "rank_e": 3, "partition": [1, 1, 1, 1]}
    blob["space"] = {"dim_i": 6.0, "rank_e": 3.0, "partition": [1.0, 1.0, 1.0, 1.0]}
    blob["operators"]["G"].update(rows=24.0, cols=24.0)
    blob["psi"]["dim"] = 24.0
    floats = tmp_path / "floats.json"
    floats.write_text(json.dumps(blob))
    assert run_cli(capsys, "verify", "--bundle", str(floats))[0] == 0


def test_verify_on_a_nan_state_warns_nothing(capsys, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "verify", "--bundle",
                               _nan_state_bundle(tmp_path, capsys, lambda blob: blob))
    assert rc == 1 and err == ""
    assert json.loads(out)["passed"] is False


def _nan_state_bundle(tmp_path, capsys, layout):
    path = tmp_path / "b3.json"
    run_cli(capsys, "generate3", "--out", str(path))
    blob = json.loads(path.read_text())
    blob["bundle"]["psi"]["data"][0:2] = [float("nan"), 0.0]
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(layout(blob)))
    return str(nan)


@pytest.mark.parametrize("argv", [
    ("generate3",), ("generate4",), ("verify", "--bundle", "NAN"),
    ("reproduce", "--fixture", "spin32"), ("reproduce", "--fixture", "dim10"),
    ("solve", "--fixture", "dim10", "--draws", "20"), ("simulate", "--samples", "1000"),
    ("verify", "--bundle", "NAN-PAIRS"),
], ids=["generate3", "generate4", "verify-nan", "reproduce-spin32", "reproduce-dim10",
        "solve", "simulate", "verify-nan-pair-layout"])
def test_output_differs_from_indented_json_only_in_whitespace(capsys, tmp_path, monkeypatch,
                                                              pair_layout, argv):
    layouts = {"NAN": lambda blob: blob, "NAN-PAIRS": pair_layout}
    argv = [_nan_state_bundle(tmp_path, capsys, layouts[a]) if a in layouts else a for a in argv]
    emitted, dumps = [], jsonio.dumps

    def recording_dumps(obj):
        emitted.append(obj)
        return dumps(obj)

    monkeypatch.setattr(jsonio, "dumps", recording_dumps)
    rc, out, _ = run_cli(capsys, *argv)
    (obj,) = emitted
    if argv[0] == "verify":
        assert rc == 1 and any(c["residual"] != c["residual"] for c in obj["conditions"])
    assert out == dumps(obj) + "\n"
    assert json.dumps(json.loads(out)) == json.dumps(json.loads(json.dumps(
        obj, indent=2, default=lambda a: a.tolist())))


def _reference_text(obj):
    """``json.dumps(obj, indent=2)`` with each array that holds no object
    swapped for its one-line ``json.dumps`` text."""
    lines = []

    def mark(o):
        if isinstance(o, dict):
            return {k: mark(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)) and any(isinstance(v, dict) for v in o):
            return [mark(v) for v in o]
        if isinstance(o, (list, tuple)):
            lines.append(json.dumps(o))
            return f"@array{len(lines) - 1}@"
        return o

    text = json.dumps(mark(obj), indent=2)
    return re.sub(r'"@array(\d+)@"', lambda m: lines[int(m[1])], text)


@pytest.mark.parametrize("command, family, name", [
    ("generate3", family3, "spin32"), ("generate4", family4, "dim10")])
def test_generate_output_equals_the_reference_text(capsys, command, family, name):
    bundle = family.build(fixtures.fixture(name).params)
    report = verify_bundle(bundle)
    payload = report.to_dict()
    payload["failing"] = report.failing()
    want = _reference_text({"bundle": jsonio.bundle_to_json(bundle), "report": payload})
    rc, out, _ = run_cli(capsys, command)
    assert rc == 0 and out == want + "\n"


@pytest.mark.parametrize("data", [
    lambda d: d[:-1],                             # odd length
    lambda d: d + [0.0, 0.0],                     # neither n nor 2n
    lambda d: ["0.5"] + d[1:],                    # a string
    lambda d: [None] + d[1:],                     # a null
    lambda d: [[0.5]] + d[1:],                    # a nested list
    lambda d: [[0.5, 0.0]] + d[1:],               # a pair inside flat data
    lambda d: [10 ** 400] + d[1:],                # an integer past the float range
], ids=["odd", "neither", "string", "null", "nested", "pair", "huge-integer"])
def test_verify_malformed_flat_data_exits_2(capsys, tmp_path, data):
    good = tmp_path / "b3.json"
    assert run_cli(capsys, "generate3", "--out", str(good))[0] == 0
    blob = json.loads(good.read_text())["bundle"]
    blob["operators"]["G"]["data"] = data(blob["operators"]["G"]["data"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    rc, out, err = run_cli(capsys, "verify", "--bundle", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate3", "generate4"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_reports_the_same_for_the_pair_layout(capsys, tmp_path, pair_layout,
                                                     command, fmt):
    new = tmp_path / "new.json"
    assert run_cli(capsys, command, "--out", str(new))[0] == 0
    old = tmp_path / "pairs.json"
    old.write_text(json.dumps(pair_layout(json.loads(new.read_text()))))
    rc, out, _ = run_cli(capsys, "verify", "--bundle", str(new), "--format", fmt)
    rc_old, out_old, _ = run_cli(capsys, "verify", "--bundle", str(old), "--format", fmt)
    assert rc == rc_old == 0
    assert out_old == out


@pytest.mark.parametrize("value", [2.5, True])
def test_generate4_rejects_a_non_integer_block_size(capsys, tmp_path, value):
    params = jsonio.params_to_json(fixtures.fixture("dim10").params)
    params["dim_block2"] = value
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    rc, out, err = run_cli(capsys, "generate4", "--params", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "integer" in err


def test_missing_parameter_key_is_named(capsys, tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"theta": 0}))
    rc, out, err = run_cli(capsys, "generate3", "--params", str(path))
    assert rc == 2 and out == ""
    assert err == "error: missing key 'p'\n"


def test_solve_takes_no_tol(capsys):
    rc, out, err = run_cli(capsys, "solve", "--fixture", "spin32", "--no-filter",
                           "--tol", "1e-3")
    assert rc == 2 and out == ""
    assert "--tol" in err


def test_simulate_takes_no_tol(capsys):
    rc, out, err = run_cli(capsys, "simulate", "--samples", "1000", "--tol", "1e-3")
    assert rc == 2 and out == ""
    assert "--tol" in err


def _json_load(path):
    with open(path) as fh:
        return json.load(fh)


def _edit_g_data(old, new):
    """An edit of a bundle file's text: the first old after the start of
    operator G's data becomes new."""
    def edit(text):
        at = text.index('"data": [', text.index('"G": {'))
        return text[:at] + text[at:].replace(old, new, 1)
    return edit


@pytest.mark.parametrize("edit", [
    _edit_g_data("0.0, ", "0, "),
    _edit_g_data("0.0, ", "true, "),
    _edit_g_data("0.0, ", "null, "),
    _edit_g_data("0.0, ", '"0.0", '),
    _edit_g_data("0.0, ", "NaN, "),
    _edit_g_data("0.0, ", "1" + "0" * 30 + ", "),
    _edit_g_data("0.0, ", "1., "),
    _edit_g_data("0.0, ", "00, "),
    _edit_g_data("0.0, ", "0.0,  "),
    _edit_g_data("0.0, ", "0.0,\n"),
    _edit_g_data("0.0, ", "0.0,"),
    _edit_g_data("]", ", ]"),
    lambda text: "\ufeff" + text,
    lambda text: text.replace('"C.1"', '"C.1 \u00e9"', 1),
    lambda text: text[:len(text) // 2],
    lambda text: text.replace('"kind"', '"kind": "x \\"data\\": [1.5] y", "kind"', 1),
    lambda text: _edit_g_data("0.0, ", "[" * 1500 + "0.0, ")(text.replace("{", '{"a" 1, ', 1)),
], ids=["int", "bool", "null", "string", "nan", "huge-integer", "1.", "00", "double-space",
        "newline", "no-space", "trailing-comma", "bom", "non-ascii", "truncated",
        "escaped-in-string", "deep-nesting"])
def test_verify_reads_hostile_bundle_text_as_json_load_does(capsys, tmp_path, monkeypatch,
                                                            edit):
    good = tmp_path / "b3.json"
    assert run_cli(capsys, "generate3", "--out", str(good))[0] == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(edit(good.read_text()).encode("utf-8"))
    got = run_cli(capsys, "verify", "--bundle", str(bad))
    monkeypatch.setattr(jsonio, "read_json", _json_load)
    assert got == run_cli(capsys, "verify", "--bundle", str(bad))


@pytest.fixture(scope="module")
def bundle3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "b3.json"
    jsonio.write_json(path, {"bundle": jsonio.bundle_to_json(family3.build(
        fixtures.fixture("spin32").params))})
    return path


@pytest.mark.parametrize("env, argv, message", [
    ({}, ("verify", "--tol", "nan"), "tolerance must be a finite number >= 0, got nan"),
    ({}, ("verify", "--tol", "-1"), "tolerance must be a finite number >= 0, got -1.0"),
    ({}, ("verify", "--tol", "inf"), "tolerance must be a finite number >= 0, got inf"),
    ({"TWOSLIT_TOL": "abc"}, ("verify",),
     "TWOSLIT_TOL must be a finite number >= 0, got 'abc'"),
    ({"TWOSLIT_TOL": "nan"}, ("verify",),
     "TWOSLIT_TOL must be a finite number >= 0, got 'nan'"),
    ({"TWOSLIT_NONZERO_TOL": "nan"}, ("verify",),
     "TWOSLIT_NONZERO_TOL must be a finite number >= 0, got 'nan'"),
    ({}, ("verify", "--format", "csv", "--tol", "-1"),
     "tolerance must be a finite number >= 0, got -1.0"),
    ({}, ("generate3", "--tol", "nan"), "tolerance must be a finite number >= 0, got nan"),
    ({"TWOSLIT_TOL": "-1"}, ("reproduce", "--fixture", "dim10"),
     "TWOSLIT_TOL must be a finite number >= 0, got '-1'"),
], ids=["tol-nan", "tol-minus-1", "tol-inf", "env-abc", "env-nan", "nonzero-env-nan",
        "csv-tol-minus-1", "generate3-tol-nan", "reproduce-env-minus-1"])
def test_bad_tolerance_exits_2(capsys, monkeypatch, bundle3_path, env, argv, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if argv[0] == "verify":
        argv += ("--bundle", str(bundle3_path))
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text", ["5", "null", "1.5", "true", '"bundle"'])
def test_verify_a_json_scalar_exits_2(capsys, tmp_path, text):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    rc, out, err = run_cli(capsys, "verify", "--bundle", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: malformed input:") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [(), ("--no-filter",)], ids=["search", "no-filter"])
def test_solve_rejects_a_non_finite_state(capsys, tmp_path, extra):
    rc, out, err = run_cli(capsys, "solve", *_bad_state_files(tmp_path, np.nan), *extra)
    assert (rc, out, err) == (2, "", "error: state must be finite\n")
