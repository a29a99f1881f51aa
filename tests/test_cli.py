import dataclasses
import json

import numpy as np
import pytest

from twoslit import cli, fixtures, jsonio
from twoslit.cli import main


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
    params = jsonio.params4_to_json(fixtures.fixture("dim10").params)
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


def test_verify_flags_tampered_operator(capsys, tmp_path):
    path = tmp_path / "b3.json"
    run_cli(capsys, "generate3", "--out", str(path))
    blob = json.loads(path.read_text())
    blob["bundle"]["operators"]["G"]["data"][2][0] += 1e-3
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(blob))

    rc, payload = run_json(capsys, "verify", "--bundle", str(tampered))
    assert rc == 1
    assert "projector(G)" in payload["failing"]

    # a loose explicit tolerance accepts the same file
    rc, _, _ = run_cli(capsys, "verify", "--bundle", str(tampered), "--tol", "0.01")
    assert rc == 0


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


def test_solve_requires_inputs(capsys):
    rc, _, err = run_cli(capsys, "solve")
    assert rc == 2 and "error:" in err


def test_simulate_default(capsys):
    rc, payload = run_json(capsys, "simulate")
    assert rc == 0
    assert payload["samples"] == 100000
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


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "verify")[0] == 2  # --bundle is required


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "tally.json"
    rc, out, _ = run_cli(capsys, "simulate", "--samples", "1000", "--out", str(path))
    assert rc == 0
    payload = json.loads(path.read_text())
    assert sum(map(sum, payload["counts"])) == 1000


def test_reports_name_the_verification_method(capsys, tmp_path):
    path = tmp_path / "b4.json"
    rc, _, _ = run_cli(capsys, "generate4", "--out", str(path))
    assert rc == 0
    assert json.loads(path.read_text())["report"]["method"] == "factored"
    rc, payload = run_json(capsys, "verify", "--bundle", str(path))
    assert rc == 0 and payload["method"] == "factored"


def test_generate4_zero_divisor_exits_2_without_traceback(capsys, tmp_path):
    params = jsonio.params4_to_json(fixtures.fixture("dim10").params)
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


def _nan_state_bundle(tmp_path, capsys):
    path = tmp_path / "b3.json"
    run_cli(capsys, "generate3", "--out", str(path))
    blob = json.loads(path.read_text())
    blob["bundle"]["psi"]["data"][0] = [float("nan"), 0.0]
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(blob))
    return str(nan)


@pytest.mark.parametrize("argv", [
    ("generate3",), ("generate4",), ("verify", "--bundle", "NAN"),
    ("reproduce", "--fixture", "spin32"), ("reproduce", "--fixture", "dim10"),
    ("solve", "--fixture", "dim10", "--draws", "20"), ("simulate", "--samples", "1000"),
], ids=["generate3", "generate4", "verify-nan", "reproduce-spin32", "reproduce-dim10",
        "solve", "simulate"])
def test_output_differs_from_indented_json_only_in_whitespace(capsys, tmp_path, monkeypatch,
                                                              argv):
    argv = [_nan_state_bundle(tmp_path, capsys) if a == "NAN" else a for a in argv]
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
    assert json.dumps(json.loads(out)) == json.dumps(json.loads(json.dumps(obj, indent=2)))
