"""Command-line driver: parameter grammar, artifact envelope, exit codes,
and the documented example invocations."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import diracshift
from diracshift import __version__
from diracshift.cli import (
    UsageError,
    main,
    parse_complex,
    parse_range,
    parse_vector,
)
from diracshift.clifford import build_clifford
from diracshift.green import green0


def run_to_file(tmp_path, args, name="out.json"):
    path = tmp_path / name
    code = main([*args, "--output", str(path)])
    artifact = json.loads(path.read_text()) if path.exists() else None
    return code, artifact


def write_pair(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps({"s0": [[1.0, 0.0], [0.0, 2.0]], "v": [[0.3, 0.1], [0.1, -0.2]]})
    )
    return str(path)


def write_potential(tmp_path):
    path = tmp_path / "pot.json"
    path.write_text(
        json.dumps({"family": "gaussian", "n": 3, "params": {"amplitude": -0.01, "size": 4}})
    )
    return str(path)


# ---------------------------------------------------------------------------
# parameter grammar


def test_complex_grammar():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("3") == 3.0
    assert parse_complex("2i") == 2j
    assert parse_complex("1-i") == 1 - 1j
    assert parse_complex("-1.5e-2i") == -0.015j
    assert parse_complex("0") == 0.0


def test_complex_grammar_rejects_garbage():
    with pytest.raises(UsageError, match="a\\+bi"):
        parse_complex("abc")
    with pytest.raises(UsageError, match="empty"):
        parse_complex("  ")


def test_vector_and_range_grammar():
    assert np.array_equal(parse_vector("1,0,0"), [1.0, 0.0, 0.0])
    grid = parse_range("-5:5:11")
    assert grid.shape == (11,)
    assert grid[0] == -5.0 and grid[-1] == 5.0
    with pytest.raises(UsageError, match="comma-separated"):
        parse_vector("1;2")
    with pytest.raises(UsageError, match="start:stop:count"):
        parse_range("1:2")
    with pytest.raises(UsageError, match="at least 2"):
        parse_range("0:1:1")


# ---------------------------------------------------------------------------
# green


def test_green_three_dimensional_kernel(tmp_path):
    code, art = run_to_file(
        tmp_path, ["green", "--n", "3", "--z", "0+1i", "--x", "1,0,0", "--y", "0,0,0"]
    )
    assert code == 0
    got = np.array([[complex(*e) for e in row] for row in art["result"]["matrix"]])
    rep = build_clifford(3)
    want = (np.exp(-1.0) / (4 * np.pi)) * 1j * (np.eye(4) + 2 * rep.alphas[0])
    assert np.abs(got - want).max() < 1e-12
    assert art["result"]["regime"] == "series"
    assert art["result"]["N"] == 4


def test_green_zero_energy_limit(tmp_path):
    code, art = run_to_file(
        tmp_path, ["green", "--n", "2", "--z", "0", "--x", "1,0", "--y", "0,0"]
    )
    assert code == 0
    got = np.array([[complex(*e) for e in row] for row in art["result"]["matrix"]])
    rep = build_clifford(2)
    want = 1j / (2 * np.pi) * rep.alphas[0]
    assert np.abs(got - want).max() < 1e-12
    assert art["result"]["regime"] == "zero-limit"


def test_green_missing_parameter_exits_two(capsys):
    code = main(["green", "--n", "3", "--z", "0+1i", "--x", "1,0,0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "missing required parameter" in err["error"]


def test_green_coincident_points_exit_two(capsys):
    code = main(["green", "--n", "3", "--z", "0+1i", "--x", "1,0,0", "--y", "1,0,0"])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_green_bad_complex_exits_two(capsys):
    code = main(["green", "--n", "3", "--z", "abc", "--x", "1,0,0", "--y", "0,0,0"])
    assert code == 2
    assert "a+bi" in json.loads(capsys.readouterr().err)["error"]


# ---------------------------------------------------------------------------
# det-audit


def test_det_audit_passes_at_order_two(tmp_path):
    code, art = run_to_file(
        tmp_path,
        ["det-audit", "--k", "2", "--dim", "6", "--trials", "100", "--seed", "7"],
    )
    assert code == 0
    r = art["result"]
    assert r["max_residual"] <= 1e-10
    assert r["mean_residual"] <= r["max_residual"]
    assert {"k", "dim", "trials", "seed"} <= set(r)


def test_det_audit_order_one_is_exact_multiplicativity(tmp_path):
    code, art = run_to_file(
        tmp_path, ["det-audit", "--k", "1", "--dim", "5", "--trials", "50"]
    )
    assert code == 0
    assert art["result"]["max_residual"] <= 1e-12


def test_det_audit_unsupported_order_exits_two(capsys):
    code = main(["det-audit", "--k", "9", "--dim", "4", "--trials", "5"])
    assert code == 2
    assert "unsupported k" in json.loads(capsys.readouterr().err)["error"]


# ---------------------------------------------------------------------------
# pipelines


def test_witten_counts_rectangular_defect(tmp_path):
    code, art = run_to_file(
        tmp_path, ["witten", "--rows", "8", "--cols", "5", "--k", "2", "--seed", "1"]
    )
    assert code == 0
    assert abs(art["result"]["extrapolated"] - (-3.0)) < 1e-8
    assert len(art["result"]["scaled_traces"]) == 3


def test_ssf_table_vanishes_outside_spectrum(tmp_path):
    pair = write_pair(tmp_path)
    code, art = run_to_file(
        tmp_path, ["ssf", "--pair", pair, "--grid", "-5:5:200", "--method", "krein"]
    )
    assert code == 0
    r = art["result"]
    assert r["method"] == "krein_boundary"
    assert len(r["xi"]) == 200
    assert abs(r["xi"][0]) < 1e-6
    assert abs(r["xi"][-1]) < 1e-6


def test_ssf_eqmain_spelling_and_eps_override(tmp_path):
    pair = write_pair(tmp_path)
    code, art = run_to_file(
        tmp_path,
        ["ssf", "--pair", pair, "--grid", "-4:5:10", "--method", "eqmain",
         "--m", "2", "--eps", "2e-2,1e-2"],
    )
    assert code == 0
    assert art["result"]["method"] == "eq_main"
    assert art["result"]["eps"] == [2e-2, 1e-2]


def test_ssf_unknown_method_exits_two(tmp_path, capsys):
    pair = write_pair(tmp_path)
    code = main(["ssf", "--pair", pair, "--grid", "-5:5:10", "--method", "bogus"])
    assert code == 2
    assert "method" in json.loads(capsys.readouterr().err)["error"]


def test_ssf_pair_schema_violation_reports_pointer(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"s0": [[1.0]]}))
    code = main(["ssf", "--pair", str(bad), "--grid", "-5:5:10", "--method", "krein"])
    assert code == 2
    assert "/v" in json.loads(capsys.readouterr().err)["error"]


def test_abel_step_profile_averages_to_half(tmp_path):
    code, art = run_to_file(tmp_path, ["abel", "--xi", "step", "--lambda", "1e-6"])
    assert code == 0
    assert abs(art["result"]["value"] - 0.5) < 1e-12


def test_bs_pair_residuals_within_bar(tmp_path):
    pair = write_pair(tmp_path)
    code, art = run_to_file(tmp_path, ["bs", "--pair", pair, "--z", "0.3+1i"])
    assert code == 0
    r = art["result"]
    assert r["max_residual"] <= 1e-10
    assert {"resolvent", "complement", "product"} <= set(r)


def test_threshold_classifies_weak_potential(tmp_path):
    pot = write_potential(tmp_path)
    code, art = run_to_file(
        tmp_path,
        ["threshold", "--n", "3", "--potential", pot, "--m", "2", "--R", "2.0",
         "--sweep", "0.5:1.5:3"],
    )
    assert code == 0
    r = art["result"]
    assert r["classification"] == "regular"
    assert r["min_abs_eigenvalue"] > 0.9
    assert [s["amplitude"] for s in r["sweep"]] == [0.5, 1.0, 1.5]
    assert all(s["classification"] == "regular" for s in r["sweep"])


def test_threshold_sweep_rejects_nonpositive_amplitudes(tmp_path, capsys):
    pot = write_potential(tmp_path)
    code, art = run_to_file(
        tmp_path,
        ["threshold", "--n", "3", "--potential", pot, "--m", "2", "--R", "2.0",
         "--sweep", "-1:1:3"],
    )
    assert code == 2
    assert art is None
    assert "positive" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "flag, value", [("--R", "nan"), ("--tol", "nan"), ("--sweep", "nan:1:3")]
)
def test_threshold_rejects_nan_positive_parameters(tmp_path, capsys, flag, value):
    args = {"--n": "3", "--potential": write_potential(tmp_path), "--m": "2", "--R": "2.0"}
    args[flag] = value
    code, art = run_to_file(tmp_path, ["threshold", *[t for kv in args.items() for t in kv]])
    assert code == 2
    assert art is None
    assert "positive and finite" in json.loads(capsys.readouterr().err)["error"]


def test_scan_rejects_nan_distances(tmp_path, capsys):
    code, art = run_to_file(
        tmp_path,
        ["scan", "--n", "3", "--z", "1i", "--direction", "1,0,0", "--distances", "nan:1:3"],
    )
    assert code == 2
    assert art is None
    assert "positive and finite" in json.loads(capsys.readouterr().err)["error"]


def test_threshold_refinement_flag_plumbed(tmp_path):
    pot = write_potential(tmp_path)
    code, art = run_to_file(
        tmp_path,
        ["threshold", "--n", "3", "--potential", pot, "--m", "2", "--R", "2.0",
         "--check-refinement"],
    )
    assert code == 0
    assert art["result"]["refinement_stable"] is True


def test_refinement_grid_over_the_cap_fails_before_any_assembly(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("threshold matrix assembled")

    monkeypatch.setattr(diracshift.resolvalg, "assemble_bs_selfadjoint", refuse)
    pot = write_potential(tmp_path)
    code, art = run_to_file(
        tmp_path,
        ["threshold", "--n", "3", "--potential", pot, "--m", "6", "--R", "2.0",
         "--check-refinement"],
    )
    assert code == 2
    assert art is None
    assert json.loads(capsys.readouterr().err) == {
        "error": "grid would need 6912 rows, above the cap 4096"
    }


@pytest.mark.parametrize(
    "extra", [[], ["--sweep", "0.5:1.5:3"], ["--tol", "1.5"]],
    ids=["single", "sweep", "exceptional"],
)
def test_threshold_spectra_need_no_complex_eigvalsh(tmp_path, monkeypatch, extra):
    # a radial real potential is fixed by the conjugation symmetry, so
    # every spectrum comes from the real symmetric form
    eigvalsh = np.linalg.eigvalsh

    def real_only(a, *args, **kwargs):
        if np.iscomplexobj(a):
            raise AssertionError("complex eigvalsh called")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", real_only)
    pot = write_potential(tmp_path)
    code, art = run_to_file(
        tmp_path,
        ["threshold", "--n", "3", "--potential", pot, "--m", "2", "--R", "2.0", *extra],
    )
    assert code == 0
    r = art["result"]
    assert r["eigenvalue_count"] == 32
    assert r["classification"] == ("exceptional" if "--tol" in extra else "regular")
    assert len(r["near"]) == (32 if "--tol" in extra else 0)
    assert len(r.get("sweep", [])) == (3 if "--sweep" in extra else 0)


def test_clifford_dump_carries_defects(tmp_path):
    code, art = run_to_file(tmp_path, ["clifford", "--n", "4"])
    assert code == 0
    r = art["result"]
    assert r["N"] == 4 and r["generator_count"] == 5
    assert r["max_anticommutator_defect"] < 1e-12
    assert r["max_hermiticity_defect"] < 1e-12
    assert len(r["generators"]) == 5


# ---------------------------------------------------------------------------
# artifact envelope and formats


def strip_timestamp(path):
    data = json.loads(path.read_text())
    data.pop("timestamp")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_artifacts_are_deterministic(tmp_path):
    args = ["det-audit", "--k", "2", "--dim", "5", "--trials", "20", "--seed", "3",
            "--output", str(tmp_path / "art.json")]
    assert main(args) == 0
    first = strip_timestamp(tmp_path / "art.json")
    keep = (tmp_path / "art.json").read_text()
    assert main(args) == 0
    assert strip_timestamp(tmp_path / "art.json") == first
    a = [l for l in keep.splitlines() if "timestamp" not in l]
    b = [l for l in (tmp_path / "art.json").read_text().splitlines() if "timestamp" not in l]
    assert a == b


def test_artifact_embeds_version_seed_config(tmp_path):
    code, art = run_to_file(tmp_path, ["clifford", "--n", "2", "--seed", "42"])
    assert code == 0
    assert art["version"] == __version__
    assert art["seed"] == 42
    assert art["config"]["command"] == "clifford"
    assert art["config"]["params"]["n"] == "2"
    assert "timestamp" in art


def test_no_temporary_files_left_behind(tmp_path):
    code, _ = run_to_file(tmp_path, ["clifford", "--n", "2"])
    assert code == 0
    assert list(tmp_path.glob("*.part")) == []


def test_stdout_when_no_output_path(capsys):
    assert main(["abel", "--xi", "const", "--lambda", "0.5"]) == 0
    art = json.loads(capsys.readouterr().out)
    assert art["result"]["value"] == pytest.approx(1.0)


def test_scan_csv_rows_match_kernel(tmp_path):
    path = tmp_path / "scan.csv"
    code = main(["scan", "--n", "2", "--z", "0+2i", "--direction", "1,1",
                 "--distances", "0.5:3:6", "--format", "csv", "--output", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# version:")
    assert lines[3].split(",")[0] == "s"
    data = np.loadtxt(str(path), delimiter=",", skiprows=4)
    assert data.shape == (6, 9)
    row = data[2]
    got = (row[1::2] + 1j * row[2::2]).reshape(2, 2)
    rep = build_clifford(2)
    unit = np.array([1.0, 1.0]) / np.sqrt(2)
    want = green0(rep, 2j, row[0] * unit, np.zeros(2))
    assert np.abs(got - want).max() < 1e-15


def test_csv_format_restricted_to_scans(capsys):
    code = main(["green", "--n", "2", "--z", "0", "--x", "1,0", "--y", "0,0",
                 "--format", "csv"])
    assert code == 2
    assert "kernel scans" in json.loads(capsys.readouterr().err)["error"]


def test_module_entry_point_runs_without_runpy_warning():
    src = os.path.dirname(os.path.dirname(diracshift.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "diracshift", "clifford", "--n", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["result"]["N"] == 2


def test_config_file_supplies_missing_parameters(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(json.dumps({"n": 3, "z": "0+1i", "x": "1,0,0", "y": "0,0,0"}))
    code, art = run_to_file(tmp_path, ["green", "--config", str(cfg)])
    assert code == 0
    assert art["result"]["regime"] == "series"

    code, art = run_to_file(
        tmp_path, ["green", "--config", str(cfg), "--x", "0,1,0"], "override.json"
    )
    assert code == 0
    assert art["config"]["params"]["x"] == "0,1,0"


def test_negative_seed_rejected(capsys):
    code = main(["clifford", "--n", "2", "--seed", "-1"])
    assert code == 2
    assert "64-bit" in json.loads(capsys.readouterr().err)["error"]


def test_unknown_subcommand_exits_two(capsys):
    code = main(["frobnicate"])
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)


# ---------------------------------------------------------------------------
# malformed inputs and the command table


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ({"family": "power", "n": 3, "params": {"amplitude": 0.5}}, "/params/rho"),
        ({"family": "gaussian", "n": 3, "params": {"width": "abc"}}, "/params/width"),
        ({"family": "gaussian", "n": 3, "params": [1]}, "/params"),
    ],
    ids=["power-without-rho", "width-not-a-number", "params-not-an-object"],
)
def test_malformed_potential_file_exits_two(tmp_path, capsys, spec, pointer):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps(spec))
    code, art = run_to_file(
        tmp_path, ["threshold", "--n", "3", "--potential", str(pot), "--m", "2", "--R", "2"]
    )
    assert code == 2
    assert art is None
    assert pointer in json.loads(capsys.readouterr().err)["error"]


def test_config_seed_must_be_an_integer(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(json.dumps({"seed": "abc"}))
    code = main(["clifford", "--n", "2", "--config", str(cfg)])
    assert code == 2
    assert "--seed" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("entry", [float("nan"), None])
def test_ssf_rejects_non_finite_pair(tmp_path, capsys, entry):
    pair = tmp_path / "pair.json"
    s0 = [[1.0, 0.0], [0.0, entry]]
    pair.write_text(json.dumps({"s0": s0, "v": [[0.3, 0.1], [0.1, -0.2]]}))
    code, art = run_to_file(
        tmp_path, ["ssf", "--pair", str(pair), "--grid", "-5:5:10", "--method", "counting"]
    )
    assert code == 2
    assert art is None
    assert "finite" in json.loads(capsys.readouterr().err)["error"]


COMMAND_FLAGS = {
    "clifford": {"--n"},
    "green": {"--n", "--z", "--x", "--y"},
    "scan": {"--n", "--z", "--direction", "--distances"},
    "bs": {"--pair", "--z"},
    "det-audit": {"--k", "--dim", "--trials"},
    "ssf": {"--pair", "--grid", "--method", "--m", "--eps"},
    "abel": {"--xi", "--lambda"},
    "witten": {"--rows", "--cols", "--k", "--schedule"},
    "threshold": {
        "--n", "--potential", "--m", "--R", "--tol", "--sweep", "--check-refinement"
    },
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_command_flags(command, capsys):
    assert main([command, "--help"]) == 0
    flags = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
    common = {"--help", "--seed", "--output", "--format", "--config"}
    assert flags - common == COMMAND_FLAGS[command]


def test_config_lambda_matches_the_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(json.dumps({"xi": "step", "lambda": 1e-6}))
    code, from_config = run_to_file(tmp_path, ["abel", "--config", str(cfg)], "cfg.json")
    assert code == 0
    code, from_flags = run_to_file(tmp_path, ["abel", "--xi", "step", "--lambda", "1e-6"])
    assert code == 0
    assert from_config["result"] == from_flags["result"]
