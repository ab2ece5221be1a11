"""Tests of the benchmark itself: seeded inputs, oracles that can fail,
and tracing that changes nothing.

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from diracshift import cli  # noqa: E402


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize(
    "make",
    [workloads.zero_energy_inputs, workloads.complex_kernel_inputs,
     workloads.matrix_pair_inputs],
)
def test_inputs_are_deterministic_per_seed(make):
    first = json.dumps(make(7), sort_keys=True)
    assert json.dumps(make(7), sort_keys=True) == first
    assert json.dumps(make(8), sort_keys=True) != first


def test_written_input_files_repeat_per_seed(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        build(3, a)
        build(3, b)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes()


def test_zero_energy_coupling_is_indefinite():
    for seed in range(5):
        m = np.asarray(workloads.zero_energy_inputs(seed)["params"]["matrix"])
        mu = np.linalg.eigvalsh(m)
        assert mu.min() < 0 < mu.max()


# ---------------------------------------------------------------------------
# oracles accept the program's output and reject a perturbed value


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    out = {}
    for name, build in workloads.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        w = build(5, work)
        ref = run.run_pass(w)
        assert not ref["errors"], ref["errors"]
        out[name] = (w, ref["outcomes"])
    return out


def _copy(outcomes):
    return json.loads(json.dumps(outcomes))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_oracles_pass_the_program_output(references, name):
    w, outcomes = references[name]
    failures, worst = w.check(_copy(outcomes))
    assert failures == {}
    assert 0.0 <= worst < 1e-4


def test_kernel_oracle_rejects_a_perturbed_entry(references):
    w, outcomes = references["complex-kernel"]
    bad = _copy(outcomes)
    k = int(oracles.scan_sample(workloads.CK_DISTANCES[2])[20])
    entry = bad["scan_even"]["result"]["kernels"][k][0][1]
    entry[0] *= 1 + 1e-5
    failures, _ = w.check(bad)
    assert list(failures) == ["scan_even"]


def test_resolvent_oracle_rejects_a_perturbed_norm(references):
    w, outcomes = references["complex-kernel"]
    bad = _copy(outcomes)
    bad["resolvent"]["result"] *= 1 + 1e-5
    failures, _ = w.check(bad)
    assert list(failures) == ["resolvent"]


@pytest.mark.parametrize("op", ["ssf_krein", "ssf_eqmain", "ssf_counting"])
def test_count_oracle_rejects_a_perturbed_xi(references, op):
    w, outcomes = references["matrix-pair"]
    bad = _copy(outcomes)
    xi = bad[op]["result"]["xi"]
    i = next(i for i, v in enumerate(xi) if v is not None)
    xi[i] += 0.6
    failures, _ = w.check(bad)
    assert list(failures) == [op]


def test_count_oracle_rejects_a_withheld_far_point(references):
    w, outcomes = references["matrix-pair"]
    bad = _copy(outcomes)
    xi = bad["ssf_krein"]["result"]["xi"]
    far = oracles.spectrum_distance(
        *_pair_matrices(), np.asarray(bad["ssf_krein"]["result"]["lambda"])
    ) > workloads.MP_UNFLAGGED
    xi[int(np.flatnonzero(far)[0])] = None
    failures, _ = w.check(bad)
    assert list(failures) == ["ssf_krein"]


def _pair_matrices():
    inp = workloads.matrix_pair_inputs(5)["pair"]
    return (np.asarray(inp["s0"]["re"]) + 1j * np.asarray(inp["s0"]["im"]),
            np.asarray(inp["v"]["re"]) + 1j * np.asarray(inp["v"]["im"]))


@pytest.mark.parametrize("op", ["threshold", "sweep", "exceptional"])
def test_threshold_oracle_rejects_a_perturbed_eigenvalue(references, op):
    w, outcomes = references["zero-energy"]
    bad = _copy(outcomes)
    bad[op]["result"]["min_abs_eigenvalue"] += 1e-6
    failures, _ = w.check(bad)
    assert list(failures) == [op]


def test_exceptional_run_keeps_near_kernel_vectors(references):
    _, outcomes = references["zero-energy"]
    r = outcomes["exceptional"]["result"]
    assert r["classification"] == "exceptional" and len(r["near"]) >= 1


def test_digits_are_capped_and_finite():
    assert oracles.digits(0.0) == 15.0
    assert oracles.digits(1e-4) == pytest.approx(4.0)
    assert oracles.digits(float("inf")) == 0.0


# ---------------------------------------------------------------------------
# tracing


def _run_cli(argv, path):
    assert cli.main([*argv, "--output", str(path)]) == 0
    return path.read_bytes()


def test_tracing_leaves_output_bytes_unchanged(tmp_path):
    (tmp_path / "pair.json").write_text(json.dumps(workloads.matrix_pair_inputs(1)["pair"]))
    (tmp_path / "pot.json").write_text(json.dumps(workloads.zero_energy_inputs(1)))
    cases = [
        ["scan", "--n", "2", "--z", "3+1i", "--direction", "0.6,-0.8",
         "--distances", "0.1:10:200", "--format", "csv"],
        ["ssf", "--pair", str(tmp_path / "pair.json"), "--grid", "-6:6:12",
         "--method", "eqmain", "--m", "2", "--eps", "0.02,0.01"],
        ["threshold", "--n", "3", "--potential", str(tmp_path / "pot.json"),
         "--m", "3", "--R", "3", "--tol", "0.5"],
    ]

    def strip(blob):
        text = blob.decode()
        if text.startswith("{"):
            data = json.loads(text)
            data.pop("timestamp")
            return json.dumps(data, sort_keys=True)
        return text

    for i, argv in enumerate(cases):
        out = tmp_path / f"out{i}"
        plain = _run_cli(argv, out)
        tracer = spans.Tracer()
        with tracer:
            traced = _run_cli(argv, out)
        assert strip(traced) == strip(plain)
        assert any(s.name == "cli.main" for s in tracer.spans)


def binding_snapshot() -> dict:
    """(module name, attribute) -> bound object, over every binding the
    tracer may patch."""
    snap = {("mpmath", "workdps"): mpmath.workdps}
    for mod in spans.package_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                snap[(mod.__name__, attr)] = value
    for attr in np.linalg.__all__:
        snap[("numpy.linalg", attr)] = getattr(np.linalg, attr)
    return snap


def test_wrappers_are_gone_after_the_traced_run(tmp_path):
    before = binding_snapshot()
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            from diracshift import resolvalg

            assert spans.is_wrapper(cli.green0_many)
            assert spans.is_wrapper(resolvalg.polar_factorize)
            assert spans.is_wrapper(np.linalg.eigh)
            cli.main(["scan", "--n", "3", "--z", "1i", "--direction", "1,0,0",
                      "--distances", "0.5:1:3", "--output", str(tmp_path / "s.json")])
            raise RuntimeError("leave the block early")
    after = binding_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.spans and not spans.is_wrapper(np.linalg.eigh)


def test_every_binding_copy_is_wrapped():
    with spans.Tracer():
        from diracshift import discretize, green, resolvalg, ssf

        for fn in (cli.threshold_classify, cli.build_grid, cli.regdet, ssf.regdet,
                   resolvalg.assemble_bs_selfadjoint, discretize.polar_maps,
                   green.green0_many):
            assert spans.is_wrapper(fn), fn


def test_self_time_subtracts_child_spans():
    s = [
        spans.Span("cli.main", 0.0, 10.0),
        spans.Span("green.green0_many", 1.0, 5.0, parent=0, attrs={"kernels": 7}),
        spans.Span("specfun.hankel1", 2.0, 4.0, parent=1, attrs={"elements": 7}),
        spans.Span("numpy.linalg.eigh", 6.0, 9.0, parent=0),
    ]
    m = spans.layer_metrics(s, {"mpmath.workdps": 3}, pass_seconds=20.0)
    assert m["cli.main.self_s"] == 3.0
    assert m["green.green0_many.self_s"] == 2.0
    assert m["specfun.hankel1.s"] == 2.0
    assert m["specfun.hankel1.elements"] == 7
    assert m["specfun.mpmath_contexts"] == 3
    assert m["trace.coverage"] == 0.5
    names = {x.name for x in spans.PER_LAYER}
    assert set(m) | {"trace.overhead_s"} == names


@pytest.mark.parametrize(
    "name, idle",
    [("zero-energy", ("specfun.", "ssf.")),
     ("complex-kernel", ("ssf.", "potential.")),
     ("matrix-pair", ("specfun.", "potential."))],
)
def test_traced_pass_keeps_the_zero_predictions(references, name, idle):
    w, outcomes = references[name]
    with spans.Tracer() as tracer:
        p = run.run_pass(w)
    assert p["outcomes"] == outcomes
    m = spans.layer_metrics(tracer.spans, tracer.counts, p["total"])
    for prefix in idle:
        assert all(v == 0 for k, v in m.items() if k.startswith(prefix)), prefix
    busy = {"zero-energy": "resolvalg.eigh.s", "complex-kernel": "specfun.hankel1.s",
            "matrix-pair": "ssf.eigvals.s"}[name]
    assert m[busy] > 0
    assert 0.9 < m["trace.coverage"] <= 1.0


# ---------------------------------------------------------------------------
# the launcher


def test_gauged_pass_scales_each_operation_by_the_gauge_around_it(references):
    import gauge

    class Fake:
        reference = 1.0
        sensitivity = 1.0
        scale = gauge.Gauge.scale
        timings = iter([0.5, 1.5, 1.0, 3.0, 2.0])

        def __call__(self):
            return next(self.timings)

    w, outcomes = references["matrix-pair"]
    p = run.run_pass(w, Fake())
    assert p["outcomes"] == outcomes
    means = [1.0, 1.25, 2.0, 2.5]
    assert [p["scaled"][op.name] for op in w.ops] == pytest.approx(
        [p["seconds"][op.name] / m for op, m in zip(w.ops, means)])



def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spans.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_launcher_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zero-energy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
