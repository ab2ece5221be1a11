"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the correctness checks against the independent oracles.

Every operation drives the program the way a user would: CLI operations
call ``diracshift.cli.main(argv)`` in-process with input files written as
JSON, the library operation calls the public functions.  Functions are
looked up on their modules at call time, so a tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# the kernel oracle's bar; the seed's in-house Hankel dispatch reaches ~2.5e-9
KERNEL_RTOL = 1e-7
# eigenvalue error relative to the threshold matrix norm
THRESHOLD_RTOL = 1e-9
# the package refuses threshold matrices whose Hermiticity defect tops this
HERMITICITY_BAR = 1e-8
DET_AUDIT_BAR = 1e-9


@dataclass
class Op:
    """One timed operation.  ``call`` is the timed work; ``read`` turns its
    return value into a comparable outcome after the clock stops."""

    name: str
    slot: str | None
    call: Callable[[], object]
    read: Callable[[object], dict]


@dataclass
class Workload:
    name: str
    ops: list
    # reference outcomes -> (op name -> list of failed checks, worst error)
    check: Callable[[dict], tuple]
    pipelines: dict = field(default_factory=dict)  # slot -> pipeline metric name
    # the parts of the host-speed gauge (gauge.py) that scale this workload's
    # times, and how strongly its operations follow the gauge.  The mpmath
    # part tracks interpreter-bound work (Hankel dispatch, per-point SSF
    # loops), which slows with the host more than LAPACK does.
    gauge: tuple = ("mp",) * 4
    gauge_sensitivity: float = 1.0


def _cli():
    import diracshift.cli

    return diracshift.cli


def cli_op(name, slot, argv, output: Path) -> Op:
    def call():
        return _cli().main(list(argv))

    def read(code):
        out = {"code": code, "result": None}
        if code == 0:
            out["result"] = json.loads(output.read_text(encoding="utf-8"))["result"]
        return out

    return Op(name, slot, call, read)


def _write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    return path


def _num(x: float) -> str:
    return repr(float(x))


def _fail(failures, op, message):
    failures.setdefault(op, []).append(message)


def _exit_ok(failures, outcomes, *names):
    ok = True
    for name in names:
        if outcomes[name]["code"] != 0:
            _fail(failures, name, f"exit code {outcomes[name]['code']}")
            ok = False
    return ok


# ---------------------------------------------------------------------------
# zero-energy: threshold classification at z = 0

ZE_R = 3.0
ZE_M_SINGLE = 6
ZE_M_SWEEP = 5
ZE_SWEEP = (0.5, 2.0, 4)  # start, stop, count of amplitude factors
ZE_DEFAULT_TOL = 1e-3


def zero_energy_inputs(seed: int) -> dict:
    """A 4x4 real symmetric coupling with two positive and two negative
    eigenvalues, in a width-1 amplitude-3 Gaussian on R^3."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    mu = np.array([1.0, 1.0, -1.0, -1.0]) * rng.uniform(0.5, 1.0, 4)
    coupling = (q * mu) @ q.T
    coupling = (coupling + coupling.T) / 2
    return {
        "family": "gaussian",
        "n": 3,
        "params": {"width": 1.0, "amplitude": 3.0, "matrix": coupling.tolist()},
    }


def exceptional_tol(eigs: np.ndarray) -> tuple:
    """A tolerance that keeps the k smallest |eigenvalues| (k in 1..4, the
    widest relative gap), halfway in log scale; returns (tol, k)."""
    a = np.sort(np.abs(eigs))[:5]
    k = int(np.argmax(a[1:] / a[:-1])) + 1
    return float(math.sqrt(a[k - 1] * a[k])), k


def zero_energy(seed: int, work: Path) -> Workload:
    spec = zero_energy_inputs(seed)
    pot = _write_json(work / "potential.json", spec)
    parts_single = oracles.threshold_parts(spec, ZE_M_SINGLE, ZE_R)
    parts_sweep = oracles.threshold_parts(spec, ZE_M_SWEEP, ZE_R)
    tol, kept = exceptional_tol(oracles.eigenvalues(*parts_sweep))
    base = ["threshold", "--n", "3", "--potential", str(pot), "--R", _num(ZE_R)]
    sweep = ":".join(str(v) for v in ZE_SWEEP)
    ops = [
        cli_op("threshold", "op1_s",
               base + ["--m", str(ZE_M_SINGLE), "--output", str(work / "threshold.json")],
               work / "threshold.json"),
        cli_op("sweep", "op2_s",
               base + ["--m", str(ZE_M_SWEEP), "--sweep", sweep,
                       "--output", str(work / "sweep.json")],
               work / "sweep.json"),
        cli_op("exceptional", "op3_s",
               base + ["--m", str(ZE_M_SWEEP), "--tol", _num(tol),
                       "--output", str(work / "exceptional.json")],
               work / "exceptional.json"),
    ]

    def check(outcomes):
        failures, worst = {}, 0.0
        if not _exit_ok(failures, outcomes, "threshold", "sweep", "exceptional"):
            return failures, math.inf

        def classify(name, result, parts, factor, tol_used):
            nonlocal worst
            eigs = oracles.eigenvalues(*parts, factor)
            norm = max(1.0, float(np.abs(eigs).max()))
            err = abs(result["min_abs_eigenvalue"] - float(np.abs(eigs).min())) / norm
            worst = max(worst, err)
            if err > THRESHOLD_RTOL:
                _fail(failures, name, f"min |eig| off the oracle by {err:.2e}")
            want = "exceptional" if np.abs(eigs).min() < tol_used else "regular"
            if result["classification"] != want:
                _fail(failures, name, f"label {result['classification']}, oracle says {want}")
            return eigs, norm

        for name, parts in (("threshold", parts_single), ("sweep", parts_sweep)):
            r = outcomes[name]["result"]
            rows = parts[0].shape[0]
            if r["eigenvalue_count"] != rows:
                _fail(failures, name, f"{r['eigenvalue_count']} eigenvalues for {rows} rows")
            if r["hermiticity_defect"] > HERMITICITY_BAR * max(1.0, np.abs(parts[1]).max()):
                _fail(failures, name, f"Hermiticity defect {r['hermiticity_defect']:.2e}")
            classify(name, r, parts, 1.0, ZE_DEFAULT_TOL)
        amps = np.linspace(ZE_SWEEP[0], ZE_SWEEP[1], ZE_SWEEP[2])
        entries = outcomes["sweep"]["result"].get("sweep", [])
        if [e["amplitude"] for e in entries] != amps.tolist():
            _fail(failures, "sweep", "sweep amplitudes differ from the request")
        else:
            for e, amp in zip(entries, amps):
                classify("sweep", e, parts_sweep, float(amp), ZE_DEFAULT_TOL)

        r = outcomes["exceptional"]["result"]
        eigs, norm = classify("exceptional", r, parts_sweep, 1.0, tol)
        near = np.sort(eigs[np.abs(eigs) < tol])
        got = np.sort(np.asarray(r["near"], dtype=float))
        if got.shape != near.shape or near.size != kept:
            _fail(failures, "exceptional", f"kept {got.size} vectors, oracle {near.size}")
        else:
            err = float(np.abs(got - near).max()) / norm
            worst = max(worst, err)
            if err > THRESHOLD_RTOL:
                _fail(failures, "exceptional", f"near eigenvalues off by {err:.2e}")
        return failures, worst

    # the large dense eigh slows with the host less than even the mixed
    # gauge does; at full sensitivity the gauge overcorrected
    return Workload("zero-energy", ops, check,
                    {"op1_s": "threshold_s", "op2_s": "sweep_s", "op3_s": "exceptional_s"},
                    gauge=("py", "mp", "eigh", "bat"), gauge_sensitivity=0.8)


# ---------------------------------------------------------------------------
# complex-kernel: Hankel-heavy kernels at z = 3+1i

CK_Z = 3 + 1j
CK_DISTANCES = (0.1, 10.0, 500)
CK_RESOLVENT = {"n": 2, "m": 7, "R": 2.0}


def complex_kernel_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    d2 = rng.standard_normal(2)
    d3 = rng.standard_normal(3)
    return {
        "direction2": (d2 / np.linalg.norm(d2)).tolist(),
        "direction3": (d3 / np.linalg.norm(d3)).tolist(),
        "delta": float(rng.uniform(0.75, 1.25)),
    }


def _resolvent_hs(delta: float) -> float:
    from diracshift import clifford, discretize

    c = CK_RESOLVENT
    rep = clifford.build_clifford(c["n"])
    grid = discretize.build_grid(c["n"], c["R"], c["m"])
    op = discretize.assemble_weighted_resolvent(rep, grid, CK_Z, delta)
    return discretize.schatten_norm(op, 2)


def complex_kernel(seed: int, work: Path) -> Workload:
    inp = complex_kernel_inputs(seed)
    z = f"{CK_Z.real:g}+{CK_Z.imag:g}i"
    distances = ":".join(str(v) for v in CK_DISTANCES)
    delta = inp["delta"]

    def scan(name, slot, n, direction):
        out = work / f"{name}.json"
        argv = ["scan", "--n", str(n), "--z", z,
                "--direction", ",".join(_num(v) for v in direction),
                "--distances", distances, "--output", str(out)]
        return cli_op(name, slot, argv, out)

    ops = [
        scan("scan_even", "op1_s", 2, inp["direction2"]),
        scan("scan_odd", "op2_s", 3, inp["direction3"]),
        Op("resolvent", "op3_s", lambda: _resolvent_hs(delta),
           lambda v: {"code": 0, "result": float(v)}),
    ]
    want_distances = np.linspace(*CK_DISTANCES[:2], CK_DISTANCES[2]).tolist()
    sample = oracles.scan_sample(CK_DISTANCES[2])

    def check(outcomes):
        failures, worst = {}, 0.0
        if not _exit_ok(failures, outcomes, "scan_even", "scan_odd"):
            return failures, math.inf
        for name, n, direction in (("scan_even", 2, inp["direction2"]),
                                   ("scan_odd", 3, inp["direction3"])):
            r = outcomes[name]["result"]
            if r["distances"] != want_distances or len(r["kernels"]) != len(want_distances):
                _fail(failures, name, "distances differ from the request")
                continue
            if np.abs(np.asarray(r["direction"]) - direction).max() > 1e-15:
                _fail(failures, name, "direction differs from the request")
            err = oracles.scan_error(r, n, CK_Z, sample)
            worst = max(worst, err)
            if err > KERNEL_RTOL:
                _fail(failures, name, f"kernel off the mpmath oracle by {err:.2e}")
        c = CK_RESOLVENT
        want = oracles.weighted_resolvent_hs_norm(c["n"], c["R"], c["m"], CK_Z, delta)
        err = abs(outcomes["resolvent"]["result"] - want) / want
        worst = max(worst, err)
        if err > KERNEL_RTOL:
            _fail(failures, "resolvent", f"Schatten-2 norm off the oracle by {err:.2e}")
        return failures, worst

    return Workload("complex-kernel", ops, check,
                    {"op1_s": "scan_even_s", "op2_s": "scan_odd_s", "op3_s": "resolvent_s"})


# ---------------------------------------------------------------------------
# matrix-pair: spectral shift routes and the determinant audit

MP_DIM = 8
MP_GRID = (-6.0, 6.0, 40)
MP_ORDER = 2
MP_AUDIT = {"k": 4, "dim": 40, "trials": 60}
# grid points this far from the joint spectrum must carry a value
MP_UNFLAGGED = 0.1


def matrix_pair_inputs(seed: int) -> dict:
    """A Hermitian S0 with jittered equispaced spectrum in [-4, 4] and a
    GUE perturbation of norm about 1.2 (V scaled by 0.6)."""
    rng = np.random.default_rng(seed)
    d = MP_DIM
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    eig0 = np.linspace(-4.0, 4.0, d) + rng.uniform(-0.2, 0.2, d)
    s0 = (q * eig0) @ q.conj().T
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    v = 0.6 * (a + a.conj().T) / (2.0 * math.sqrt(d))
    s0 = (s0 + s0.conj().T) / 2
    return {
        "pair": {
            "s0": {"re": s0.real.tolist(), "im": s0.imag.tolist()},
            "v": {"re": v.real.tolist(), "im": v.imag.tolist()},
        },
        "audit_seed": int(rng.integers(2**63)),
    }


def matrix_pair(seed: int, work: Path) -> Workload:
    inp = matrix_pair_inputs(seed)
    pair_path = _write_json(work / "pair.json", inp["pair"])
    p = inp["pair"]
    s0 = np.asarray(p["s0"]["re"]) + 1j * np.asarray(p["s0"]["im"])
    v = np.asarray(p["v"]["re"]) + 1j * np.asarray(p["v"]["im"])
    grid = ":".join(str(x) for x in MP_GRID)

    def ssf(name, slot, method, *extra):
        out = work / f"{name}.json"
        argv = ["ssf", "--pair", str(pair_path), "--grid", grid, "--method", method,
                *extra, "--output", str(out)]
        return cli_op(name, slot, argv, out)

    audit_out = work / "det_audit.json"
    a = MP_AUDIT
    ops = [
        ssf("ssf_krein", "op1_s", "krein"),
        ssf("ssf_eqmain", "op2_s", "eqmain", "--m", str(MP_ORDER)),
        ssf("ssf_counting", None, "counting"),
        cli_op("det_audit", "op3_s",
               ["det-audit", "--k", str(a["k"]), "--dim", str(a["dim"]),
                "--trials", str(a["trials"]), "--seed", str(inp["audit_seed"]),
                "--output", str(audit_out)],
               audit_out),
    ]
    lambdas = np.linspace(*MP_GRID[:2], MP_GRID[2])
    counts = oracles.count_shift(s0, v, lambdas)
    far = oracles.spectrum_distance(s0, v, lambdas) > MP_UNFLAGGED

    def check(outcomes):
        failures, worst = {}, 0.0
        names = ("ssf_krein", "ssf_eqmain", "ssf_counting", "det_audit")
        if not _exit_ok(failures, outcomes, *names):
            return failures, math.inf
        for name in names[:3]:
            r = outcomes[name]["result"]
            if r["lambda"] != lambdas.tolist():
                _fail(failures, name, "grid differs from the request")
                continue
            xi = r["xi"]
            for lam_ok, value, want in zip(far, xi, counts):
                if value is None:
                    if lam_ok:
                        _fail(failures, name, "withheld a point far from the spectrum")
                    continue
                err = abs(value - float(want))
                if name != "ssf_counting":
                    worst = max(worst, err)
                if round(value) != want or (name == "ssf_counting" and err != 0.0):
                    _fail(failures, name, f"xi {value} where the count is {want}")
        r = outcomes["det_audit"]["result"]
        if r["trials"] != a["trials"] or not r["max_residual"] <= DET_AUDIT_BAR:
            _fail(failures, "det_audit", f"product residual {r['max_residual']:.2e}")
        return failures, worst

    return Workload("matrix-pair", ops, check,
                    {"op1_s": "ssf_krein_s", "op2_s": "ssf_eqmain_s", "op3_s": "det_audit_s"})


WORKLOADS = {
    "zero-energy": zero_energy,
    "complex-kernel": complex_kernel,
    "matrix-pair": matrix_pair,
}
