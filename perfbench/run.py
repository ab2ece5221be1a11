"""Benchmark launcher: one workload, one seed, one run.

    python3 perfbench/run.py --workload zero-energy --seed 1 --seconds 20 --trace 0

Run from a checkout root that holds ``src/diracshift``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics from a traced run.
Earlier lines record the environment and a readable summary.
"""

from __future__ import annotations

import os
import sys

# Cap the BLAS pools before numpy loads; the scan worker pool stays at its
# serial default whatever the caller's environment says.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("DIRACSHIFT_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from gauge import Gauge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
SETUP_TIMEOUT = 60
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import diracshift.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op1_s": "s",
    "op2_s": "s",
    "op3_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "accurate_digits": "digits",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' to run each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
    }


def setup_seconds(gauge) -> float:
    """Median over fresh interpreters of the time to import diracshift.cli,
    each scaled by the gauge timed around it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = gauge()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT)
        after = gauge()
        samples.append(gauge.scale(float(out.stdout.strip().splitlines()[-1]), before, after))
        before = after
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# passes


def run_pass(workload, gauge=None) -> dict:
    """Run every operation once; return per-op seconds, outcomes and errors.
    With a gauge, time it before the first operation and after each, and
    add each operation's seconds at the reference speed as ``scaled``."""
    seconds, outcomes, errors = {}, {}, {}
    raw, scaled = {}, {}
    before = gauge() if gauge is not None else None
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            raw[op.name] = op.call()
        except Exception:  # a failing operation is counted, the run goes on
            errors[op.name] = traceback.format_exc(limit=3)
        seconds[op.name] = time.perf_counter() - t0
        if gauge is not None:
            after = gauge()
            scaled[op.name] = gauge.scale(seconds[op.name], before, after)
            before = after
    for op in workload.ops:
        if op.name in raw:
            try:
                outcomes[op.name] = op.read(raw[op.name])
            except (OSError, ValueError, KeyError) as exc:
                errors[op.name] = repr(exc)
    return {"seconds": seconds, "scaled": scaled, "outcomes": outcomes,
            "errors": errors, "total": sum(seconds.values())}


class Tally:
    """Operations attempted and failed, against the reference pass."""

    def __init__(self, workload, reference, oracle_failures):
        self.workload = workload
        self.reference = reference
        self.oracle_failures = oracle_failures
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def add(self, outcomes: dict, errors: dict):
        for op in self.workload.ops:
            self.attempted += 1
            name = op.name
            reason = None
            if name in errors:
                reason = "raised: " + errors[name].strip().splitlines()[-1]
            elif name in self.oracle_failures:
                reason = "; ".join(self.oracle_failures[name])
            elif outcomes[name] != self.reference["outcomes"][name]:
                reason = "result differs from the first pass"
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(name, reason)


def check_reference(workload, reference) -> tuple:
    import oracles

    if reference["errors"]:
        return {op.name: ["first pass raised"] for op in workload.ops}, 0.0
    try:
        failures, worst = workload.check(reference["outcomes"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return {op.name: [f"malformed output: {exc!r}"] for op in workload.ops}, 0.0
    return failures, oracles.digits(worst)


def measure(workload, seconds: float, tally, tracer=None, gauge=None):
    """Repeat passes for ``seconds``; with a tracer, alternate untraced and
    traced passes.  The gauge runs in untraced passes only, outside the
    tracer's spans and counts.  Each pass is tallied at once and its
    outcomes dropped, so memory does not grow with the pass count.  Returns
    (untraced passes, traced passes)."""
    plain, traced = [], []
    spent = 0.0
    while spent < seconds or len(plain) < 2 or (tracer is not None and not traced):
        p = run_pass(workload, gauge)
        tally.add(p.pop("outcomes"), p["errors"])
        plain.append(p)
        spent += p["total"]
        if tracer is not None:
            with tracer:
                tracer.reset()
                p = run_pass(workload)
            tally.add(p.pop("outcomes"), p["errors"])
            p["spans"], p["counts"] = tracer.spans, tracer.counts
            traced.append(p)
            spent += p["total"]
    return plain, traced


def seconds_of(passes, key=None, field="seconds") -> list:
    """Per-pass seconds of one operation, or of the whole pass without a key."""
    if key is None:
        return [sum(p[field].values()) for p in passes]
    return [p[field][key] for p in passes]


# ---------------------------------------------------------------------------
# reports


def end_to_end(workload, passes, tally, setup, digits, peak_mb) -> dict:
    values = {
        "setup_s": setup,
        "pass_s": statistics.median(seconds_of(passes, field="scaled")),
        "peak_rss_mb": peak_mb,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "accurate_digits": digits,
    }
    for op in workload.ops:
        if op.slot is not None:
            values[op.slot] = statistics.median(seconds_of(passes, op.name, "scaled"))
    return {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}


def per_layer(plain, traced) -> dict:
    from spans import PER_LAYER, layer_metrics

    samples = [layer_metrics(p["spans"], p["counts"], p["total"]) for p in traced]
    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    values["trace.overhead_s"] = (statistics.median(seconds_of(traced))
                                  - statistics.median(seconds_of(plain)))
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}


def summary(workload, metrics, passes, tally) -> list:
    from spans import PER_LAYER

    lines = [f"workload {workload.name}: {len(passes)} passes, "
             f"{tally.attempted} operations, {tally.failed} failed"]
    for key in [None] + [op.name for op in workload.ops]:
        times = seconds_of(passes, key)
        scaled = seconds_of(passes, key, "scaled")
        lines.append(f"  {key or 'pass'}: median {statistics.median(times):.4f} s measured, "
                     f"{statistics.median(scaled):.4f} s scaled; per pass, measured/scaled: "
                     + " ".join(f"{t:.3f}/{u:.3f}" for t, u in zip(times, scaled)))
    for name, reason in tally.reasons.items():
        lines.append(f"  FAILED {name}: {reason}")
    moves = {m.name: m.moves for m in PER_LAYER}
    for name, m in metrics.items():
        label = name
        if name in workload.pipelines:
            label = f"{name} ({workload.pipelines[name]})"
        note = f"  -> {moves[name]}" if name in moves else ""
        lines.append(f"  {label:44s} {m['value']!r} {m['unit']}{note}")
    return lines


def run_all(names, args) -> int:
    """Run every workload in a fresh process, relay its report, and end with
    one JSON line whose metrics are keyed workload/metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(out.stdout + out.stderr, file=sys.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diracshift" / "__init__.py").is_file():
        print(f"error: no diracshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import diracshift.cli  # noqa: F401 - compiles and loads the package once

    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2

    # One CPU for the run and the interpreters it starts, so that the gauge
    # and the work it scales always share a vCPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        print("env " + json.dumps(environment(), sort_keys=True), flush=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        gauge = Gauge(workload.gauge, workload.gauge_sensitivity)
        setup = setup_seconds(gauge) if args.trace == 0 else None
        reference = run_pass(workload)  # warm-up, and the outcome every pass must repeat
        oracle_failures, digits = check_reference(workload, reference)
        tally = Tally(workload, reference, oracle_failures)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        plain, traced = measure(workload, args.seconds, tally, tracer, gauge)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            metrics = per_layer(plain, traced)
        else:
            metrics = end_to_end(workload, plain, tally, setup, digits, peak_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for line in summary(workload, metrics, plain, tally):
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
