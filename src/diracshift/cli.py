"""Command-line front end with reproducible, replayable JSON artifacts.

Each subcommand assembles a RunConfig, runs the matching pipeline, and
emits one artifact embedding {version, seed, config} beside the result.
Given the same config the artifact is byte-identical except for its
timestamp field, and files are written atomically (temp file + rename).

Grammar for parameters: complex numbers use ``a+bi`` with optional signs
("0+1i", "2i", "-1.5e-2i", "3"), vectors are comma-separated ("1,0,0"),
ranges are ``start:stop:count`` ("-5:5:200").  Exit codes: 0 success,
1 property violation (an audited identity failed its bar), 2 usage or
validation error with a JSON error object on stderr.  CSV output exists
for kernel scans only; everything else is canonical JSON.  A config file
(--config) supplies defaults for parameters not given on the command
line.  --pair and --potential accept what load_pair and load_potential
accept: a file path or JSON text.  Optional parameters left out keep the
library's defaults.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from ._checks import positive, read_spec
from .clifford import build_clifford, check_relations
from .discretize import build_grid
from .green import REGIME_SPLIT, green0, green0_limit0, green0_many
from .potential import load_potential
# regdet stays bound here for callers that take it from this module
from .regdet import product_residual, regdet  # noqa: F401
from .resolvalg import bs_residuals, threshold_classify, threshold_sweep
from .ssf import abel_transform, load_pair, ssf_boundary, witten_index

__all__ = [
    "RunConfig",
    "main",
    "parse_complex",
    "parse_range",
    "parse_vector",
    "run_det_audit",
    "run_green",
]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DET_AUDIT_BAR = 1e-9
BS_BAR = 1e-10

log = logging.getLogger("diracshift.cli")


class UsageError(ValueError):
    """Invalid parameters or inputs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# parameter grammar


def parse_complex(text) -> complex:
    """``a+bi`` literal with optional signs and scientific notation."""
    t = str(text).strip().replace(" ", "")
    if not t:
        raise UsageError("empty complex literal")
    try:
        return complex(t.replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse {text!r}: expected a+bi") from None


def parse_vector(text) -> np.ndarray:
    try:
        vals = [float(p) for p in str(text).split(",")]
    except ValueError:
        raise UsageError(f"cannot parse {text!r}: expected comma-separated reals") from None
    return np.asarray(vals, dtype=float)


def parse_range(text) -> np.ndarray:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise UsageError(f"cannot parse {text!r}: expected start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"cannot parse {text!r}: expected start:stop:count") from None
    if count < 2:
        raise UsageError("range count must be at least 2")
    return np.linspace(start, stop, count)


def _flag(key) -> str:
    return "--" + key.replace("_", "-")


def _required(params, key):
    value = params.get(key)
    if value is None:
        raise UsageError(f"missing required parameter: {_flag(key)}")
    return value


def _as_int(params, key, *, minimum=None, default=None):
    if default is not None and params.get(key) is None:
        return default
    value = _required(params, key)
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{_flag(key)} must be an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise UsageError(f"{_flag(key)} must be at least {minimum}")
    return out


def _as_float(params, key):
    value = _required(params, key)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"{_flag(key)} must be a real number, got {value!r}") from None


# ---------------------------------------------------------------------------
# configuration and artifacts


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: command, parameter map, seed, output."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise UsageError(f"unknown format {self.format!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise UsageError("seed must be a 64-bit unsigned integer")


def _pair_re_im(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_json(m) -> list:
    """A matrix (or a stack of them) as nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _artifact(config: RunConfig, result: dict) -> dict:
    return {
        "version": __version__,
        "seed": config.seed,
        "config": {
            "command": config.command,
            "params": config.params,
            "output": config.output,
            "format": config.format,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": result,
    }


def _write_atomic(text: str, path: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, artifact: dict, csv_text: str | None):
    if config.format == "csv":
        if csv_text is None:
            raise UsageError("csv format is available for kernel scans only")
        text = csv_text
    else:
        text = json.dumps(artifact, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if config.output:
        _write_atomic(text, config.output)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand pipelines


def run_clifford(config: RunConfig):
    rep = build_clifford(_as_int(config.params, "n", minimum=1))
    audit = check_relations(rep)
    result = {
        "n": rep.n,
        "N": rep.N,
        "generator_count": len(rep.alphas),
        "max_anticommutator_defect": audit["anticommutation_residual"],
        "max_hermiticity_defect": audit["hermiticity_residual"],
        "generators": _matrix_json(rep.alphas),
    }
    return result, EXIT_OK, None


def run_green(config: RunConfig):
    params = config.params
    n = _as_int(params, "n", minimum=1)
    z = parse_complex(_required(params, "z"))
    x = parse_vector(_required(params, "x"))
    y = parse_vector(_required(params, "y"))
    rep = build_clifford(n)
    if x.shape != (n,) or y.shape != (n,):
        raise UsageError(f"--x and --y must have {n} components")
    if z == 0:
        kernel = green0_limit0(rep, x, y)
        regime = "zero-limit"
    else:
        kernel = green0(rep, z, x, y)
        s = float(np.linalg.norm(x - y))
        regime = "series" if abs(z) * s <= REGIME_SPLIT else "asymptotic"
    result = {
        "n": n,
        "N": rep.N,
        "z": _pair_re_im(z),
        "x": list(x),
        "y": list(y),
        "regime": regime,
        "matrix": _matrix_json(kernel),
    }
    return result, EXIT_OK, None


def run_scan(config: RunConfig):
    params = config.params
    n = _as_int(params, "n", minimum=1)
    z = parse_complex(_required(params, "z"))
    direction = parse_vector(_required(params, "direction"))
    distances = parse_range(_required(params, "distances"))
    rep = build_clifford(n)
    if direction.shape != (n,):
        raise UsageError(f"--direction must have {n} components")
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise UsageError("--direction must be nonzero")
    for s in distances:
        positive(s, "--distances separation")
    diffs = distances[:, None] * (direction / norm)[None, :]
    kernels = green0_many(rep, z, diffs)
    result = {
        "n": n,
        "N": rep.N,
        "z": _pair_re_im(z),
        "direction": list(direction / norm),
        "distances": list(distances),
        "kernels": _matrix_json(kernels),
    }
    if config.format != "csv":
        return result, EXIT_OK, None

    header = ["s"]
    for a in range(rep.N):
        for b in range(rep.N):
            header += [f"re_{a}{b}", f"im_{a}{b}"]
    lines = [
        f"# version: {__version__}",
        f"# seed: {config.seed}",
        "# config: " + json.dumps(config.params, sort_keys=True),
        ",".join(header),
    ]
    for s, k in zip(distances, kernels):
        row = [repr(float(s))]
        for v in k.reshape(-1):
            row += [repr(float(v.real)), repr(float(v.imag))]
        lines.append(",".join(row))
    return result, EXIT_OK, "\n".join(lines) + "\n"


def _contraction(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m /= np.sqrt(2.0 * dim)
    radius = np.abs(np.linalg.eigvals(m)).max()
    if radius > 0.9:
        m *= 0.9 / radius
    return m


def run_det_audit(config: RunConfig):
    """Audit the product identity for regularized determinants on random
    contraction pairs; exit 1 when the worst relative defect tops 1e-9."""
    params = config.params
    k = _as_int(params, "k")
    if not 1 <= k <= 4:
        raise UsageError(f"unsupported k: {k} (the audit covers k in 1..4)")
    dim = _as_int(params, "dim", minimum=1, default=6)
    trials = _as_int(params, "trials", minimum=1, default=100)
    rng = np.random.default_rng(config.seed)
    residuals = np.empty(trials)
    for t in range(trials):
        residuals[t] = product_residual(k, _contraction(rng, dim), _contraction(rng, dim))
    worst = float(residuals.max())
    result = {
        "k": k,
        "dim": dim,
        "trials": trials,
        "seed": config.seed,
        "max_residual": worst,
        "mean_residual": float(residuals.mean()),
    }
    return result, EXIT_OK if worst <= DET_AUDIT_BAR else EXIT_VIOLATION, None


def run_ssf(config: RunConfig):
    params = config.params
    pair = load_pair(_required(params, "pair"))
    grid = parse_range(_required(params, "grid"))
    method = str(_required(params, "method"))
    translation = {"counting": "counting", "krein": "krein", "eqmain": "eq_main"}
    if method not in translation:
        raise UsageError(f"unknown method {method!r}: use counting, krein, or eqmain")
    options = {}
    if "m" in params:
        options["m"] = _as_int(params, "m", minimum=1)
    if "eps" in params:
        options["eps_schedule"] = parse_vector(params["eps"])
    table = ssf_boundary(pair, grid, method=translation[method], **options)
    result = {
        "lambda": list(table.lambdas),
        "xi": [None if np.isnan(v) else float(v) for v in table.xi],
        "method": table.method,
        "eps": list(table.eps_schedule),
        "flags": [bool(f) for f in table.flags],
    }
    return result, EXIT_OK, None


_XI_PROFILES = {
    "step": lambda t: 1.0 if t > 0 else 0.0,
    "window": lambda t: 1.0 if abs(t) <= 1.0 else 0.0,
    "const": lambda t: 1.0,
}


def run_abel(config: RunConfig):
    params = config.params
    name = str(_required(params, "xi"))
    if name not in _XI_PROFILES:
        raise UsageError(f"unknown xi profile {name!r}: use step, window, or const")
    lam = _as_float(params, "lambda")
    value = abel_transform(_XI_PROFILES[name], lam)
    return {"xi": name, "lambda": lam, "value": value}, EXIT_OK, None


def run_witten(config: RunConfig):
    params = config.params
    rows = _as_int(params, "rows", minimum=1)
    cols = _as_int(params, "cols", minimum=1)
    options = {}
    if "k" in params:
        options["k"] = _as_int(params, "k", minimum=1)
    if "schedule" in params:
        options["lambda_schedule"] = parse_vector(params["schedule"])
    rng = np.random.default_rng(config.seed)
    out = witten_index(rng.standard_normal((rows, cols)), **options)
    result = {
        "rows": rows,
        "cols": cols,
        "k": out.k,
        "lambda_schedule": list(out.lambda_schedule),
        "scaled_traces": list(out.scaled_traces),
        "extrapolated": float(out.extrapolated),
    }
    return result, EXIT_OK, None


def run_bs(config: RunConfig):
    params = config.params
    pair = load_pair(_required(params, "pair"))
    z = parse_complex(_required(params, "z"))
    residuals = bs_residuals(pair, z)
    worst = max(residuals.values())
    result = {"z": _pair_re_im(z), "max_residual": worst, **residuals}
    return result, EXIT_OK if worst <= BS_BAR else EXIT_VIOLATION, None


def run_threshold(config: RunConfig):
    params = config.params
    n = _as_int(params, "n", minimum=2)
    potential = load_potential(_required(params, "potential"))
    m = _as_int(params, "m", minimum=1)
    radius = _as_float(params, "R")
    options = {"tol": _as_float(params, "tol")} if "tol" in params else {}
    sweep = None
    if "sweep" in params:
        sweep = [positive(a, "--sweep amplitude") for a in parse_range(params["sweep"])]
    rep = build_clifford(n)
    grid = build_grid(n, radius, m)
    report = threshold_classify(
        rep, grid, potential,
        check_refinement=bool(params.get("check_refinement")), **options,
    )
    result = {
        "classification": report.classification,
        "tol": report.tol,
        "near": [float(v) for v in report.near],
        "min_abs_eigenvalue": float(np.abs(report.eigenvalues).min()),
        "eigenvalue_count": int(report.eigenvalues.size),
        "hermiticity_defect": report.hermiticity_defect,
        "refinement_stable": report.refinement_stable,
    }
    if sweep is not None:
        result["sweep"] = threshold_sweep(rep, grid, potential, sweep, **options)
    return result, EXIT_OK, None


class _Command(NamedTuple):
    pipeline: Callable
    help: str
    params: tuple


# every subcommand: its pipeline, its help line and its parameters; a
# parameter "foo_bar" is the flag --foo-bar, and those in _SWITCHES take
# no value
_COMMANDS = {
    "clifford": _Command(run_clifford, "generator batch with defect audit", ("n",)),
    "green": _Command(run_green, "one Green kernel matrix", ("n", "z", "x", "y")),
    "scan": _Command(
        run_scan, "kernel scan along a ray", ("n", "z", "direction", "distances")
    ),
    "bs": _Command(run_bs, "Birman-Schwinger identity residuals", ("pair", "z")),
    "det-audit": _Command(
        run_det_audit, "determinant product-identity audit", ("k", "dim", "trials")
    ),
    "ssf": _Command(
        run_ssf, "spectral shift table for a matrix pair",
        ("pair", "grid", "method", "m", "eps"),
    ),
    "abel": _Command(run_abel, "arcsine average of a named profile", ("xi", "lambda")),
    "witten": _Command(
        run_witten, "index of a random rectangular matrix",
        ("rows", "cols", "k", "schedule"),
    ),
    "threshold": _Command(
        run_threshold, "zero-energy classification",
        ("n", "potential", "m", "R", "tol", "sweep", "check_refinement"),
    ),
}

_SWITCHES = {"check_refinement"}

# flags whose values may start with "-" (ranges, complex numbers,
# schedules); they are folded into --flag=value before argparse sees them
_VALUE_FLAGS = {
    _flag(key) for c in _COMMANDS.values() for key in c.params if key not in _SWITCHES
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        if "required" in message:
            payload = {"error": "missing required parameter", "detail": message}
        else:
            payload = {"error": message}
        print(json.dumps(payload), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", default=None, help="64-bit RNG seed")
    common.add_argument("--output", default=None, help="artifact path (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--config", default=None, help="JSON file with default parameters")

    parser = _Parser(prog="diracshift", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for key in command.params:
            if key in _SWITCHES:
                p.add_argument(_flag(key), dest=key, action="store_true")
            else:
                p.add_argument(_flag(key), dest=key, default=None)
    return parser


def _fold_signed_values(argv):
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def config_from_args(argv=None) -> RunConfig:
    argv = sys.argv[1:] if argv is None else argv
    ns = vars(build_parser().parse_args(_fold_signed_values(argv)))

    if ns["config"]:
        for key, value in read_spec(ns["config"], "config", ()).items():
            if key not in ns:
                raise UsageError(f"config file: unknown parameter at /{key}")
            if ns[key] is None or ns[key] is False:
                ns[key] = value

    command = ns["command"]
    params = {}
    for key in _COMMANDS[command].params:
        if ns[key] is not None and ns[key] is not False:
            params[key] = ns[key]

    return RunConfig(
        command=command,
        params=params,
        seed=_as_int(ns, "seed", default=0),
        output=ns["output"],
        format=ns["format"] or "json",
    )


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
        log.info("run config: %s", json.dumps(config.params, sort_keys=True))
        result, code, csv_text = _COMMANDS[config.command].pipeline(config)
        _emit(config, _artifact(config, result), csv_text)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ValueError, FloatingPointError, RuntimeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
