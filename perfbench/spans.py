"""In-memory span tracing around the diracshift layers, and the per-layer
metrics derived from the spans.

A Tracer wraps every public function of each layer module at every module
of the package that binds it (``cli`` and ``resolvalg`` hold
``from .x import y`` copies, so patching the defining module alone would
miss their calls), plus the ``numpy.linalg`` entry points and
``mpmath.workdps``.  Each call records a span (name, start, end, parent,
attributes); ``uninstall`` puts every original binding back.  The driver is
single-threaded, so one stack gives each span its parent.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass, field

import mpmath
import numpy as np
import numpy.linalg

PACKAGE = "diracshift"

# layer modules whose public functions are wrapped; clifford is negligible
LAYERS = ("specfun", "green", "discretize", "potential", "resolvalg", "ssf", "regdet", "cli")

ASSEMBLERS = (
    "discretize.assemble_bs",
    "discretize.assemble_bs_selfadjoint",
    "discretize.assemble_weighted_resolvent",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


# ---------------------------------------------------------------------------
# attributes recorded at the boundary


def _argument(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _array_attrs(args, kwargs, result):
    a = args[0] if args else None
    if not isinstance(a, np.ndarray):
        return {}
    return {
        "rows": int(a.shape[-1]) if a.ndim >= 2 else 0,
        "batch": int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1,
        "nbytes": int(a.nbytes),
    }


def _cli_main_attrs(args, kwargs, result):
    argv = list(_argument(args, kwargs, 0, "argv") or ())
    for flag, value in zip(argv, argv[1:]):
        if flag == "--output" and os.path.exists(value):
            return {"artifact_bytes": os.path.getsize(value)}
    return {}


def _operator_rows(args, kwargs, result):
    return {"rows": int(result.matrix.shape[0])}


_ANNOTATORS = {
    **{name: _operator_rows for name in ASSEMBLERS},
    "specfun.hankel1": lambda a, k, r: {"elements": int(np.size(_argument(a, k, 1, "zeta")))},
    "green.green0_many": lambda a, k, r: {"kernels": int(r.shape[0])},
    "resolvalg.threshold_classify": lambda a, k, r: {"kept": int(r.phi0.shape[1])},
    "ssf.ssf_boundary": lambda a, k, r: {
        "knot_evaluations": int(r.lambdas.size) * len(r.eps_schedule)
    },
    "cli.main": _cli_main_attrs,
}


# ---------------------------------------------------------------------------
# the tracer


def package_modules():
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def layer_functions() -> dict:
    """Original function object -> span name, for every public function of
    every layer module."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = f"{layer}.{name}"
    return out


def is_wrapper(fn) -> bool:
    return hasattr(fn, "span_name")


class Tracer:
    """Collects spans and counts while installed; restores bindings on
    uninstall.  Use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, fn, name, annotate=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, clock(), parent=parent)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = clock()
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.span_name = name
        return wrapper

    def count_calls(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.span_name = name
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {
            fn: self.wrap(fn, name, _ANNOTATORS.get(name))
            for fn, name in layer_functions().items()
        }
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for attr in numpy.linalg.__all__:
            fn = getattr(numpy.linalg, attr)
            if callable(fn) and not inspect.isclass(fn):
                self._patch(numpy.linalg, attr, self.wrap(fn, f"numpy.linalg.{attr}", _array_attrs))
        self._patch(mpmath, "workdps", self.count_calls(mpmath.workdps, "mpmath.workdps"))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str


def _m(name, unit, better, moves):
    return LayerMetric(name, unit, better, moves)


_SCAN = "op1_s (scan_even_s) and op3_s (resolvent_s) on complex-kernel"
_ZERO = "op1_s (threshold_s) and op2_s (sweep_s) on zero-energy"
_SSF = "op1_s (ssf_krein_s), op2_s (ssf_eqmain_s) and peak_rss_mb on matrix-pair"

# every per-layer metric, with the end-to-end metric it should move
PER_LAYER = (
    _m("specfun.hankel1.calls", "count", "lower", _SCAN),
    _m("specfun.hankel1.elements", "count", "lower", _SCAN),
    _m("specfun.hankel1.s", "s", "lower", _SCAN),
    _m("specfun.mpmath_contexts", "count", "lower", _SCAN),
    _m("green.green0_many.calls", "count", "lower",
       "op1_s/op2_s (scan_*_s) on complex-kernel; op1_s (threshold_s) on zero-energy"),
    _m("green.green0_many.kernels", "count", "lower",
       "op1_s/op2_s (scan_*_s) on complex-kernel; op1_s (threshold_s) on zero-energy"),
    _m("green.green0_many.self_s", "s", "lower",
       "op1_s/op2_s (scan_*_s) on complex-kernel; op1_s (threshold_s) on zero-energy"),
    _m("discretize.assemble.calls", "count", "lower", _ZERO + "; op3_s (resolvent_s) on complex-kernel"),
    _m("discretize.assemble.rows", "count", "lower", _ZERO + "; op3_s (resolvent_s) on complex-kernel"),
    _m("discretize.assemble.self_s", "s", "lower", _ZERO + "; op3_s (resolvent_s) on complex-kernel"),
    _m("discretize.kernel_pairs", "count", "lower", _ZERO + "; op3_s (resolvent_s) on complex-kernel"),
    _m("discretize.schatten_norm.s", "s", "lower", "op3_s (resolvent_s) on complex-kernel"),
    _m("potential.polar_factorize.calls", "count", "lower", "op2_s (sweep_s) on zero-energy"),
    _m("potential.polar_factorize.s", "s", "lower", "op2_s (sweep_s) on zero-energy"),
    _m("resolvalg.threshold_classify.calls", "count", "lower", _ZERO),
    _m("resolvalg.threshold_classify.self_s", "s", "lower", _ZERO),
    _m("resolvalg.eigh.s", "s", "lower", _ZERO),
    _m("resolvalg.eigh.rows", "count", "lower", _ZERO),
    _m("resolvalg.eigvec_use_ratio", "ratio", "higher", _ZERO),
    _m("resolvalg.kernel_rebuilds", "count", "lower", _ZERO),
    _m("ssf.ssf_boundary.calls", "count", "lower", _SSF),
    _m("ssf.ssf_boundary.self_s", "s", "lower", _SSF),
    _m("ssf.path_points", "count", "lower", _SSF),
    _m("ssf.knot_ratio", "ratio", "higher", _SSF),
    _m("ssf.inv.s", "s", "lower", _SSF),
    _m("ssf.eigvals.s", "s", "lower", _SSF),
    _m("ssf.det.s", "s", "lower", _SSF),
    _m("ssf.max_batch_mb", "MB", "lower", _SSF),
    _m("regdet.product_residual.calls", "count", "lower", "op3_s (det_audit_s) on matrix-pair"),
    _m("regdet.product_residual.s", "s", "lower", "op3_s (det_audit_s) on matrix-pair"),
    _m("regdet.regdet.calls", "count", "lower", "op3_s (det_audit_s) on matrix-pair"),
    _m("regdet.eigvals.s", "s", "lower", "op3_s (det_audit_s) on matrix-pair"),
    _m("cli.main.calls", "count", "lower", "op2_s (scan_odd_s) on complex-kernel"),
    _m("cli.main.self_s", "s", "lower", "op2_s (scan_odd_s) on complex-kernel"),
    _m("cli.artifact_bytes", "bytes", "lower", "op2_s (scan_odd_s) on complex-kernel"),
    _m("trace.overhead_s", "s", "lower", "none: traced pass_s minus untraced pass_s"),
    _m("trace.coverage", "ratio", "higher", "none: share of the traced pass inside top-level spans"),
)


def _self_seconds(spans) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def _outermost(spans, i) -> bool:
    name = spans[i].name
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return False
        p = spans[p].parent
    return True


def layer_metrics(spans, counts, pass_seconds) -> dict:
    """Per-layer metrics of one traced pass (see PER_LAYER), except
    trace.overhead_s, which needs an untraced pass to compare against."""
    own = _self_seconds(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def busy(name):
        return sum(spans[i].seconds for i in idx(name) if _outermost(spans, i))

    def self_s(*names):
        return sum(own[i] for n in names for i in idx(n))

    def attr_sum(name, key, where=lambda s: True):
        return sum(spans[i].attrs.get(key, 0) for i in idx(name) if where(spans[i]))

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else None

    def parent_layer(s):
        return spans[s.parent].layer if s.parent is not None else None

    def numpy_in(layer, fn, key=None):
        hits = [spans[i] for i in idx(f"numpy.linalg.{fn}") if parent_layer(spans[i]) == layer]
        if key is None:
            return sum(s.seconds for s in hits)
        return sum(s.attrs.get(key, 0) for s in hits)

    classify = "resolvalg.threshold_classify"
    eigh_under = [
        spans[i] for i in idx("numpy.linalg.eigh") if parent_name(spans[i]) == classify
    ]
    eigh_rows = sum(s.attrs.get("rows", 0) for s in eigh_under)
    kept = attr_sum(classify, "kept")
    path_points = numpy_in("ssf", "inv", "batch")
    knot_evals = attr_sum("ssf.ssf_boundary", "knot_evaluations")
    ssf_batches = [
        s.attrs.get("nbytes", 0)
        for s in spans
        if s.layer == "numpy" and parent_layer(s) == "ssf"
    ]
    roots = sum(s.seconds for s in spans if s.parent is None)

    return {
        "specfun.hankel1.calls": calls("specfun.hankel1"),
        "specfun.hankel1.elements": attr_sum("specfun.hankel1", "elements"),
        "specfun.hankel1.s": busy("specfun.hankel1"),
        "specfun.mpmath_contexts": counts.get("mpmath.workdps", 0),
        "green.green0_many.calls": calls("green.green0_many"),
        "green.green0_many.kernels": attr_sum("green.green0_many", "kernels"),
        "green.green0_many.self_s": self_s("green.green0_many"),
        "discretize.assemble.calls": sum(calls(n) for n in ASSEMBLERS),
        "discretize.assemble.rows": sum(attr_sum(n, "rows") for n in ASSEMBLERS),
        "discretize.assemble.self_s": self_s(*ASSEMBLERS),
        "discretize.kernel_pairs": attr_sum(
            "green.green0_many", "kernels", lambda s: parent_name(s) in ASSEMBLERS
        ),
        "discretize.schatten_norm.s": busy("discretize.schatten_norm"),
        "potential.polar_factorize.calls": calls("potential.polar_factorize"),
        "potential.polar_factorize.s": busy("potential.polar_factorize"),
        "resolvalg.threshold_classify.calls": calls(classify),
        "resolvalg.threshold_classify.self_s": self_s(classify),
        "resolvalg.eigh.s": sum(s.seconds for s in eigh_under),
        "resolvalg.eigh.rows": eigh_rows,
        "resolvalg.eigvec_use_ratio": kept / eigh_rows if eigh_rows else 0.0,
        "resolvalg.kernel_rebuilds": sum(
            1 for i in idx("green.green0_many") if parent_name(spans[i]) == classify
        ),
        "ssf.ssf_boundary.calls": calls("ssf.ssf_boundary"),
        "ssf.ssf_boundary.self_s": self_s("ssf.ssf_boundary"),
        "ssf.path_points": path_points,
        "ssf.knot_ratio": knot_evals / path_points if path_points else 0.0,
        "ssf.inv.s": numpy_in("ssf", "inv"),
        "ssf.eigvals.s": numpy_in("ssf", "eigvals"),
        "ssf.det.s": numpy_in("ssf", "det"),
        "ssf.max_batch_mb": max(ssf_batches, default=0) / 1e6,
        "regdet.product_residual.calls": calls("regdet.product_residual"),
        "regdet.product_residual.s": busy("regdet.product_residual"),
        "regdet.regdet.calls": calls("regdet.regdet"),
        "regdet.eigvals.s": numpy_in("regdet", "eigvals"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.artifact_bytes": attr_sum("cli.main", "artifact_bytes"),
        "trace.coverage": roots / pass_seconds if pass_seconds > 0 else 0.0,
    }
