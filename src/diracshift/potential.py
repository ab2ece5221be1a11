"""Matrix-valued potentials, decay diagnostics, and polar factorization.

A potential is a map x -> V(x) into Hermitian N x N matrices together with
declared decay data (C, rho, eps) meaning |V_lm(x)| <= C <x>^(-rho).  The
polar factorization V = V1* V2 with V1 = |V|^(1/2) and V2 = U_V V1 feeds
every Birman-Schwinger construction downstream; U_V is the unitary
self-adjoint sign of V, fixed to the identity on ker V.  Assemblers take
the potential V itself and factor its values at all grid nodes in one
batched call.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import hermitian, read_spec

__all__ = [
    "HYPOTHESIS_EXPONENTS",
    "MatrixPotential",
    "PolarFactors",
    "bump",
    "decay_report",
    "gaussian",
    "load_potential",
    "polar_factorize",
    "power",
]

# decay exponent each hypothesis demands: fixed threshold on the declared
# rho, or a base that the declared surplus eps is added to
HYPOTHESIS_EXPONENTS = {
    "3.1": ("rho_above", 1.0),
    "7.1": ("rho_above", "n"),
    "9.13": ("base_plus_eps", 0.0),
    "12.1": ("base_plus_eps", 1.0),
}

_KERNEL_RTOL = 1e-13


@dataclass(frozen=True)
class MatrixPotential:
    """Hermitian matrix potential with declared decay data."""

    n: int
    size: int
    evaluate: object = field(repr=False)
    rho: float = 2.0
    C: float = 1.0
    eps: float = 0.0
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PolarFactors:
    """Pointwise factors V1 = |V|^(1/2), unitary self-adjoint U_V, V2 = U_V V1."""

    v1: np.ndarray
    uv: np.ndarray
    v2: np.ndarray


def polar_factorize(v) -> PolarFactors:
    """Factor a Hermitian matrix as V = V1 U_V V1 with V1 >= 0, U_V^2 = I.

    ``v`` is one matrix or a stack (..., N, N); a stack is factored with
    one batched eigh, and each member keeps its own Hermiticity scale and
    kernel cut, so it factors exactly as it would alone.  The sign of a
    zero eigenvalue is +1, so U_V acts as the identity on ker V.  Functions
    of the eigenvalues are applied through the spectral projectors, which
    keeps degenerate eigenspaces basis-independent.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    vh = v.conj().swapaxes(-1, -2)
    defect = np.max(np.abs(v - vh), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(v), axis=(-2, -1)))
    if np.any(defect > 1e-12 * scale):
        raise ValueError(f"matrix is not Hermitian (defect {np.max(defect):.2e})")
    lam, q = np.linalg.eigh((v + vh) / 2)
    cut = _KERNEL_RTOL * np.maximum(1.0, np.max(np.abs(lam), axis=-1, keepdims=True))
    sgn = np.where(lam < -cut, -1.0, 1.0)
    sq = np.sqrt(np.abs(lam))
    qh = q.conj().swapaxes(-1, -2)
    v1 = (q * sq[..., None, :]) @ qh
    uv = (q * sgn[..., None, :]) @ qh
    v2 = (q * (sgn * sq)[..., None, :]) @ qh
    return PolarFactors(v1=v1, uv=uv, v2=v2)


# ---------------------------------------------------------------------------
# decay diagnostics


def _weight(x) -> float:
    return math.sqrt(1.0 + float(np.dot(x, x)))


def _required_exponent(key: str, n: int, eps: float):
    kind, val = HYPOTHESIS_EXPONENTS[key]
    if kind == "rho_above":
        return None, (float(n) if val == "n" else float(val))
    return float(n) + float(val) + eps, None


def decay_report(V: MatrixPotential, hypothesis, samples, *, eps=None) -> dict:
    """Scan |V_lm(x)| <x>^exponent / C over samples for one decay hypothesis.

    Hypotheses keyed "3.1" and "7.1" test the declared rho against a fixed
    threshold and scan at the declared exponent; "9.13" and "12.1" scan at
    n + eps and n + 1 + eps respectively (eps defaults to the potential's
    declared surplus and must be positive).  The x.grad V and |x|^(1/2) V
    smallness the latter two assume at infinity is reported as advisory
    numbers only: a finite scan can refute but never confirm it.
    """
    key = str(hypothesis)
    if key not in HYPOTHESIS_EXPONENTS:
        raise ValueError(f"unknown hypothesis {hypothesis!r}")
    pts = [np.asarray(x, dtype=float) for x in samples]
    if not pts:
        raise ValueError("sample set is empty")
    if eps is None:
        eps = V.eps
    eps = float(eps)
    exponent, rho_floor = _required_exponent(key, V.n, eps)
    if exponent is None:
        exponent_ok = V.rho > rho_floor
        exponent = V.rho
    else:
        exponent_ok = eps > 0.0
    worst = -1.0
    argmax = None
    herm_defect = 0.0
    for x in pts:
        m = np.asarray(V(x), dtype=complex)
        herm_defect = max(herm_defect, float(np.max(np.abs(m - m.conj().T))))
        ratio = float(np.max(np.abs(m))) * _weight(x) ** exponent / V.C
        if ratio > worst:
            worst = ratio
            argmax = x
    hermitian_ok = herm_defect <= 1e-13
    ratio_ok = worst <= 1.0 + 1e-9
    report = {
        "hypothesis": key,
        "required_exponent": exponent,
        "exponent_ok": exponent_ok,
        "worst_ratio": worst,
        "argmax": argmax,
        "hermitian_max_defect": herm_defect,
        "hermitian_ok": hermitian_ok,
        "passed": bool(exponent_ok and ratio_ok and hermitian_ok),
        "advisory": None,
    }
    if key in ("9.13", "12.1"):
        report["advisory"] = _directional_advisory(V, pts)
    return report


def _directional_advisory(V: MatrixPotential, pts) -> dict:
    # outer third of the samples by radius; central differences for x.grad V
    radii = sorted(float(np.linalg.norm(x)) for x in pts)
    floor = radii[(2 * len(radii)) // 3] if len(radii) >= 3 else 0.0
    outer = [x for x in pts if np.linalg.norm(x) >= floor]
    worst_grad = 0.0
    worst_halfpow = 0.0
    for x in outer:
        r = float(np.linalg.norm(x))
        h = 1e-5 * (1.0 + r)
        acc = np.zeros((V.size, V.size), dtype=complex)
        for j in range(V.n):
            e = np.zeros(V.n)
            e[j] = h
            acc += x[j] * (np.asarray(V(x + e)) - np.asarray(V(x - e))) / (2 * h)
        worst_grad = max(worst_grad, float(np.max(np.abs(acc))))
        worst_halfpow = max(
            worst_halfpow, math.sqrt(r) * float(np.max(np.abs(np.asarray(V(x)))))
        )
    return {
        "outer_count": len(outer),
        "max_x_dot_grad": worst_grad,
        "max_sqrt_radius_scaled": worst_halfpow,
        "note": "finite scan; small values are consistent with, not proof of,"
        " the required o(1) decay",
    }


# ---------------------------------------------------------------------------
# built-in families


def _default_size(n: int) -> int:
    return 2 ** ((n + 1) // 2)


def _coupling(matrix, size, amplitude):
    if matrix is None:
        return amplitude * np.eye(size, dtype=complex)
    m = np.asarray(matrix, dtype=complex) * amplitude
    return hermitian("coupling matrix", m, rtol=1e-12)


def _fit_constant(profile, rho, tmax, peak) -> float:
    # densely scan profile(t) <t>^rho on [0, tmax]; 5% headroom
    ts = np.linspace(0.0, tmax, 4001)
    vals = np.array([profile(t) for t in ts]) * (1.0 + ts**2) ** (rho / 2)
    return 1.05 * peak * float(np.max(vals))


def _radial_potential(n, size, matrix, amplitude, profile, rho, C, eps, family, params):
    m = _coupling(matrix, size, amplitude)

    def evaluate(x):
        return m * profile(float(np.linalg.norm(x)))

    return MatrixPotential(
        n=int(n),
        size=m.shape[0],
        evaluate=evaluate,
        rho=float(rho),
        C=float(C),
        eps=float(eps),
        family=family,
        params=params,
    )


def gaussian(n, *, width=1.0, amplitude=1.0, matrix=None, size=None, rho=None, eps=0.5):
    """V(x) = M exp(-|x|^2 / width^2); decays faster than any declared rho."""
    if width <= 0:
        raise ValueError("width must be positive")
    size = _default_size(n) if size is None else int(size)
    if rho is None:
        rho = n + 4.0

    def prof(t):
        return math.exp(-(t * t) / (width * width))

    peak = float(np.max(np.abs(_coupling(matrix, size, amplitude))))
    C = _fit_constant(prof, rho, 10.0 * width + 10.0, peak)
    return _radial_potential(
        n, size, matrix, amplitude, prof, rho, C, eps, "gaussian",
        {"width": width, "amplitude": amplitude},
    )


def power(n, rho, *, amplitude=1.0, matrix=None, size=None, eps=None):
    """V(x) = M <x>^(-rho); the declared constant is exactly max |M_lm|."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    size = _default_size(n) if size is None else int(size)

    def prof(t):
        return (1.0 + t * t) ** (-rho / 2)

    peak = float(np.max(np.abs(_coupling(matrix, size, amplitude))))
    if eps is None:
        eps = max(rho - (n + 1.0), 0.0)
    return _radial_potential(
        n, size, matrix, amplitude, prof, rho, peak, eps, "power",
        {"rho": rho, "amplitude": amplitude},
    )


def bump(n, *, radius=1.0, amplitude=1.0, matrix=None, size=None, rho=None, eps=0.5):
    """V(x) = M (1 - |x|^2/radius^2)_+^2, compactly supported and C^1."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    size = _default_size(n) if size is None else int(size)
    if rho is None:
        rho = n + 4.0

    def prof(t):
        return max(0.0, 1.0 - (t / radius) ** 2) ** 2

    peak = float(np.max(np.abs(_coupling(matrix, size, amplitude))))
    C = _fit_constant(prof, rho, radius, peak)
    return _radial_potential(
        n, size, matrix, amplitude, prof, rho, C, eps, "bump",
        {"radius": radius, "amplitude": amplitude},
    )


_FAMILIES = {"gaussian": gaussian, "power": power, "bump": bump}


def _spec_value(value, kind, pointer):
    try:
        out = kind(value)
        if np.all(np.isfinite(out)):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"potential spec: invalid value at {pointer}: {value!r}")


def load_potential(source) -> MatrixPotential:
    """Build a potential from {"family": ..., "params": {...}, "n": int}.

    ``source`` is a dict, a JSON string, or a path to a JSON file.  Params
    are finite reals ("size" an integer) and null keeps a default; the
    optional "matrix" param is a nested list (real entries) and must be
    symmetric.  A malformed spec raises ValueError naming the member, as
    in "/params/width".
    """
    data = read_spec(source, "potential", ("family", "params", "n"))
    family = _FAMILIES.get(str(data["family"]))
    if family is None:
        raise ValueError(f"unknown potential family {data['family']!r}")
    if not isinstance(data["params"], dict):
        raise ValueError("potential spec: expected an object at /params")
    # the params are the family's keywords; those without a default are required
    fields = dict(inspect.signature(family).parameters)
    del fields["n"]
    unknown = set(data["params"]) - set(fields)
    if unknown:
        raise ValueError(f"unknown params for {data['family']}: {sorted(unknown)}")
    kinds = {"matrix": lambda v: np.asarray(v, dtype=float), "size": int}
    params = {
        key: _spec_value(value, kinds.get(key, float), f"/params/{key}")
        for key, value in data["params"].items()
        if value is not None
    }
    for key, spec in fields.items():
        if spec.default is spec.empty and key not in params:
            raise ValueError(f"potential spec: missing member at /params/{key}")
    return family(_spec_value(data["n"], int, "/n"), **params)
