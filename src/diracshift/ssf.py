"""Spectral shift functions for Hermitian matrix pairs.

Given S0 and a Hermitian perturbation V, the shift function xi counts how
many eigenvalues cross each threshold when S0 is deformed to S = S0 + V.
Three routes are provided: direct eigenvalue counting, the boundary value
of the perturbation determinant ln det(I + V (S0 - z)^{-1}) as z comes
down to the real axis, and the same boundary value with the first few
trace terms removed and restored analytically (useful when only a
higher-order regularized determinant is available).  Both determinant
routes evaluate only at the requested grid points: the 2 pi k branch of
each principal log comes from the spectra of S0 and S.  The module also
ships the half-line transform that averages xi over square roots of the
spectral parameter, its zero-energy limit, and a resolvent-difference
index for rectangular matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._checks import hermitian, offreal, order, positive, read_spec

# regdet stays bound here for callers that take it from this module
from .regdet import logdet_k, regdet, trace_series  # noqa: F401

__all__ = [
    "MatrixPair",
    "OperatorWord",
    "SSFTable",
    "WittenResult",
    "abel_transform",
    "abel_zero_limit",
    "g_correction",
    "g_deriv_paper",
    "load_pair",
    "perturbation_logdet",
    "ssf_boundary",
    "ssf_count_oracle",
    "trace_formula_residual",
    "witten_index",
]

# Grid points closer than this to an eigenvalue get flagged in tables.
FLAG_DISTANCE = 0.05

_COLLISION = 1e-12

# Memory cap for one (knots, d, d) complex stack in the determinant routes.
_STACK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class MatrixPair:
    """A Hermitian reference matrix and a Hermitian perturbation."""

    s0: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        s0 = hermitian("s0", self.s0)
        v = hermitian("v", self.v)
        if s0.shape != v.shape:
            raise ValueError(
                f"shape mismatch: s0 is {s0.shape}, v is {v.shape}"
            )
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "v", v)

    @property
    def s(self) -> np.ndarray:
        return self.s0 + self.v

    @property
    def dim(self) -> int:
        return self.s0.shape[0]


def _read_matrix(data, key) -> np.ndarray:
    obj = data[key]
    try:
        if isinstance(obj, dict):
            if set(obj) != {"re", "im"}:
                raise ValueError("complex matrix entries need exactly 're' and 'im'")
            re, im = (np.asarray(obj[part], dtype=float) for part in ("re", "im"))
            return re + 1j * im
        return np.asarray(obj, dtype=float).astype(complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"pair spec: invalid matrix at /{key} ({exc})") from None


def load_pair(source) -> MatrixPair:
    """Build a MatrixPair from {"s0": M, "v": M}.

    ``source`` is a dict, a JSON string, or a path to a JSON file.  A
    matrix M is a nested list of reals, or {"re": [[...]], "im": [[...]]}
    for complex entries.
    """
    data = read_spec(source, "pair", ("s0", "v"))
    return MatrixPair(_read_matrix(data, "s0"), _read_matrix(data, "v"))


def ssf_count_oracle(pair: MatrixPair, lam: float) -> int:
    """Eigenvalue-counting shift: #{eig(S0) <= lam} - #{eig(S) <= lam}.

    Raises if ``lam`` sits within 1e-12 of an eigenvalue of either
    matrix, where the half-line convention would silently tip the count.
    """
    lam = float(lam)
    eig0 = np.linalg.eigvalsh(pair.s0)
    eig1 = np.linalg.eigvalsh(pair.s)
    gap = min(np.abs(eig0 - lam).min(), np.abs(eig1 - lam).min())
    if gap < _COLLISION:
        raise ValueError(
            f"lam={lam} collides with an eigenvalue (distance {gap:.2e})"
        )
    return int(np.sum(eig0 <= lam)) - int(np.sum(eig1 <= lam))


def _bmatrix(pair: MatrixPair, z: complex) -> np.ndarray:
    d = pair.dim
    return pair.v @ np.linalg.inv(pair.s0 - z * np.eye(d))


def perturbation_logdet(m: int, z, pair: MatrixPair) -> complex:
    """Principal log of the order-(m+1) regularized determinant of I + B(z),

    where B(z) = V (S0 - z)^{-1}.  The imaginary part is per-point
    principal; continuity along a path is the caller's concern.
    """
    m = order(m, "m")
    z = offreal(z)
    val = logdet_k(m + 1, _bmatrix(pair, z))
    if val.real == -np.inf:
        raise ValueError("perturbation determinant vanished; z too close to spectrum")
    return complex(val.real, math.remainder(val.imag, 2 * math.pi))


def g_correction(m: int, z, pair: MatrixPair) -> complex:
    """The truncated trace series sum_{j=1}^{m} (-1)^j tr(B(z)^j) / j."""
    return complex(trace_series(order(m, "m"), _bmatrix(pair, offreal(z))))


@dataclass(frozen=True)
class OperatorWord:
    """A product of V's and resolvent powers with a rational coefficient.

    Factors are the string "V" or a positive int p standing for
    (S0 - z)^{-p}.  Differentiation in z raises one resolvent power per
    product-rule branch; V is constant.
    """

    coeff: Fraction
    factors: tuple

    def derivative(self) -> tuple:
        out = []
        for pos, f in enumerate(self.factors):
            if f == "V":
                continue
            bumped = self.factors[:pos] + (f + 1,) + self.factors[pos + 1 :]
            out.append(OperatorWord(self.coeff * f, bumped))
        return tuple(out)

    def evaluate(self, resolvent_powers: dict) -> np.ndarray:
        acc = None
        for f in self.factors:
            mat = resolvent_powers[f]
            acc = mat if acc is None else acc @ mat
        return float(self.coeff) * acc


def g_deriv_paper(m: int, z, pair: MatrixPair) -> complex:
    """m-th z-derivative of the truncated trace series, done symbolically.

    Starts from the first-derivative identity
    d/dz g = tr(sum_{i=1}^{m} (-1)^i (S0 - z)^{-1} B(z)^i) and applies the
    product rule m-1 more times before evaluating, so no finite
    differences enter.
    """
    m = order(m, "m")
    z = offreal(z)
    words = []
    for i in range(1, m + 1):
        factors = (1,) + ("V", 1) * i
        words.append(OperatorWord(Fraction((-1) ** i), factors))
    for _ in range(m - 1):
        words = [w for word in words for w in word.derivative()]
    max_power = max(
        (f for word in words for f in word.factors if f != "V"), default=1
    )
    d = pair.dim
    res = np.linalg.inv(pair.s0 - z * np.eye(d))
    table = {"V": pair.v, 1: res}
    for p in range(2, max_power + 1):
        table[p] = table[p - 1] @ res
    total = 0.0 + 0.0j
    for word in words:
        total += np.trace(word.evaluate(table))
    return complex(total)


@dataclass(frozen=True)
class SSFTable:
    """Shift-function values on a grid, with provenance for each point.

    ``branch`` is the phase at the finest epsilon on the grid, branch taken
    from the spectra (before extrapolation); ``flags`` marks grid points
    too close to an eigenvalue for the reported value to be trusted.
    """

    lambdas: np.ndarray
    xi: np.ndarray
    method: str
    eps_schedule: tuple
    branch: np.ndarray
    flags: np.ndarray = field(repr=False)


def _extrapolate_to_zero(eps: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Neville tableau evaluated at 0; rows of ``values`` follow ``eps``.
    tab = [np.asarray(v, dtype=float) for v in values]
    k = len(eps)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            ratio = eps[i] / (eps[i - j] - eps[i])
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * ratio
    return tab[k - 1]


def _phase_curve(
    pair: MatrixPair, lambdas: np.ndarray, eps: float, m: int, eig0, eig1
) -> np.ndarray:
    zs = lambdas + 1j * eps
    principal = np.empty(zs.shape)
    # knots go in chunks of at most _STACK_BYTES per (knots, d, d) stack;
    # every knot is computed on its own, so chunking changes no value
    step = max(1, _STACK_BYTES // (16 * pair.dim**2))
    for lo in range(0, zs.size, step):
        z = zs[lo : lo + step, None, None]
        b = pair.v @ np.linalg.inv(pair.s0 - z * np.eye(pair.dim))
        # one LU of I + B per knot; logdet_k's exponent and the g_m
        # restored here are the same regdet.trace_series, so for matrices
        # this is the phase of det(I + B) up to rounding, for every m
        principal[lo : lo + step] = (logdet_k(m + 1, b) - trace_series(m, b)).imag
    # For Hermitian S0 and S = S0 + V, det(I + V (S0 - z)^{-1}) equals
    # prod(s_k - z) / prod(e_k - z), so the continuous branch of its phase
    # is sum arg(s_k - z) - sum arg(e_k - z), which vanishes left of both
    # spectra (Krein; Yafaev, Mathematical Scattering Theory).
    exact = (
        np.angle(eig1[None, :] - zs[:, None]).sum(axis=1)
        - np.angle(eig0[None, :] - zs[:, None]).sum(axis=1)
    )
    return principal + 2 * np.pi * np.round((exact - principal) / (2 * np.pi))


def ssf_boundary(
    pair: MatrixPair,
    lambdas,
    eps_schedule=(1e-2, 5e-3, 2.5e-3),
    method: str = "krein",
    m: int = 1,
) -> SSFTable:
    """Tabulate xi on a real grid.

    ``method`` selects the route: "counting" uses the eigenvalue oracle,
    "krein" takes the boundary phase of det(I + V (S0 - lam - i eps)^{-1}),
    and "eq_main" takes the phase of the order-(m+1) regularized
    determinant minus the truncated trace series.  Each phase is evaluated
    only at lam + i eps for the requested lam; its principal value is moved
    to the branch given by the eigenvalues of S0 and S, then extrapolated
    to eps = 0 across the schedule.  Grid points within 0.05 of an
    eigenvalue are flagged and their xi withheld as NaN; the counting route
    only flags exact collisions.
    """
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError("lambdas must be a nonempty 1-d grid")
    if np.any(np.diff(lambdas) <= 0):
        raise ValueError("lambdas must be strictly increasing")
    if method not in ("counting", "krein", "eq_main"):
        raise ValueError(f"unknown method {method!r}")
    m = order(m, "m")

    eig0 = np.linalg.eigvalsh(pair.s0)
    eig1 = np.linalg.eigvalsh(pair.s)
    eig_all = np.concatenate([eig0, eig1])
    dist = np.abs(lambdas[:, None] - eig_all[None, :]).min(axis=1)

    if method == "counting":
        flags = dist < _COLLISION
        xi = np.full(lambdas.shape, np.nan)
        for i, lam in enumerate(lambdas):
            if not flags[i]:
                xi[i] = ssf_count_oracle(pair, lam)
        return SSFTable(lambdas, xi, "counting", (), np.pi * xi, flags)

    eps_schedule = tuple(positive(e, "eps schedule entry") for e in eps_schedule)
    if len(eps_schedule) < 2:
        raise ValueError("eps schedule needs at least two values")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")

    # krein is det_1 with no trace series to restore
    restored = 0 if method == "krein" else m
    curves = np.stack(
        [_phase_curve(pair, lambdas, e, restored, eig0, eig1) for e in eps_schedule]
    )
    xi = _extrapolate_to_zero(np.asarray(eps_schedule), curves) / np.pi
    flags = dist < FLAG_DISTANCE
    xi[flags] = np.nan
    name = "krein_boundary" if method == "krein" else "eq_main"
    return SSFTable(lambdas, xi, name, eps_schedule, curves[-1], flags)


def trace_formula_residual(m: int, pair: MatrixPair, z) -> float:
    """Defect in tr((S-z)^{-m} - (S0-z)^{-m}) = -m int xi (lam-z)^{-m-1}.

    xi from the counting oracle is piecewise constant between the merged
    eigenvalue breakpoints, so the integral is summed in closed form per
    interval; no quadrature error enters the reported residual.
    """
    m = order(m, "m")
    z = offreal(z)
    d = pair.dim
    eye = np.eye(d)
    r1 = np.linalg.matrix_power(np.linalg.inv(pair.s - z * eye), m)
    r0 = np.linalg.matrix_power(np.linalg.inv(pair.s0 - z * eye), m)
    lhs = np.trace(r1 - r0)

    breaks = np.unique(
        np.concatenate([np.linalg.eigvalsh(pair.s0), np.linalg.eigvalsh(pair.s)])
    )
    # -m int_a^b (lam-z)^{-m-1} dlam = (b-z)^{-m} - (a-z)^{-m}, and xi
    # vanishes outside [breaks[0], breaks[-1]].
    rhs = 0.0 + 0.0j
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b - a < 4 * _COLLISION:
            continue
        xi = ssf_count_oracle(pair, (a + b) / 2)
        if xi:
            rhs += xi * ((b - z) ** (-m) - (a - z) ** (-m))
    return float(abs(lhs - rhs))


def abel_transform(xi, lam: float) -> float:
    """Average of xi over [-sqrt(lam), sqrt(lam)] against the arcsine law,

    (1/pi) int xi(nu) dnu / sqrt(lam - nu^2).  The substitution
    nu = sqrt(lam) sin(theta) removes the endpoint singularity; the theta
    integral runs adaptively so jump discontinuities of xi still resolve
    to tight tolerance.
    """
    from scipy.integrate import quad

    lam = positive(lam, "lam")
    root = np.sqrt(lam)

    def integrand(theta):
        return xi(root * np.sin(theta))

    val, _ = quad(
        integrand, -np.pi / 2, np.pi / 2, epsabs=1e-11, epsrel=1e-11, limit=400
    )
    return val / np.pi


def abel_zero_limit(xi, tol: float = 1e-9) -> float:
    """Limit of the arcsine average as lam shrinks to 0.

    Equals the mean of the one-sided limits xi(0+) and xi(0-) for step
    data.  Evaluates on a geometric lam schedule until two consecutive
    values agree within ``tol``; raises if they never settle (oscillatory
    input).
    """
    prev = None
    for k in range(1, 26):
        cur = abel_transform(xi, 4.0 ** (-k))
        if prev is not None and abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise RuntimeError("arcsine averages did not settle; input oscillates near 0")


@dataclass(frozen=True)
class WittenResult:
    """Scaled resolvent-difference traces along a schedule and their mean."""

    k: int
    lambda_schedule: tuple
    scaled_traces: np.ndarray
    extrapolated: float


def witten_index(T, k: int = 1, lambda_schedule=(-1e-1, -1e-2, -1e-3)) -> WittenResult:
    """(-lam)^k tr((T*T - lam)^{-k} - (TT* - lam)^{-k}) as lam rises to 0.

    For matrices the scaled trace is constant in lam and equals
    dim ker T - dim ker T*; the schedule exists to expose that constancy,
    and the extrapolated value is the schedule mean.
    """
    k = order(k)
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    schedule = tuple(float(x) for x in lambda_schedule)
    if not schedule or not all(-math.inf < x < 0 for x in schedule):
        raise ValueError("lambda schedule must consist of negative reals")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("lambda schedule must increase toward 0")
    tt = T.conj().T @ T
    tt_adj = T @ T.conj().T
    traces = np.empty(len(schedule))
    for i, lam in enumerate(schedule):
        a = np.linalg.matrix_power(
            np.linalg.inv(tt - lam * np.eye(tt.shape[0])), k
        )
        b = np.linalg.matrix_power(
            np.linalg.inv(tt_adj - lam * np.eye(tt_adj.shape[0])), k
        )
        traces[i] = ((-lam) ** k * (np.trace(a) - np.trace(b))).real
    return WittenResult(k, schedule, traces, float(traces.mean()))
