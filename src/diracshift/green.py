"""Free Dirac Green's kernels and their z-derivatives.

The kernel factorizes as

    G0(z; x, y) = s^(1-n) * [A(zeta) I_N - B(zeta) a(u)],

with s = |x - y|, zeta = z s, u = (x - y)/s, a(u) the contraction of the
anticommuting generators with u, and

    A(zeta) = (i/4) (2 pi)^((2-n)/2) zeta^(n/2) H_{(n-2)/2}(zeta),
    B(zeta) = (1/4) (2 pi)^((2-n)/2) zeta^(n/2) H_{n/2}(zeta).

z-derivatives pull out one power of s per order and differentiate A, B in
zeta.  Two routes are implemented: a small-argument series (entire
exponential-polynomial form in odd dimensions, power series with an
explicit logarithmic part in even dimensions) and an outer route that
differentiates zeta^p H_nu symbolically through the recurrence
d/dzeta [zeta^p H_nu] = (p+nu) zeta^(p-1) H_nu - zeta^p H_{nu+1} and
evaluates the resulting Hankel calls directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import specfun
from ._checks import positive
from .clifford import CliffordRep, dirac_symbol

__all__ = [
    "CROSSOVER_HI",
    "CROSSOVER_LO",
    "REGIME_SPLIT",
    "DerivativeKernel",
    "OddDimCoeffs",
    "green0",
    "green0_deriv",
    "green0_limit0",
    "green0_many",
    "green0_massive",
    "kernel_bound_report",
    "odd_dim_coeffs",
    "riesz_gamma",
]

# Series/outer split in |z||x-y|, with a band where both routes are valid
# and cross-checked.
REGIME_SPLIT = 1.0
CROSSOVER_LO = 0.8
CROSSOVER_HI = 1.25

_SERIES_RTOL = 1e-16
_EVEN_KMAX = 40
_ODD_JMAX = 90


@dataclass(frozen=True)
class DerivativeKernel:
    """A z-derivative of the kernel with the route that produced it."""

    value: np.ndarray
    order: int
    regime: str


@dataclass(frozen=True)
class OddDimCoeffs:
    """Exact rational expansion coefficients of the odd-dimensional kernel."""

    n: int
    d: tuple
    dprime: tuple


def riesz_gamma(alpha, n) -> float:
    """Normalization gamma(alpha, n) = pi^(n/2) 2^alpha G(alpha/2)/G((n-alpha)/2)."""
    a = float(alpha)
    if not 0.0 < a < n:
        raise ValueError("riesz_gamma requires 0 < alpha < n")
    return math.pi ** (n / 2) * 2.0**a * math.gamma(a / 2) / math.gamma((n - a) / 2)


# ---------------------------------------------------------------------------
# geometry and validation helpers


def _separation(rep: CliffordRep, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (rep.n,) or y.shape != (rep.n,):
        raise ValueError(f"x and y must be vectors of length {rep.n}")
    w = x - y
    s = float(np.linalg.norm(w))
    if s == 0.0:
        raise ValueError("kernel is singular at x = y")
    if not np.isfinite(s):
        raise ValueError("x and y must be finite")
    return w, s


def _uhp(z, *, allow_zero=False) -> complex:
    zc = complex(z)
    if zc.imag < 0:
        raise ValueError("z must lie in the closed upper half-plane")
    if zc == 0 and not allow_zero:
        raise ValueError("z = 0 is outside the domain; use the zero-limit kernel")
    # +0.0 imaginary part keeps principal powers on the upper side of the cut
    return complex(zc.real, 0.0) if zc.imag == 0.0 else zc


def _zpow(zeta: complex, p) -> complex:
    if p == int(p):
        return zeta ** int(p)
    return cmath.exp(p * cmath.log(zeta))


def _ab_prefactors(n: int):
    c = (2.0 * math.pi) ** ((2 - n) / 2)
    return 0.25j * c, 0.25 * c


# ---------------------------------------------------------------------------
# kernel values


def _ab_values(n: int, zeta):
    """A(zeta), B(zeta) for scalar or array zeta."""
    ca, cb = _ab_prefactors(n)
    if np.ndim(zeta) == 0:
        pw = _zpow(zeta, n / 2)
        ha = specfun.hankel1((n - 2) / 2, zeta)
        hb = specfun.hankel1(n / 2, zeta)
    else:
        pw = np.exp((n / 2) * np.log(zeta))
        ha = specfun.hankel1((n - 2) / 2, zeta)
        hb = specfun.hankel1(n / 2, zeta)
    return ca * pw * ha, cb * pw * hb


def green0(rep: CliffordRep, z, x, y, *, route="auto") -> np.ndarray:
    """Free Dirac Green's matrix G0(z; x, y), an N x N complex array.

    ``route`` selects the evaluation path: "auto" (closed form in three
    dimensions, generic elsewhere), "generic", or "closed" (three
    dimensions only; the elementary exponential form).
    """
    if route not in ("auto", "generic", "closed"):
        raise ValueError("route must be 'auto', 'generic', or 'closed'")
    zc = _uhp(z)
    w, s = _separation(rep, x, y)
    unit = dirac_symbol(rep, w / s)
    eye = np.eye(rep.N, dtype=complex)
    zeta = _uhp(zc * s, allow_zero=False)
    if route == "closed" or (route == "auto" and rep.n == 3):
        if rep.n != 3:
            raise ValueError("the closed route is specific to three dimensions")
        pref = cmath.exp(1j * zeta) / (4.0 * math.pi * s)
        return pref * (zc * eye + (zc + 1j / s) * unit)
    a, b = _ab_values(rep.n, zeta)
    return s ** (1 - rep.n) * (a * eye - b * unit)


def green0_limit0(rep: CliffordRep, x, y) -> np.ndarray:
    """Zero-energy kernel i 2^(-1) pi^(-n/2) Gamma(n/2) a(x-y)/|x-y|^n."""
    w, s = _separation(rep, x, y)
    coeff = 0.5j * math.pi ** (-rep.n / 2) * math.gamma(rep.n / 2)
    return coeff * dirac_symbol(rep, w) / s**rep.n


def green0_many(rep: CliffordRep, z, diffs) -> np.ndarray:
    """Kernel values for a batch of difference vectors, shape (M, N, N).

    ``diffs`` holds rows x - y (all nonzero).  ``z`` may be 0, in which
    case the zero-limit kernel is used.
    """
    d = np.asarray(diffs, dtype=float)
    if d.ndim != 2 or d.shape[1] != rep.n:
        raise ValueError(f"diffs must have shape (M, {rep.n})")
    s = np.linalg.norm(d, axis=1)
    if np.any(s == 0.0):
        raise ValueError("kernel is singular at zero difference")
    unit = d / s[:, None]
    alphas = np.stack(rep.alphas[: rep.n])
    contracted = np.einsum("mj,jab->mab", unit, alphas)
    eye = np.eye(rep.N, dtype=complex)
    zc = _uhp(z, allow_zero=True)
    if zc == 0:
        coeff = 0.5j * math.pi ** (-rep.n / 2) * math.gamma(rep.n / 2)
        return coeff * s[:, None, None] ** (1 - rep.n) * contracted
    zeta = zc * s
    zeta = np.where(zeta.imag == 0.0, zeta.real + 0.0j, zeta)
    a, b = _ab_values(rep.n, zeta)
    pref = s ** (1 - rep.n)
    return pref[:, None, None] * (
        a[:, None, None] * eye - b[:, None, None] * contracted
    )


def green0_massive(rep: CliffordRep, m, z, x, y) -> np.ndarray:
    """Green's matrix of the massive operator with mass m > 0.

    The Hankel argument is kappa |x - y| with kappa = (z^2 - m^2)^(1/2) on
    the branch Im kappa > 0; real z with |z| > m violate the branch and are
    rejected.
    """
    mm = positive(m, "mass")
    zc = complex(z)
    if zc.imag == 0.0 and abs(zc.real) > mm:
        raise ValueError("real z with |z| > m lies outside the branch domain")
    if zc.imag == 0.0:
        zc = complex(zc.real, 0.0)
    kappa = np.sqrt(complex(zc * zc - mm * mm))
    if kappa.imag <= 0:
        if kappa.imag < 0:
            kappa = -kappa
        else:
            raise ValueError("z = +/- m sits on the branch point")
    w, s = _separation(rep, x, y)
    unit = dirac_symbol(rep, w / s)
    eye = np.eye(rep.N, dtype=complex)
    zeta = complex(kappa * s)
    c = (2.0 * math.pi) ** ((2 - rep.n) / 2)
    block = 0.25j * c * s ** (2 - rep.n) * _zpow(zeta, (rep.n - 2) / 2) * specfun.hankel1(
        (rep.n - 2) / 2, zeta
    )
    tail = 0.25 * c * s ** (1 - rep.n) * _zpow(zeta, rep.n / 2) * specfun.hankel1(
        rep.n / 2, zeta
    )
    return block * (mm * rep.beta + zc * eye) - tail * unit


# ---------------------------------------------------------------------------
# odd-dimension expansion coefficients


def _expansion_coeffs(m: int, jmax: int):
    out = []
    for j in range(jmax + 1):
        acc = Fraction(0)
        for k in range(max(0, m - j), m + 1):
            binomial = Fraction(
                math.factorial(m + k), math.factorial(k) * math.factorial(m - k)
            )
            acc += binomial * Fraction(-1, 2) ** k / math.factorial(j + k - m)
        out.append(acc)
    return tuple(out)


def odd_dim_coeffs(n, jmax=None) -> OddDimCoeffs:
    """Exact rational coefficients of the odd-dimensional kernel expansion.

    Every odd-indexed d_j with 1 <= j <= n-4 and every odd-indexed
    d'_j with 1 <= j <= n-2 vanishes identically.
    """
    nn = int(n)
    if nn != n or nn % 2 == 0 or not 3 <= nn <= 13:
        raise ValueError("odd_dim_coeffs requires odd n in 3..13")
    if jmax is None:
        jmax = 2 * nn
    d = _expansion_coeffs((nn - 3) // 2, jmax)
    dprime = _expansion_coeffs((nn - 1) // 2, jmax)
    return OddDimCoeffs(n=nn, d=d, dprime=dprime)


# ---------------------------------------------------------------------------
# z-derivatives: series route, odd n

# scalar prefactors of the identity and contraction blocks


def _odd_prefactors(n: int):
    c = 2.0 ** (-(n + 1) / 2) * math.pi ** ((1 - n) / 2)
    c1 = (-1.0) ** ((3 - n) // 2) * c
    c2 = 1j * (-1.0) ** ((1 - n) // 2) * c
    return c1, c2


def _odd_series_sums(n: int, r: int, z: complex, s: float):
    d = [float(v) for v in _expansion_coeffs((n - 3) // 2, _ODD_JMAX)]
    dp = [float(v) for v in _expansion_coeffs((n - 1) // 2, _ODD_JMAX)]
    # identity block: sum_j d_j i^j (j+1)!/(j+1-r)! z^(j+1-r) s^(j+2-n)
    tot_i = 0.0 + 0.0j
    for j in range(max(0, r - 1), _ODD_JMAX + 1):
        fall = math.prod(range(j + 2 - r, j + 2))
        term = d[j] * (1j**j) * fall * z ** (j + 1 - r) * s ** (j + 2 - n)
        tot_i += term
        if j > abs(z) * s + r + 8 and abs(term) <= _SERIES_RTOL * abs(tot_i):
            break
    # contraction block: sum_j d'_j i^j j!/(j-r)! z^(j-r) s^(j+1-n)
    tot_a = 0.0 + 0.0j
    for j in range(r, _ODD_JMAX + 1):
        fall = math.prod(range(j + 1 - r, j + 1))
        term = dp[j] * (1j**j) * fall * z ** (j - r) * s ** (j + 1 - n)
        tot_a += term
        if j > abs(z) * s + r + 8 and abs(term) <= _SERIES_RTOL * abs(tot_a):
            break
    return tot_i, tot_a


# ---------------------------------------------------------------------------
# z-derivatives: series route, even n (power series with logarithmic part)


def _logseries_one(g: int, m: int, cmul: complex, kmax: int):
    plain: dict = {}
    log: dict = {}
    for k in range(kmax + 1):
        base = (-1.0) ** k * 2.0 ** (-(2 * k + m)) / (
            math.factorial(k) * math.factorial(k + m)
        )
        p = g + m + 2 * k
        weight = specfun.digamma_int(k + 1) + specfun.digamma_int(m + k + 1)
        plain[p] = plain.get(p, 0.0) + cmul * base * (1.0 - 1j * weight / math.pi)
        log[p] = log.get(p, 0.0) + cmul * base * (2j / math.pi)
    for k in range(m):
        p = g - m + 2 * k
        coeff = (
            cmul
            * (-1j / math.pi)
            * math.factorial(m - k - 1)
            / math.factorial(k)
            * 2.0 ** (m - 2 * k)
        )
        plain[p] = plain.get(p, 0.0) + coeff
    return {"plain": plain, "log": log}


def _logseries_pair(n: int, kmax: int = _EVEN_KMAX):
    g = n // 2
    ca, cb = _ab_prefactors(n)
    return _logseries_one(g, g - 1, ca, kmax), _logseries_one(g, g, cb, kmax)


def _logseries_diff(series):
    plain: dict = {}
    log: dict = {}
    for p, c in series["plain"].items():
        if p != 0:
            plain[p - 1] = plain.get(p - 1, 0.0) + c * p
    for p, c in series["log"].items():
        if p != 0:
            log[p - 1] = log.get(p - 1, 0.0) + c * p
        plain[p - 1] = plain.get(p - 1, 0.0) + c
    return {"plain": plain, "log": log}


def _logseries_eval(series, zeta: complex) -> complex:
    lg = cmath.log(zeta / 2)
    tot = 0.0 + 0.0j
    for p, c in series["plain"].items():
        tot += c * zeta**p
    for p, c in series["log"].items():
        tot += c * lg * zeta**p
    return tot


# ---------------------------------------------------------------------------
# z-derivatives: outer route


def _outer_terms(p0, nu0, r: int):
    terms = {(p0, nu0): 1.0}
    for _ in range(r):
        new: dict = {}
        for (p, nu), c in terms.items():
            key = (p - 1, nu)
            new[key] = new.get(key, 0.0) + c * (p + nu)
            key = (p, nu + 1)
            new[key] = new.get(key, 0.0) - c
        terms = new
    return terms


def _outer_eval(terms, cmul: complex, zeta: complex) -> complex:
    tot = 0.0 + 0.0j
    for (p, nu), c in terms.items():
        tot += c * _zpow(zeta, p) * specfun.hankel1(nu, zeta)
    return cmul * tot


def green0_deriv(rep: CliffordRep, r, z, x, y, *, regime="auto") -> DerivativeKernel:
    """r-th z-derivative of the kernel, 1 <= r <= n.

    ``regime`` forces the evaluation route: "series" (small |z||x-y|),
    "asymptotic" (outer recurrence route), or "auto" (split at
    |z||x-y| = REGIME_SPLIT).  Both routes are valid in the crossover
    band and agree there; tests pin the agreement.
    """
    rr = int(r)
    if rr != r or not 1 <= rr <= rep.n:
        raise ValueError(f"derivative order must be an integer in 1..{rep.n}")
    if regime not in ("auto", "series", "asymptotic"):
        raise ValueError("regime must be 'auto', 'series', or 'asymptotic'")
    zc = _uhp(z)
    w, s = _separation(rep, x, y)
    zeta = _uhp(zc * s)
    if regime == "auto":
        regime = "series" if abs(zeta) <= REGIME_SPLIT else "asymptotic"
    unit = dirac_symbol(rep, w / s)
    eye = np.eye(rep.N, dtype=complex)
    if regime == "series":
        if rep.n % 2 == 1:
            c1, c2 = _odd_prefactors(rep.n)
            tot_i, tot_a = _odd_series_sums(rep.n, rr, zc, s)
            value = c1 * tot_i * eye + c2 * tot_a * unit
        else:
            ser_a, ser_b = _logseries_pair(rep.n)
            for _ in range(rr):
                ser_a = _logseries_diff(ser_a)
                ser_b = _logseries_diff(ser_b)
            a_r = _logseries_eval(ser_a, zeta)
            b_r = _logseries_eval(ser_b, zeta)
            value = s ** (rr + 1 - rep.n) * (a_r * eye - b_r * unit)
    else:
        ca, cb = _ab_prefactors(rep.n)
        a_r = _outer_eval(_outer_terms(rep.n / 2, (rep.n - 2) / 2, rr), ca, zeta)
        b_r = _outer_eval(_outer_terms(rep.n / 2, rep.n / 2, rr), cb, zeta)
        value = s ** (rr + 1 - rep.n) * (a_r * eye - b_r * unit)
    return DerivativeKernel(value=value, order=rr, regime=regime)


# ---------------------------------------------------------------------------
# envelope diagnostics


def _envelope(n: int, r: int, z: complex, s: float, delta: float) -> float:
    az = abs(z)
    zeta = z * s
    if az * s >= 1.0:
        return az ** ((n - 1) / 2) * s ** ((2 * r + 1 - n) / 2) * math.exp(-z.imag * s)
    if n % 2 == 1:
        return s ** (r + 1 - n)
    if az == 0.0:
        return s ** (r + 1 - n)
    logmag = abs(cmath.log(zeta / 2))
    if r == n:
        return s * (1.0 + logmag) + 1.0 / az
    return s ** (r + 1 - n) * (1.0 + logmag)


def kernel_bound_report(rep: CliffordRep, z, samples, *, r=0, delta=0.5):
    """Fit of kernel magnitudes against the two-regime envelopes.

    For each sample pair (x, y) the spectral norm of the r-th derivative
    (the kernel itself for r = 0) is divided by the corresponding regime
    envelope; the report carries the maximal ratio per regime, which plays
    the role of the otherwise unspecified envelope constant.  ``delta``
    enters the alternative even-dimension inner envelope
    |z|^(-delta) s^(r+1-delta-n), reported alongside.
    """
    rr = int(r)
    if rr != r or not 0 <= rr <= rep.n:
        raise ValueError(f"r must be an integer in 0..{rep.n}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    zc = _uhp(z, allow_zero=True)
    if zc == 0 and rr > 0:
        raise ValueError("derivative envelopes need z != 0")
    regimes = {
        "inner": {"count": 0, "max_ratio": 0.0, "argmax": None, "nonfinite": 0},
        "outer": {"count": 0, "max_ratio": 0.0, "argmax": None, "nonfinite": 0},
    }
    delta_ratio = 0.0
    got_any = False
    for x, y in samples:
        got_any = True
        _, s = _separation(rep, x, y)
        if rr == 0:
            val = green0_limit0(rep, x, y) if zc == 0 else green0(rep, zc, x, y)
        else:
            val = green0_deriv(rep, rr, zc, x, y).value
        norm = float(np.linalg.norm(val, 2))
        env = _envelope(rep.n, rr, zc, s, delta)
        key = "outer" if abs(zc) * s >= 1.0 else "inner"
        ratio = norm / env
        bucket = regimes[key]
        bucket["count"] += 1
        if not math.isfinite(ratio):
            bucket["nonfinite"] += 1
            continue
        if ratio > bucket["max_ratio"]:
            bucket["max_ratio"] = ratio
            bucket["argmax"] = (np.asarray(x, float), np.asarray(y, float))
        if key == "inner" and rep.n % 2 == 0 and abs(zc) > 0:
            alt = norm / (abs(zc) ** (-delta) * s ** (rr + 1 - delta - rep.n))
            delta_ratio = max(delta_ratio, alt)
    if not got_any:
        raise ValueError("sample set is empty")
    return {
        "n": rep.n,
        "r": rr,
        "z": zc,
        "delta": delta,
        "regimes": regimes,
        "inner_delta_max_ratio": delta_ratio,
    }
