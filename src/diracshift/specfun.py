"""Bessel and Hankel functions on the closed upper half-plane.

Power series with digamma-weighted logarithmic parts for integer orders,
terminating closed forms for half-integer orders, and a large-argument
expansion with an a-posteriori remainder proxy.  Orders are scalar
nonnegative integers or half-integers; ``zeta`` may be a scalar or an
ndarray and must satisfy Im zeta >= 0, zeta != 0.

Branch policy: all powers and logarithms are principal, and real inputs are
normalized to carry a +0.0 imaginary part so that arguments on the negative
real axis stay on the upper side of the cut.

Accuracy policy: ``hankel1`` has one production route per order class.
Half-integer orders use the exact terminating closed form; integer orders
use scipy's AMOS routine (Amos 1986, ACM TOMS Alg. 644), which keeps
~1e-15 relative accuracy across the kernel band.  The J + iY power series
(``hankel1_series``, float64 or mpmath at a chosen precision) and the
asymptotic expansion (``hankel1_asymptotic``) remain only as reference
oracles; the series loses roughly e^(|zeta| + Im zeta) to cancellation, so
``bessel_j`` and ``bessel_y_int`` switch to mpmath beyond a fixed budget.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

__all__ = [
    "ASYMPTOTIC_MIN_ABS",
    "EULER_MASCHERONI",
    "SERIES_MAX_TERMS",
    "bessel_j",
    "bessel_y_int",
    "digamma_int",
    "hankel1",
    "hankel1_any",
    "hankel1_asymptotic",
    "hankel1_halfint",
    "hankel1_series",
]

EULER_MASCHERONI = 0.577215664901532861

# Smallest modulus the asymptotic reference route accepts (partial sums
# still reach ~1e-12 there, which the overlap tests rely on).
ASYMPTOTIC_MIN_ABS = 15.0

SERIES_MAX_TERMS = 200
_SERIES_RTOL = 1e-16

_ASYM_ARG_DELTA = 1e-8

# |zeta| + Im zeta budgets within which float64 series keep ~1e-8 (Y)
# resp. ~1e-10 (J); beyond them mpmath takes over.
_H_F64_BUDGET = 18.5
_J_F64_BUDGET = 12.0

# e^(|zeta|)-sized magnitudes overflow float64 beyond this.
_OVERFLOW_BUDGET = 650.0


def digamma_int(k) -> float:
    """Digamma at a positive integer: psi(k) = -gamma + sum_{m<k} 1/m."""
    n = int(k)
    if n != k or n < 1:
        raise ValueError("digamma_int requires an integer k >= 1")
    return -EULER_MASCHERONI + sum(1.0 / m for m in range(1, n))


def _order(nu) -> float:
    v = float(nu)
    if v < 0 or 2.0 * v != round(2.0 * v):
        raise ValueError("order must be a nonnegative integer or half-integer")
    return v


def _zeta_array(zeta):
    z = np.asarray(zeta, dtype=np.complex128)
    if np.any(z == 0):
        raise ValueError("zeta = 0 is outside the domain")
    if np.any(z.imag < 0):
        raise ValueError("zeta must lie in the closed upper half-plane")
    # force +0.0 imaginary parts so principal powers/logs stay on the upper
    # side of the cut along the negative real axis
    z = np.where(z.imag == 0.0, z.real + 0.0j, z)
    return z, np.ndim(zeta) == 0


def _cancellation_dps(z) -> int:
    return 20 + int(0.44 * (abs(z) + max(z.imag, 0.0)))


# ---------------------------------------------------------------------------
# Bessel J


def _j_series_f64(nu, z, max_terms):
    half = 0.5 * z
    term = np.exp(nu * np.log(half)) / math.gamma(nu + 1.0)
    total = term.copy()
    minus_q = -half * half
    for k in range(1, max_terms + 1):
        term = term * minus_q / (k * (k + nu))
        total = total + term
        if np.all(np.abs(term) <= _SERIES_RTOL * np.abs(total)):
            break
    return total


def _j_series_mp(nu, z, max_terms, dps=None):
    if dps is None:
        dps = _cancellation_dps(z)
    with mp.workdps(dps):
        half = mp.mpc(z) / 2
        term = mp.e ** (mp.mpf(nu) * mp.log(half)) / mp.gamma(nu + 1)
        total = term
        minus_q = -half * half
        cut = mp.mpf(10) ** (4 - dps)
        for k in range(1, max_terms + 1):
            term = term * minus_q / (k * (k + nu))
            total += term
            if abs(term) <= cut * abs(total):
                break
        return total


def bessel_j(nu, zeta, *, max_terms=SERIES_MAX_TERMS):
    """Bessel J of nonnegative integer or half-integer order.

    ``max_terms`` caps the power series; the default stops at relative
    level 1e-16.  Elements with |zeta| + Im zeta beyond the float64
    cancellation budget are evaluated in arbitrary precision.
    """
    v = _order(nu)
    z, scalar = _zeta_array(zeta)
    load = np.abs(z) + np.maximum(z.imag, 0.0)
    if np.any(load > _OVERFLOW_BUDGET):
        raise OverflowError("J overflows float64 for |zeta| + Im zeta > 650")
    flat = np.atleast_1d(z)
    out = np.empty_like(flat)
    big = np.atleast_1d(load) > _J_F64_BUDGET
    if np.any(~big):
        out[~big] = _j_series_f64(v, flat[~big], max_terms)
    for idx in np.flatnonzero(big):
        out[idx] = complex(_j_series_mp(v, complex(flat[idx]), max_terms))
    out = out.reshape(z.shape)
    return complex(out[()]) if scalar else out


# ---------------------------------------------------------------------------
# Bessel Y at integer order


def _y_int_f64(n, z, max_terms):
    half = 0.5 * z
    q = half * half
    log_half = np.log(half)
    jn = _j_series_f64(float(n), z, max_terms)
    w = digamma_int(1) + digamma_int(n + 1)
    t = np.full_like(z, 1.0 / math.factorial(n))
    reg = w * t
    for k in range(1, max_terms + 1):
        t = t * (-q) / (k * (n + k))
        w = w + 1.0 / k + 1.0 / (n + k)
        reg = reg + w * t
        if np.all(np.abs(w * t) <= _SERIES_RTOL * np.abs(reg)):
            break
    hp = np.exp(n * log_half)
    out = (2.0 / math.pi) * log_half * jn - (1.0 / math.pi) * reg * hp
    if n >= 1:
        a = np.full_like(z, float(math.factorial(n - 1)))
        sing = a.copy()
        for k in range(1, n):
            a = a * q / (k * (n - k))
            sing = sing + a
        out = out - (1.0 / math.pi) * sing / hp
    return out


def _jy_int_mp(n, z, max_terms, dps=None):
    # J_n and Y_n together at matched precision; the caller combines them
    # while still inside high precision if it needs H.
    if dps is None:
        dps = _cancellation_dps(z)
    with mp.workdps(dps):
        half = mp.mpc(z) / 2
        q = half * half
        cut = mp.mpf(10) ** (4 - dps)
        t = half**n / mp.factorial(n)
        jn = t
        for k in range(1, max_terms + 1):
            t = -t * q / (k * (k + n))
            jn += t
            if abs(t) <= cut * abs(jn):
                break
        w = -2 * mp.euler + mp.fsum(mp.mpf(1) / m for m in range(1, n + 1))
        t = 1 / mp.factorial(n)
        reg = w * t
        for k in range(1, max_terms + 1):
            t = -t * q / (k * (n + k))
            w = w + mp.mpf(1) / k + mp.mpf(1) / (n + k)
            reg += w * t
            if abs(w * t) <= cut * abs(reg):
                break
        y = (2 / mp.pi) * mp.log(half) * jn - (1 / mp.pi) * reg * half**n
        if n >= 1:
            a = mp.mpf(math.factorial(n - 1))
            sing = a
            for k in range(1, n):
                a = a * q / (k * (n - k))
                sing += a
            y -= (1 / mp.pi) * sing * half ** (-n)
        return jn, y


def bessel_y_int(n, zeta, *, max_terms=SERIES_MAX_TERMS):
    """Bessel Y at integer order n >= 0, via the digamma-weighted series."""
    m = int(n)
    if m != n or m < 0:
        raise ValueError("bessel_y_int requires an integer order n >= 0")
    z, scalar = _zeta_array(zeta)
    load = np.abs(z) + np.maximum(z.imag, 0.0)
    if np.any(load > _OVERFLOW_BUDGET):
        raise OverflowError("Y overflows float64 for |zeta| + Im zeta > 650")
    flat = np.atleast_1d(z)
    out = np.empty_like(flat)
    big = np.atleast_1d(load) > _H_F64_BUDGET
    if np.any(~big):
        out[~big] = _y_int_f64(m, flat[~big], max_terms)
    for idx in np.flatnonzero(big):
        _, y = _jy_int_mp(m, complex(flat[idx]), max_terms)
        out[idx] = complex(y)
    out = out.reshape(z.shape)
    return complex(out[()]) if scalar else out


# ---------------------------------------------------------------------------
# Hankel H^(1)


def _halfint_closed(v, z):
    j = int(v - 0.5)
    pref = (
        math.sqrt(2.0 / math.pi)
        * np.exp(-0.5 * np.log(z) + 1j * z)
        * (-1j) ** ((j + 1) % 4)
    )
    total = np.ones_like(z)
    u = np.ones_like(z)
    c = 1.0
    inv = 1.0 / (-2j * z)
    for k in range(1, j + 1):
        c = c * (j + k) * (j - k + 1) / k
        u = u * inv
        total = total + c * u
    return pref * total


def hankel1_halfint(nu, zeta):
    """Terminating closed form for half-integer order, exact at any zeta."""
    v = _order(nu)
    if v == int(v):
        raise ValueError("hankel1_halfint requires a half-integer order")
    z, scalar = _zeta_array(zeta)
    out = _halfint_closed(v, z)
    return complex(out[()]) if scalar else out


def _asym_prefactor(v, z):
    return math.sqrt(2.0 / math.pi) * np.exp(
        -0.5 * np.log(z) + 1j * (z - 0.5 * math.pi * v - 0.25 * math.pi)
    )


def _asym_sum_fixed(v, z, p):
    total = np.ones_like(z)
    t = np.ones_like(z)
    inv = 1.0 / (2j * z)
    for m in range(1, p):
        t = t * (((m - 0.5) ** 2 - v * v) / m) * inv
        total = total + t
    return total, np.abs(t)


def hankel1_asymptotic(nu, zeta, p):
    """Large-argument expansion of H^(1) truncated at p terms.

    Returns ``(value, remainder_scale)`` where the scale is the modulus of
    the last included term times the prefactor, an a-posteriori proxy for
    the truncation error.  Refuses |zeta| < ASYMPTOTIC_MIN_ABS and
    arguments within 1e-8 of the negative real axis.
    """
    v = _order(nu)
    pp = int(p)
    if pp != p or pp < 1:
        raise ValueError("p must be an integer >= 1")
    z, scalar = _zeta_array(zeta)
    if np.any(np.abs(z) < ASYMPTOTIC_MIN_ABS):
        raise ValueError("asymptotic branch refused below |zeta| = 15")
    if np.any(np.angle(z) > math.pi - _ASYM_ARG_DELTA):
        raise ValueError("asymptotic branch refused near the negative real axis")
    flat = np.atleast_1d(z)
    pref = _asym_prefactor(v, flat)
    total, last = _asym_sum_fixed(v, flat, pp)
    value = (pref * total).reshape(z.shape)
    scale = (np.abs(pref) * last).reshape(z.shape)
    if scalar:
        return complex(value[()]), float(scale[()])
    return value, scale


def hankel1(nu, zeta):
    """Hankel H^(1) of nonnegative integer or half-integer order.

    Half-integer orders use the exact terminating closed form everywhere.
    Integer orders use scipy's AMOS routine after the domain checks and
    the +0.0 branch normalization.  The series and asymptotic routes are
    reference oracles only (``hankel1_series``, ``hankel1_asymptotic``).
    """
    v = _order(nu)
    z, scalar = _zeta_array(zeta)
    if v != int(v):
        out = _halfint_closed(v, z)
    else:
        # imported on first use: scipy.special adds ~0.1 s to package import
        from scipy.special import hankel1 as amos_hankel1

        out = amos_hankel1(v, z)
    return complex(out[()]) if scalar else out


def hankel1_any(nu, zeta):
    """H^(1) of arbitrary-sign order via the reflection H_{-v} = e^{iv pi} H_v."""
    v = float(nu)
    if 2.0 * v != round(2.0 * v):
        raise ValueError("order must be an integer or half-integer")
    if v >= 0:
        return hankel1(v, zeta)
    w = -v
    if w == int(w):
        phase = (-1.0) ** int(w)
    else:
        phase = 1j * (-1.0) ** int(w - 0.5)
    return phase * hankel1(w, zeta)


def hankel1_series(nu, zeta, *, dps=None, max_terms=SERIES_MAX_TERMS):
    """Reference J + iY series route, independent of the production ``hankel1``.

    Integer orders assemble J_n + iY_n; half-integer orders use the
    reflection Y_v = -(-1)^j J_{-v} with v = j + 1/2.  Float64 by default;
    pass ``dps`` for arbitrary-precision evaluation (the assembly cancels
    like e^(2 Im zeta), so large arguments need it).
    """
    v = _order(nu)
    z, scalar = _zeta_array(zeta)
    if v == int(v):
        n = int(v)
        if dps is None:
            out = _j_series_f64(v, z, max_terms) + 1j * _y_int_f64(n, z, max_terms)
        else:
            flat = np.atleast_1d(z)
            out = np.empty_like(flat)
            for idx in range(flat.size):
                with mp.workdps(dps):
                    jn, y = _jy_int_mp(n, complex(flat[idx]), max_terms, dps=dps)
                    out[idx] = complex(jn + mp.mpc(0, 1) * y)
            out = out.reshape(z.shape)
    else:
        j = int(v - 0.5)
        sign = (-1.0) ** j
        if dps is None:
            out = _j_series_f64(v, z, max_terms) - 1j * sign * _j_series_f64(-v, z, max_terms)
        else:
            flat = np.atleast_1d(z)
            out = np.empty_like(flat)
            for idx in range(flat.size):
                with mp.workdps(dps):
                    jp = _j_series_mp(v, complex(flat[idx]), max_terms, dps=dps)
                    jm = _j_series_mp(-v, complex(flat[idx]), max_terms, dps=dps)
                    out[idx] = complex(jp - mp.mpc(0, 1) * sign * jm)
            out = out.reshape(z.shape)
    return complex(out[()]) if scalar else out
