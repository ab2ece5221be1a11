"""Special-function routes: series, closed forms, asymptotics, production hankel1."""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshift import specfun


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# Bessel J


def test_j0_small_argument_limit():
    assert abs(specfun.bessel_j(0, 1e-8) - 1.0) < 1e-15


def test_j_half_closed_form():
    # J_{1/2}(z) = sqrt(2/(pi z)) sin z
    assert rel(specfun.bessel_j(0.5, math.pi / 2), 2.0 / math.pi) < 1e-14
    z = 2.3
    want = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
    assert rel(specfun.bessel_j(0.5, z), want) < 1e-14


def test_j1_two_truncations_agree():
    a = specfun.bessel_j(1, 1.0, max_terms=8)
    b = specfun.bessel_j(1, 1.0, max_terms=200)
    assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("nu", [0, 1, 2, 3, 0.5, 2.5])
def test_j_matches_scipy(nu):
    for z in (0.3, 1.0, 7.2, 2 + 1j, 0.5 + 3j, 11.0, 20.0, 14j):
        got = specfun.bessel_j(nu, z)
        want = sps.jv(nu, complex(z))
        assert rel(got, want) < 1e-10, (nu, z)


def test_j_rejects_bad_inputs():
    with pytest.raises(ValueError):
        specfun.bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(0.3, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(0, 0.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(0, 1 - 1j)


def test_j_overflow_flagged():
    with pytest.raises(OverflowError):
        specfun.bessel_j(0, 700j)


# ---------------------------------------------------------------------------
# digamma


def test_digamma_values():
    assert abs(specfun.digamma_int(1) + 0.5772156649015328606) < 1e-15
    assert abs(specfun.digamma_int(2) - (1.0 - 0.5772156649015328606)) < 1e-15
    assert abs(specfun.digamma_int(4) - specfun.digamma_int(3) - 1.0 / 3.0) < 1e-15


def test_digamma_rejects_nonpositive_and_fractional():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            specfun.digamma_int(bad)


# ---------------------------------------------------------------------------
# Bessel Y (integer order)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_y_int_matches_scipy(n):
    for z in (0.2, 1.0, 5.5, 3 + 2j, 13.0):
        got = specfun.bessel_y_int(n, z)
        want = sps.yv(n, complex(z))
        assert rel(got, want) < 1e-10, (n, z)


# ---------------------------------------------------------------------------
# Hankel H^(1): pinned closed-form values


def test_hankel_half_at_pi_over_2():
    assert rel(specfun.hankel1(0.5, math.pi / 2), 2.0 / math.pi) < 1e-14


def test_hankel_three_halves_at_one():
    want = -math.sqrt(2.0 / math.pi) * cmath.exp(1j) * (1 + 1j)
    assert rel(specfun.hankel1(1.5, 1.0), want) < 1e-14


def test_h0_log_behavior_near_zero():
    # H0(z) - (2i/pi) ln z tends to a constant; the z^2 ln z correction is
    # below 1e-10 at these sample points.
    d6 = specfun.hankel1(0, 1e-6) - (2j / math.pi) * cmath.log(1e-6)
    d9 = specfun.hankel1(0, 1e-9) - (2j / math.pi) * cmath.log(1e-9)
    assert abs(d6) < 1.2
    assert abs(d6 - d9) < 1e-10


# ---------------------------------------------------------------------------
# Hankel H^(1): route cross-checks


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
def test_halfint_closed_vs_series_route(nu):
    rng = np.random.default_rng(11)
    for _ in range(40):
        r = rng.uniform(0.05, 10.0)
        phi = rng.uniform(0.0, math.pi)
        z = r * cmath.exp(1j * phi)
        closed = specfun.hankel1_halfint(nu, z)
        series = specfun.hankel1_series(nu, z, dps=40)
        assert rel(closed, series) < 1e-10, (nu, z)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_hankel_integer_matches_scipy(n):
    for z in (0.1, 1.0, 7.0, 2 + 1j, 5 + 4j, 12.0, 14.0, 30.0, 45.0, 5j):
        got = specfun.hankel1(n, z)
        want = sps.hankel1(n, complex(z))
        assert rel(got, want) < 1e-10, (n, z)
    for z in (17.0, 18.0, 18.4, 19.5, 24.0):
        got = specfun.hankel1(n, z)
        want = sps.hankel1(n, complex(z))
        assert rel(got, want) < 2e-8, (n, z)


def test_hankel_strongly_complex_dispatch_corner():
    # a float64 J + iY assembly would cancel here
    for n, z in [(0, 10j), (1, 17j), (2, 9.5j), (0, 10 + 8j), (3, 14j)]:
        got = specfun.hankel1(n, z)
        want = sps.hankel1(n, complex(z))
        assert rel(got, want) < 3e-8, (n, z)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_hankel_integer_matches_high_precision_series(n):
    # the free-kernel band: zeta = z s for the scan energies, s in [0.1, 10];
    # the mpmath series shares no code with the production route
    s = np.linspace(0.1, 10.0, 60)
    for z in (3 + 1j, 1j, 2.0, 0.5 + 5j, -2.0):
        got = specfun.hankel1(n, z * s)
        want = specfun.hankel1_series(n, z * s, dps=60)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, (n, z)


def test_hankel_negative_real_axis_branch():
    # upper side of the cut: compare against the reflection formula
    # H^(1)_n(-t) evaluated through scipy with explicit upper-side limit
    for n in (0, 1):
        got = specfun.hankel1(n, -8.0)
        want = sps.hankel1(n, complex(-8.0, 1e-12))
        assert rel(got, want) < 1e-9, n


def test_series_reference_route_high_precision():
    for nu, z in [(0, 30.0), (1, 25 + 12j), (1.5, 38j), (2, 20.0)]:
        got = specfun.hankel1_series(nu, z, dps=60)
        want = sps.hankel1(nu, complex(z))
        # scipy itself is good to ~1e-13 here
        assert rel(got, want) < 1e-12, (nu, z)


# ---------------------------------------------------------------------------
# Asymptotic branch


def test_asymptotic_halfint_terminates_at_p1():
    for z in (30.0, 20 + 7j, 16j):
        v, scale = specfun.hankel1_asymptotic(0.5, z, 1)
        assert rel(v, specfun.hankel1(0.5, z)) < 5e-15
        got_scale = abs(math.sqrt(2.0 / math.pi) * cmath.exp(-0.5 * cmath.log(complex(z))))
        assert scale > 0.0 and abs(scale - got_scale * abs(cmath.exp(1j * complex(z)))) < 1e-12


def test_asymptotic_vs_series_at_40():
    v, _ = specfun.hankel1_asymptotic(0, 40.0, 12)
    s = specfun.hankel1_series(0, 40.0, dps=60)
    assert rel(v, s) < 1e-6


def test_remainder_scale_monotone_in_p():
    scales = [specfun.hankel1_asymptotic(1, 30 + 5j, p)[1] for p in range(1, 7)]
    assert all(a > b for a, b in zip(scales, scales[1:]))


def test_overlap_window_series_vs_asymptotic():
    rng = np.random.default_rng(7)
    orders = [0, 1, 2, 3, 0.5, 1.5, 2.5, 3.5]
    for _ in range(60):
        nu = orders[rng.integers(0, len(orders))]
        r = rng.uniform(20.0, 40.0)
        phi = rng.uniform(0.0, math.pi - 1e-3)
        z = r * cmath.exp(1j * phi)
        a, _ = specfun.hankel1_asymptotic(nu, z, 28)
        s = specfun.hankel1_series(nu, z, dps=80)
        assert rel(a, s) < 1e-6, (nu, z)


def test_asymptotic_refusals():
    with pytest.raises(ValueError):
        specfun.hankel1_asymptotic(0, 10.0, 5)
    with pytest.raises(ValueError):
        specfun.hankel1_asymptotic(0, -30.0, 5)
    with pytest.raises(ValueError):
        specfun.hankel1_asymptotic(0, 30.0, 0)


# ---------------------------------------------------------------------------
# Reflection identities


def test_reflection_integer_orders():
    z = 2.3 + 0.4j
    for n in (1, 2, 3):
        got = specfun.hankel1_any(-n, z)
        want = (-1.0) ** n * specfun.hankel1(n, z)
        assert rel(got, want) < 1e-12
        assert rel(got, sps.hankel1(-n, z)) < 1e-10


def test_reflection_half_integer_orders():
    z = 2.3 + 0.4j
    got = specfun.hankel1_any(-0.5, z)
    want = 1j * specfun.hankel1(0.5, z)
    assert rel(got, want) < 1e-12
    assert rel(got, sps.hankel1(-0.5, z)) < 1e-10
    assert rel(specfun.hankel1_any(-1.5, z), sps.hankel1(-1.5, z)) < 1e-10


# ---------------------------------------------------------------------------
# Vectorization


def test_vectorized_matches_scalar_across_regimes():
    zs = np.array([0.5, 1.0, 10.0, 24.0, 26.0, 40.0, 2 + 1j, 10j, 17j, -20.0 + 0j])
    for nu in (0, 1, 1.5):
        vec = specfun.hankel1(nu, zs)
        sca = np.array([specfun.hankel1(nu, complex(w)) for w in zs])
        assert np.max(np.abs(vec - sca)) == 0.0


def test_vectorized_preserves_shape():
    zs = np.linspace(0.5, 3.0, 12).reshape(3, 4) + 0.25j
    out = specfun.hankel1(0, zs)
    assert out.shape == (3, 4)


# ---------------------------------------------------------------------------
# Wronskian property tying J and Y together


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-7.0, 7.0),
    im=st.floats(0.0, 7.0),
    n=st.integers(0, 3),
)
def test_wronskian_identity(re, im, n):
    z = complex(re, im)
    if abs(z) < 0.05:
        return
    jn = specfun.bessel_j(n, z)
    jn1 = specfun.bessel_j(n + 1, z)
    yn = specfun.bessel_y_int(n, z)
    yn1 = specfun.bessel_y_int(n + 1, z)
    lhs = jn1 * yn - jn * yn1
    rhs = 2.0 / (math.pi * z)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(jn1 * yn), abs(jn * yn1))


# ---------------------------------------------------------------------------
# Domain rejections for hankel1


def test_hankel_rejects_bad_inputs():
    with pytest.raises(ValueError):
        specfun.hankel1(0, 0.0)
    with pytest.raises(ValueError):
        specfun.hankel1(1, 1 - 2j)
    with pytest.raises(ValueError):
        specfun.hankel1(-1, 1.0)
    with pytest.raises(ValueError):
        specfun.hankel1_halfint(1, 1.0)
