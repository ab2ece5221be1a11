import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshift import clifford, green
from conftest import random_unit, random_unitary


def _pair(rng, n, smin=0.3, smax=3.0):
    x = rng.normal(size=n)
    u = random_unit(rng, n)
    return x, x - rng.uniform(smin, smax) * u


# ---------------------------------------------------------------------------
# kernel values


def test_three_dim_worked_example(reps):
    rep = reps[3]
    got = green.green0(rep, 1j, np.array([1.0, 0.0, 0.0]), np.zeros(3))
    want = (math.exp(-1) / (4 * math.pi)) * 1j * (np.eye(4) + 2 * rep.alphas[0])
    assert np.linalg.norm(got - want) < 1e-14


def test_three_dim_closed_vs_generic(reps):
    rep = reps[3]
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y = _pair(rng, 3)
        z = complex(rng.normal(), abs(rng.normal()) + 0.05)
        a = green.green0(rep, z, x, y, route="closed")
        b = green.green0(rep, z, x, y, route="generic")
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


def test_closed_route_rejected_off_three_dim(reps):
    with pytest.raises(ValueError):
        green.green0(reps[4], 1j, np.ones(4), np.zeros(4), route="closed")
    with pytest.raises(ValueError):
        green.green0(reps[3], 1j, np.ones(3), np.zeros(3), route="sideways")


def test_two_dim_modified_bessel_oracle(reps):
    # on the imaginary axis the kernel reduces to K0/K1 Macdonald functions
    from scipy.special import k0, k1

    rep = reps[2]
    rng = np.random.default_rng(5)
    for mu in (0.3, 1.0, 2.0, 6.0):
        x, y = _pair(rng, 2)
        w = x - y
        s = np.linalg.norm(w)
        au = clifford.dirac_symbol(rep, w / s)
        want = (1j * mu / (2 * math.pi)) * (k0(mu * s) * np.eye(2) + k1(mu * s) * au)
        got = green.green0(rep, 1j * mu, x, y)
        assert np.linalg.norm(got - want) <= 5e-9 * np.linalg.norm(want)


def test_two_dim_small_z_approaches_limit(reps):
    rep = reps[2]
    x = np.array([0.8, -0.3])
    y = np.array([0.1, 0.25])
    lim = green.green0_limit0(rep, x, y)
    got = green.green0(rep, 1e-8j, x, y)
    assert np.linalg.norm(got - lim) <= 1e-6 * np.linalg.norm(lim)


@pytest.mark.parametrize("n", [2, 3])
def test_zero_limit_monotone(reps, n):
    rep = reps[n]
    rng = np.random.default_rng(n)
    x, y = _pair(rng, n, smin=0.5, smax=1.5)
    lim = green.green0_limit0(rep, x, y)
    errs = [
        np.linalg.norm(green.green0(rep, 1j * 2.0**-k, x, y) - lim)
        for k in range(3, 13)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("n,denom", [(2, 2.0), (3, 4.0)])
def test_limit_kernel_coefficient(reps, n, denom):
    # i/(2 pi) in two dimensions, i/(4 pi) in three
    rep = reps[n]
    x = np.ones(n)
    y = np.zeros(n)
    s = math.sqrt(n)
    want = (1j / (denom * math.pi)) * clifford.dirac_symbol(rep, x) / s**n
    assert np.linalg.norm(green.green0_limit0(rep, x, y) - want) < 1e-15


def test_limit_kernel_antisymmetry(reps):
    rng = np.random.default_rng(9)
    for n in (2, 3, 5):
        x, y = _pair(rng, n)
        a = green.green0_limit0(reps[n], x, y)
        b = green.green0_limit0(reps[n], y, x)
        assert np.linalg.norm(a + b) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=9, max_size=9
    ),
    zre=st.floats(min_value=-2, max_value=2),
    zim=st.floats(min_value=0.1, max_value=2),
)
def test_translation_invariance(data, zre, zim):
    rep = clifford.build_clifford(3)
    x = np.array(data[:3])
    y = np.array(data[3:6])
    t = np.array(data[6:])
    if np.linalg.norm(x - y) < 0.05:
        return
    z = complex(zre, zim)
    a = green.green0(rep, z, x, y)
    b = green.green0(rep, z, x + t, y + t)
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=6, max_size=6
    ),
    k=st.integers(min_value=-2, max_value=2),
)
def test_binary_scaling_relation(data, k):
    # G0(z/lam; lam x, lam y) = lam^(1-n) G0(z; x, y) for exact binary lam
    rep = clifford.build_clifford(3)
    x = np.array(data[:3])
    y = np.array(data[3:])
    if np.linalg.norm(x - y) < 0.05:
        return
    lam = 2.0**k
    z = 0.7 + 0.9j
    a = green.green0(rep, z / lam, lam * x, lam * y)
    b = lam ** (1 - 3) * green.green0(rep, z, x, y)
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_representation_independence(reps, n):
    rng = np.random.default_rng(n + 20)
    rep = reps[n]
    w = random_unitary(rng, rep.N)
    rep2 = clifford.conjugate_rep(rep, w)
    x, y = _pair(rng, n)
    z = 0.6 + 0.8j
    a = green.green0(rep2, z, x, y)
    b = w @ green.green0(rep, z, x, y) @ w.conj().T
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_green0_rejections(reps):
    rep = reps[2]
    x = np.ones(2)
    with pytest.raises(ValueError):
        green.green0(rep, 1j, x, x)
    with pytest.raises(ValueError):
        green.green0(rep, 1 - 1j, x, np.zeros(2))
    with pytest.raises(ValueError):
        green.green0(rep, 0.0, x, np.zeros(2))
    with pytest.raises(ValueError):
        green.green0(rep, 1j, np.ones(3), np.zeros(2))


# ---------------------------------------------------------------------------
# batch evaluation


def test_batch_matches_single(reps):
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        rep = reps[n]
        diffs = rng.normal(size=(30, n))
        z = 0.8 + 0.6j
        batch = green.green0_many(rep, z, diffs)
        assert batch.shape == (30, rep.N, rep.N)
        for i in range(30):
            ref = green.green0(rep, z, diffs[i], np.zeros(n))
            assert np.linalg.norm(batch[i] - ref) < 1e-13 * np.linalg.norm(ref)


def test_batch_composition_does_not_change_kernels(reps):
    # each kernel depends only on its own separation: evaluating a scan in
    # chunks must reproduce the whole batch bit for bit
    rng = np.random.default_rng(5)
    distances = np.linspace(0.1, 10.0, 500)
    for n in (2, 3, 4):
        rep = reps[n]
        diffs = distances[:, None] * random_unit(rng, n)[None, :]
        z = 3 + 1j
        whole = green.green0_many(rep, z, diffs)
        parts = [green.green0_many(rep, z, c) for c in np.array_split(diffs, 7)]
        assert np.array_equal(whole, np.concatenate(parts))


def test_batch_zero_energy(reps):
    rng = np.random.default_rng(3)
    rep = reps[3]
    diffs = rng.normal(size=(12, 3))
    batch = green.green0_many(rep, 0.0, diffs)
    for i in range(12):
        ref = green.green0_limit0(rep, diffs[i], np.zeros(3))
        assert np.linalg.norm(batch[i] - ref) < 1e-14 * np.linalg.norm(ref)


def test_batch_rejections(reps):
    rep = reps[2]
    with pytest.raises(ValueError):
        green.green0_many(rep, 1j, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        green.green0_many(rep, 1j, np.ones((3, 4)))


# ---------------------------------------------------------------------------
# z-derivatives


def test_deriv_first_order_finite_difference(reps):
    rng = np.random.default_rng(31)
    h = 1e-4
    for n in (2, 3, 4, 5):
        rep = reps[n]
        x, y = _pair(rng, n)
        z = complex(rng.normal(), 0.5 + abs(rng.normal()))
        fd = (green.green0(rep, z + h, x, y) - green.green0(rep, z - h, x, y)) / (2 * h)
        an = green.green0_deriv(rep, 1, z, x, y).value
        assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(an)


def test_deriv_finite_difference_all_orders(reps):
    # FD of the (r-1)-th derivative against the r-th, 20 random configurations
    rng = np.random.default_rng(12)
    h = 1e-4
    for _ in range(20):
        n = int(rng.integers(2, 6))
        rep = reps[n]
        x, y = _pair(rng, n)
        z = complex(rng.normal(), 0.5 + abs(rng.normal()))
        for r in range(1, min(n, 4) + 1):
            if r == 1:
                up = green.green0(rep, z + h, x, y)
                dn = green.green0(rep, z - h, x, y)
            else:
                up = green.green0_deriv(rep, r - 1, z + h, x, y).value
                dn = green.green0_deriv(rep, r - 1, z - h, x, y).value
            fd = (up - dn) / (2 * h)
            an = green.green0_deriv(rep, r, z, x, y).value
            assert np.linalg.norm(fd - an) <= 2e-5 * np.linalg.norm(an)


@pytest.mark.parametrize("n", range(2, 9))
def test_deriv_crossover_band_agreement(reps, n):
    rep = reps[n]
    rng = np.random.default_rng(n + 40)
    for _ in range(8):
        x, y = _pair(rng, n)
        s = np.linalg.norm(x - y)
        target = rng.uniform(green.CROSSOVER_LO, green.CROSSOVER_HI)
        phi = rng.uniform(0.05, math.pi - 0.1)
        z = (target / s) * complex(math.cos(phi), math.sin(phi))
        for r in range(1, min(n, 4) + 1):
            a = green.green0_deriv(rep, r, z, x, y, regime="series")
            b = green.green0_deriv(rep, r, z, x, y, regime="asymptotic")
            assert a.regime == "series" and b.regime == "asymptotic"
            gap = np.linalg.norm(a.value - b.value)
            assert gap <= 1e-5 * np.linalg.norm(b.value)


def test_deriv_auto_regime_split(reps):
    rep = reps[3]
    x = np.array([1.0, 0.0, 0.0])
    y = np.zeros(3)
    assert green.green0_deriv(rep, 1, 0.5j, x, y).regime == "series"
    assert green.green0_deriv(rep, 1, 2.0j, x, y).regime == "asymptotic"


@pytest.mark.parametrize("n", [3, 5])
def test_deriv_odd_top_order_vanishes_on_diagonal(reps, n):
    # the n-th derivative decays like |x-y| as the points merge
    rep = reps[n]
    u = random_unit(np.random.default_rng(n), n)
    z = 0.7 + 0.4j
    mags = [
        np.linalg.norm(green.green0_deriv(rep, n, z, s * u, np.zeros(n)).value)
        for s in (1e-3, 1e-4)
    ]
    slope = math.log10(mags[0] / mags[1])
    assert abs(slope - 1.0) < 0.05


def test_deriv_two_dim_second_order_singular_term(reps):
    # z * (d^2 G0 / dz^2) tends to -(1/2pi) I as z -> 0
    rep = reps[2]
    x = np.array([0.7, -0.2])
    y = np.array([0.1, 0.3])
    z = 1e-6j
    got = z * green.green0_deriv(rep, 2, z, x, y).value
    want = -1.0 / (2 * math.pi)
    assert abs(got[0, 0] - want) <= 1e-3 * abs(want)
    assert abs(got[1, 1] - want) <= 1e-3 * abs(want)
    assert abs(got[0, 1]) <= 1e-3 * abs(want)


def test_deriv_rejections(reps):
    rep = reps[3]
    x = np.ones(3)
    y = np.zeros(3)
    for bad in (0, 4, -1, 1.5):
        with pytest.raises(ValueError):
            green.green0_deriv(rep, bad, 1j, x, y)
    with pytest.raises(ValueError):
        green.green0_deriv(rep, 1, 1j, x, x)
    with pytest.raises(ValueError):
        green.green0_deriv(rep, 1, 1j, x, y, regime="closed")


# ---------------------------------------------------------------------------
# odd-dimension coefficients


def test_coeffs_three_dim_factorials():
    got = green.odd_dim_coeffs(3)
    from fractions import Fraction

    for j, dj in enumerate(got.d):
        assert dj == Fraction(1, math.factorial(j))


def test_coeffs_five_dim_first_vanishes():
    assert green.odd_dim_coeffs(5).d[1] == 0


def test_coeffs_seven_dim_odd_dprime_vanish():
    got = green.odd_dim_coeffs(7)
    assert got.dprime[1] == got.dprime[3] == got.dprime[5] == 0


@pytest.mark.parametrize("n", [5, 7, 9])
def test_coeffs_vanishing_pattern_exact(n):
    got = green.odd_dim_coeffs(n)
    for j in range(1, n - 3, 2):
        assert got.d[j] == 0
    for j in range(1, n - 1, 2):
        assert got.dprime[j] == 0


def test_coeffs_generating_function_oracle():
    # sum_j d_j t^j equals exp(t) times the closing polynomial, exactly
    import sympy as sp

    t = sp.symbols("t")
    n = 5
    jmax = 2 * n
    for which, m in (("d", (n - 3) // 2), ("dprime", (n - 1) // 2)):
        poly = sum(
            sp.Rational(
                math.factorial(m + k), math.factorial(k) * math.factorial(m - k)
            )
            * sp.Rational(-1, 2) ** k
            * t ** (m - k)
            for k in range(m + 1)
        )
        series = sp.expand(poly * sp.exp(t).series(t, 0, jmax + m + 2).removeO())
        got = getattr(green.odd_dim_coeffs(n), which)
        for j in range(jmax + 1):
            assert sp.Rational(got[j].numerator, got[j].denominator) == series.coeff(
                t, j
            )


def test_coeffs_rejections():
    for bad in (4, 1, 15, 5.5):
        with pytest.raises(ValueError):
            green.odd_dim_coeffs(bad)


# ---------------------------------------------------------------------------
# envelope diagnostics


def test_bound_report_inner_odd(reps):
    rep = reps[3]
    rng = np.random.default_rng(17)
    z = 0.5
    samples = []
    for _ in range(1000):
        u = random_unit(rng, 3)
        s = rng.uniform(0.02, 1.9)
        samples.append((s * u, np.zeros(3)))
    rpt = green.kernel_bound_report(rep, z, samples)
    inner = rpt["regimes"]["inner"]
    assert inner["count"] > 0
    assert inner["nonfinite"] == 0
    assert 0 < inner["max_ratio"] < 10.0


def test_bound_report_outer(reps):
    rep = reps[2]
    rng = np.random.default_rng(18)
    z = 3.0 + 0.5j
    samples = [(s * random_unit(rng, 2), np.zeros(2)) for s in rng.uniform(0.5, 5, 300)]
    rpt = green.kernel_bound_report(rep, z, samples)
    outer = rpt["regimes"]["outer"]
    assert outer["nonfinite"] == 0
    assert 0 < outer["max_ratio"] < 10.0


def test_bound_report_real_z(reps):
    rep = reps[3]
    rng = np.random.default_rng(19)
    samples = [(s * random_unit(rng, 3), np.zeros(3)) for s in rng.uniform(0.5, 3, 100)]
    rpt = green.kernel_bound_report(rep, 4.0, samples, r=1)
    assert rpt["regimes"]["outer"]["nonfinite"] == 0
    assert rpt["regimes"]["outer"]["max_ratio"] > 0


def test_bound_report_rejections(reps):
    rep = reps[2]
    with pytest.raises(ValueError):
        green.kernel_bound_report(rep, 1j, [])
    with pytest.raises(ValueError):
        green.kernel_bound_report(rep, 1j, [(np.ones(2), np.zeros(2))], delta=1.5)
    with pytest.raises(ValueError):
        green.kernel_bound_report(rep, 0.0, [(np.ones(2), np.zeros(2))], r=1)


# ---------------------------------------------------------------------------
# massive kernel


def test_massive_massless_limit(reps):
    # the mass block enters at first order, so the deviation at m = 1e-6
    # scales like m/|z|; |z| = 200 leaves a factor-2 margin under 1e-8
    rng = np.random.default_rng(23)
    z = complex(120.0, 160.0)
    for n in (2, 3, 4, 5):
        rep = reps[n]
        x, y = _pair(rng, n, smin=0.01, smax=0.03)
        a = green.green0_massive(rep, 1e-6, z, x, y)
        b = green.green0(rep, z, x, y)
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


def test_massive_deviation_linear_in_m(reps):
    rep = reps[3]
    x = np.array([0.3, -0.1, 0.2])
    y = np.array([-0.2, 0.05, 0.0])
    z = 2.0 + 1.5j
    b = green.green0(rep, z, x, y)
    d1 = np.linalg.norm(green.green0_massive(rep, 1e-4, z, x, y) - b)
    d2 = np.linalg.norm(green.green0_massive(rep, 5e-5, z, x, y) - b)
    assert abs(d1 / d2 - 2.0) < 0.01


def test_massive_two_dim_log_blowup(reps):
    # near z = m the kernel grows like -(4 pi)^-1 ln(z^2 - m^2) (m beta + m I)
    rep = reps[2]
    m = 1.0
    x = np.array([0.4, 0.1])
    y = np.array([-0.1, -0.2])
    vals = []
    logs = []
    for delta in (1e-4, 1e-8):
        z = m * (1.0 - delta)
        vals.append(green.green0_massive(rep, m, z, x, y))
        logs.append(math.log(abs(z * z - m * m)))
    slope = (vals[0] - vals[1]) / (logs[0] - logs[1])
    want = -(m / (4 * math.pi)) * (rep.beta + np.eye(2))
    assert np.linalg.norm(slope - want) <= 1e-2 * np.linalg.norm(want)


def test_massive_three_dim_finite_threshold_limit(reps):
    rep = reps[3]
    m = 0.8
    x = np.array([0.5, -0.3, 0.2])
    y = np.zeros(3)
    s = np.linalg.norm(x - y)
    au = clifford.dirac_symbol(rep, (x - y) / s)
    want = (m / (4 * math.pi * s)) * (rep.beta + np.eye(4)) + (
        1j / (4 * math.pi * s * s)
    ) * au
    got = green.green0_massive(rep, m, m * (1 - 1e-10), x, y)
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


def test_massive_adjoint_across_real_axis(reps):
    # resolvent symmetry ties the lower half-plane branch to the upper one
    rep = reps[3]
    rng = np.random.default_rng(29)
    x, y = _pair(rng, 3)
    z = 1.2 + 0.7j
    a = green.green0_massive(rep, 0.7, np.conj(z), x, y)
    b = green.green0_massive(rep, 0.7, z, y, x).conj().T
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_massive_rejections(reps):
    rep = reps[2]
    x = np.ones(2)
    y = np.zeros(2)
    with pytest.raises(ValueError):
        green.green0_massive(rep, -1.0, 1j, x, y)
    with pytest.raises(ValueError):
        green.green0_massive(rep, 1.0, 2.0, x, y)
    with pytest.raises(ValueError):
        green.green0_massive(rep, 1.0, 1.0, x, y)
    # real z inside the spectral gap is allowed
    v = green.green0_massive(rep, 1.0, 0.3, x, y)
    assert np.all(np.isfinite(v))


# ---------------------------------------------------------------------------
# Riesz potential normalization


def test_riesz_gamma_value():
    assert math.isclose(green.riesz_gamma(2.0, 4), 4 * math.pi**2, rel_tol=1e-14)


def test_riesz_gamma_composition_one_dim():
    # convolution of |x|^(a-1) and |x|^(b-1) kernels on the line
    from scipy.integrate import quad

    a, b = 0.3, 0.4
    x1, x2 = -0.4, 0.9
    want = (
        green.riesz_gamma(a, 1)
        * green.riesz_gamma(b, 1)
        / green.riesz_gamma(a + b, 1)
        * abs(x1 - x2) ** (a + b - 1)
    )

    def integrand(t):
        return abs(x1 - t) ** (a - 1) * abs(t - x2) ** (b - 1)

    # singular points sit at segment endpoints, where quad handles them well
    got = 0.0
    for lo, hi in ((-40.0, x1), (x1, x2), (x2, 41.0)):
        part, _ = quad(integrand, lo, hi, limit=400, epsabs=1e-9, epsrel=1e-9)
        got += part
    # truncation tail: integrand ~ |t|^(a+b-2) far out
    tail = 2 * 40.0 ** (a + b - 1) / (1 - a - b)
    assert abs(got - want) <= tail + 1e-3 * want


def test_riesz_gamma_rejections():
    for bad_alpha, n in ((0.0, 2), (2.0, 2), (-1.0, 3), (3.5, 3)):
        with pytest.raises(ValueError):
            green.riesz_gamma(bad_alpha, n)
