import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from diracshift.ssf import (
    MatrixPair,
    OperatorWord,
    abel_transform,
    abel_zero_limit,
    g_correction,
    g_deriv_paper,
    load_pair,
    perturbation_logdet,
    ssf_boundary,
    ssf_count_oracle,
    trace_formula_residual,
    witten_index,
)
from fractions import Fraction


def make_pair(rng, d, scale=0.8):
    return MatrixPair(random_hermitian(rng, d), random_hermitian(rng, d, scale))


# ---------------------------------------------------------------- counting


def test_count_oracle_direct_shift():
    pair = MatrixPair(np.diag([0.0, 2.0]), np.diag([1.0, 1.0]))
    assert ssf_count_oracle(pair, 0.5) == 1


def test_count_oracle_zero_perturbation():
    rng = np.random.default_rng(3)
    pair = MatrixPair(random_hermitian(rng, 5), np.zeros((5, 5)))
    eig = np.linalg.eigvalsh(pair.s0)
    for lam in np.linspace(eig.min() - 1, eig.max() + 1, 7):
        if np.abs(eig - lam).min() > 1e-6:
            assert ssf_count_oracle(pair, lam) == 0


def test_count_oracle_interlacing_rank_one():
    # a positive rank-1 bump pushes each eigenvalue past at most one
    # neighbour, so the shift is 0 or 1 everywhere
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = 6
        u = rng.normal(size=(d, 1)) + 1j * rng.normal(size=(d, 1))
        pair = MatrixPair(random_hermitian(rng, d), 0.9 * (u @ u.conj().T))
        eig = np.concatenate(
            [np.linalg.eigvalsh(pair.s0), np.linalg.eigvalsh(pair.s)]
        )
        for lam in rng.uniform(eig.min() - 0.5, eig.max() + 0.5, size=4):
            if np.abs(eig - lam).min() < 1e-9:
                continue
            assert ssf_count_oracle(pair, lam) in (0, 1)


def test_count_oracle_collision_rejected():
    pair = MatrixPair(np.diag([0.0, 2.0]), np.diag([1.0, 1.0]))
    with pytest.raises(ValueError, match="collides"):
        ssf_count_oracle(pair, 2.0)


def test_count_oracle_antisymmetric_under_swap():
    rng = np.random.default_rng(17)
    pair = make_pair(rng, 6)
    swapped = MatrixPair(pair.s, -pair.v)
    eig = np.concatenate([np.linalg.eigvalsh(pair.s0), np.linalg.eigvalsh(pair.s)])
    for lam in np.linspace(eig.min() - 0.5, eig.max() + 0.5, 9):
        if np.abs(eig - lam).min() < 1e-9:
            continue
        assert ssf_count_oracle(swapped, lam) == -ssf_count_oracle(pair, lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
def test_count_oracle_bounded_by_rank(seed, d):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
    pair = MatrixPair(random_hermitian(rng, d), u @ np.diag([1.0, -0.7]) @ u.conj().T)
    eig = np.concatenate([np.linalg.eigvalsh(pair.s0), np.linalg.eigvalsh(pair.s)])
    lam = float(rng.uniform(eig.min() - 1, eig.max() + 1))
    if np.abs(eig - lam).min() < 1e-9:
        return
    assert abs(ssf_count_oracle(pair, lam)) <= 2


# ------------------------------------------------- perturbation determinant


def test_logdet_zero_perturbation():
    pair = MatrixPair(np.diag([0.3, -1.0, 0.8]), np.zeros((3, 3)))
    for m in (1, 2, 3):
        assert perturbation_logdet(m, 0.5j, pair) == 0


def test_logdet_scalar_closed_form():
    v = 0.7
    pair = MatrixPair(np.array([[0.0]]), np.array([[v]]))
    got = perturbation_logdet(1, 1j, pair)
    assert abs(got - (np.log(1 + 1j * v) - 1j * v)) < 1e-14


def test_logdet_conjugate_symmetry():
    rng = np.random.default_rng(23)
    pair = make_pair(rng, 6)
    for m in (1, 2, 3):
        for _ in range(7):
            z = rng.normal() + 1j * (0.2 + rng.random())
            fa = perturbation_logdet(m, z, pair)
            fb = perturbation_logdet(m, np.conj(z), pair)
            assert abs(fb - np.conj(fa)) < 1e-12


def test_logdet_past_underflow():
    # det_2 is about exp(-836), below double precision; b_k = v_k / (s_k - z)
    # sits near -1, so log1p(b_k) - b_k gives the log in closed form
    s = np.linspace(0.5, 2.0, 100)
    z = 1e-4j
    pair = MatrixPair(np.diag(s), np.diag(-s))
    got = perturbation_logdet(1, z, pair)
    b = -s / (s - z)
    want = np.sum(np.log1p(b) - b)
    assert want.real < -800
    assert abs(got.real - want.real) <= 1e-13 * abs(want.real)
    assert -np.pi <= got.imag <= np.pi
    turns = (got.imag - want.imag) / (2 * np.pi)
    assert abs(turns - round(turns)) < 1e-9


def test_logdet_minus_one_eigenvalue_raises_without_warning(monkeypatch):
    # a Hermitian pair never puts -1 in the spectrum of B(z) off the real
    # axis, so B is substituted to reach the guard
    from diracshift import ssf

    monkeypatch.setattr(ssf, "_bmatrix", lambda pair, z: np.diag([-1.0, 0.3]))
    pair = MatrixPair(np.zeros((2, 2)), np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="vanished"):
            perturbation_logdet(1, 1j, pair)


def test_logdet_rejections():
    pair = MatrixPair(np.array([[0.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="off the real axis"):
        perturbation_logdet(1, 0.5, pair)
    with pytest.raises(ValueError, match="positive integer"):
        perturbation_logdet(0, 1j, pair)


# ------------------------------------------------------ correction function


def test_g_scalar_closed_form():
    s0, v, z = 0.4, -0.9, 0.3 + 1.2j
    pair = MatrixPair(np.array([[s0]]), np.array([[v]]))
    assert abs(g_correction(1, z, pair) - v / (z - s0)) < 1e-14


def test_g_zero_perturbation():
    pair = MatrixPair(np.diag([1.0, -2.0]), np.zeros((2, 2)))
    assert g_correction(3, 1j, pair) == 0


def test_f_minus_g_is_plain_logdet():
    # removing the truncated trace series from the higher-order
    # determinant leaves the ordinary one, up to branch multiples
    rng = np.random.default_rng(29)
    pair = make_pair(rng, 5)
    for m in (1, 2, 3):
        for _ in range(20):
            z = rng.normal() + 1j * (0.3 + rng.random())
            f = perturbation_logdet(m, z, pair)
            g = g_correction(m, z, pair)
            det1 = np.linalg.det(
                np.eye(5) + pair.v @ np.linalg.inv(pair.s0 - z * np.eye(5))
            )
            assert abs(np.exp(f - g) - det1) < 1e-11


def test_g_trace_formula_consistency_m2():
    rng = np.random.default_rng(31)
    pair = make_pair(rng, 4)
    z, h = 0.3 + 1.1j, 1e-4

    def fg(w):
        return perturbation_logdet(2, w, pair) - g_correction(2, w, pair)

    second = (fg(z + h) - 2 * fg(z) + fg(z - h)) / h**2
    eye = np.eye(4)
    want = np.trace(
        np.linalg.matrix_power(np.linalg.inv(pair.s0 - z * eye), 2)
        - np.linalg.matrix_power(np.linalg.inv(pair.s - z * eye), 2)
    )
    assert abs(second - want) < 1e-6


# ------------------------------------------------------- derivative identity


def test_g_deriv_scalar_m1():
    s0, v, z = 0.4, -0.9, 0.3 + 1.2j
    pair = MatrixPair(np.array([[s0]]), np.array([[v]]))
    assert abs(g_deriv_paper(1, z, pair) + v / (s0 - z) ** 2) < 1e-14


def test_g_deriv_zero_perturbation():
    pair = MatrixPair(np.diag([0.5, -0.5]), np.zeros((2, 2)))
    assert g_deriv_paper(2, 1j, pair) == 0


def _fd_of_g(m, z, pair):
    # step balances truncation O(h^2) against roundoff eps / h^m
    h = {1: 1e-5, 2: 1e-4, 3: 1e-3}[m]
    g = lambda w: g_correction(m, w, pair)
    if m == 1:
        return (g(z + h) - g(z - h)) / (2 * h)
    if m == 2:
        return (g(z + h) - 2 * g(z) + g(z - h)) / h**2
    return (g(z + 2 * h) - 2 * g(z + h) + 2 * g(z - h) - g(z - 2 * h)) / (2 * h**3)


def test_g_deriv_matches_finite_difference():
    rng = np.random.default_rng(37)
    for d, m in [(3, 1), (3, 2), (3, 3), (4, 2)]:
        pair = make_pair(rng, d, 0.7)
        z = rng.normal() + 1j * (1.0 + rng.random())
        sym = g_deriv_paper(m, z, pair)
        fd = _fd_of_g(m, z, pair)
        assert abs(sym - fd) / max(1.0, abs(sym)) < 1e-5


def test_operator_word_derivative():
    word = OperatorWord(Fraction(1), (1, "V", 1))
    got = word.derivative()
    assert got == (
        OperatorWord(Fraction(1), (2, "V", 1)),
        OperatorWord(Fraction(1), (1, "V", 2)),
    )


# ------------------------------------------------------------ boundary table


def test_boundary_scalar_indicator():
    pair = MatrixPair(np.array([[0.0]]), np.array([[1.0]]))
    grid = np.array([-0.5, 0.25, 0.5, 0.75, 1.5])
    want = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    for kwargs in ({"method": "krein"}, {"method": "eq_main", "m": 1}):
        tab = ssf_boundary(pair, grid, **kwargs)
        assert np.allclose(tab.xi, want, atol=1e-3)
        assert not tab.flags.any()


def test_boundary_zero_perturbation():
    pair = MatrixPair(np.diag([0.0, 1.0]), np.zeros((2, 2)))
    tab = ssf_boundary(pair, np.array([-1.0, 0.5, 2.0]), method="krein")
    assert np.abs(tab.xi).max() < 1e-12


def test_boundary_routes_match_oracle():
    # one 8x8 pair, 50 safe grid points, all three routes must agree
    rng = np.random.default_rng(41)
    pair = make_pair(rng, 8, 0.6)
    eig = np.concatenate([np.linalg.eigvalsh(pair.s0), np.linalg.eigvalsh(pair.s)])
    grid = [
        lam
        for lam in np.linspace(eig.min() - 0.8, eig.max() + 0.8, 120)
        if np.abs(eig - lam).min() >= 0.08
    ][:50]
    grid = np.array(grid)
    assert len(grid) == 50
    oracle = np.array([ssf_count_oracle(pair, lam) for lam in grid])
    krein = ssf_boundary(pair, grid, method="krein")
    assert krein.method == "krein_boundary"
    assert np.array_equal(np.round(krein.xi), oracle)
    for m in (1, 2):
        tab = ssf_boundary(pair, grid, method="eq_main", m=m)
        assert tab.method == "eq_main"
        assert np.array_equal(np.round(tab.xi), oracle)


def test_boundary_routes_match_oracle_40x40():
    rng = np.random.default_rng(73)
    pair = make_pair(rng, 40, 0.6)
    eig = np.concatenate([np.linalg.eigvalsh(pair.s0), np.linalg.eigvalsh(pair.s)])
    grid = np.linspace(eig.min() - 0.5, eig.max() + 0.5, 30)
    start = time.perf_counter()
    for kwargs in ({"method": "krein"}, {"method": "eq_main", "m": 2}):
        tab = ssf_boundary(pair, grid, **kwargs)
        safe = ~tab.flags
        assert safe.sum() >= 5
        oracle = np.array([ssf_count_oracle(pair, lam) for lam in grid[safe]])
        assert np.array_equal(np.round(tab.xi[safe]), oracle)
    assert time.perf_counter() - start < 10.0


def test_boundary_table_ends_vanish():
    rng = np.random.default_rng(43)
    pair = make_pair(rng, 6)
    eig = np.concatenate([np.linalg.eigvalsh(pair.s0), np.linalg.eigvalsh(pair.s)])
    grid = np.array([eig.min() - 1.0, (eig.min() + eig.max()) / 2, eig.max() + 1.0])
    if np.abs(eig - grid[1]).min() < 0.05:
        grid[1] += 0.11
    tab = ssf_boundary(pair, grid, method="krein")
    assert abs(tab.xi[0]) < 1e-6
    assert abs(tab.xi[-1]) < 1e-6


def test_boundary_flags_near_eigenvalue():
    pair = MatrixPair(np.diag([0.0, 2.0]), np.diag([1.0, 1.0]))
    tab = ssf_boundary(pair, np.array([-1.0, 1.01, 4.0]), method="krein")
    assert list(tab.flags) == [False, True, False]
    assert np.isnan(tab.xi[1])
    assert abs(tab.xi[0]) < 1e-6 and abs(tab.xi[2]) < 1e-6


def test_boundary_counting_method():
    pair = MatrixPair(np.diag([0.0, 2.0]), np.diag([1.0, 1.0]))
    tab = ssf_boundary(pair, np.array([-1.0, 0.5, 4.0]), method="counting")
    assert tab.method == "counting"
    assert tab.eps_schedule == ()
    assert list(tab.xi) == [0.0, 1.0, 0.0]
    collided = ssf_boundary(pair, np.array([-1.0, 2.0]), method="counting")
    assert list(collided.flags) == [False, True]
    assert np.isnan(collided.xi[1])


@pytest.mark.parametrize("kwargs", [{"method": "krein"}, {"method": "eq_main", "m": 2}],
                         ids=["krein", "eq_main"])
def test_boundary_subgrid_consistency(kwargs):
    # each grid point is evaluated on its own, so a subgrid reproduces the
    # full grid's values bit for bit
    rng = np.random.default_rng(47)
    pair = make_pair(rng, 6)
    eig = np.concatenate([np.linalg.eigvalsh(pair.s0), np.linalg.eigvalsh(pair.s)])
    full = np.array(
        [
            lam
            for lam in np.linspace(eig.min() - 0.7, eig.max() + 0.7, 9)
            if np.abs(eig - lam).min() >= 0.08
        ]
    )
    sub = full[1::2]
    tf = ssf_boundary(pair, full, **kwargs)
    ts = ssf_boundary(pair, sub, **kwargs)
    assert np.array_equal(tf.xi[1::2], ts.xi)


def test_boundary_validations():
    pair = MatrixPair(np.array([[0.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="increasing"):
        ssf_boundary(pair, np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="unknown method"):
        ssf_boundary(pair, np.array([0.5]), method="stationary-phase")
    with pytest.raises(ValueError, match="decreasing"):
        ssf_boundary(pair, np.array([0.5]), eps_schedule=(1e-3, 1e-2))
    with pytest.raises(ValueError, match="at least two"):
        ssf_boundary(pair, np.array([0.5]), eps_schedule=(1e-2,))


# -------------------------------------------------------------- trace formula


def test_trace_formula_zero_perturbation():
    pair = MatrixPair(np.diag([0.4, -0.6]), np.zeros((2, 2)))
    assert trace_formula_residual(1, pair, 1j) < 1e-15


def test_trace_formula_scalar():
    pair = MatrixPair(np.array([[0.0]]), np.array([[1.0]]))
    assert trace_formula_residual(1, pair, 2j) < 1e-13
    # both sides equal the closed-form resolvent difference
    lhs = 1 / (1 - 2j) - 1 / (-2j)
    eye = np.eye(1)
    direct = np.trace(
        np.linalg.inv(pair.s - 2j * eye) - np.linalg.inv(pair.s0 - 2j * eye)
    )
    assert abs(direct - lhs) < 1e-15


def test_trace_formula_random_pairs():
    rng = np.random.default_rng(53)
    for _ in range(5):
        pair = make_pair(rng, 4)
        for m in (1, 2, 3):
            assert trace_formula_residual(m, pair, 1 + 1j) < 1e-6


# -------------------------------------------------------------- Krein identity


def test_krein_identity_gaussian_bumps():
    # tr(f(S) - f(S0)) integrates xi against f' exactly interval by interval
    rng = np.random.default_rng(59)
    for _ in range(50):
        pair = make_pair(rng, 6, 0.6)
        e0 = np.linalg.eigvalsh(pair.s0)
        e1 = np.linalg.eigvalsh(pair.s)
        c = rng.normal(scale=0.5)
        w = 0.7 + rng.random()
        fun = lambda x: np.exp(-((x - c) ** 2) / (2 * w**2))
        lhs = fun(e1).sum() - fun(e0).sum()
        breaks = np.unique(np.concatenate([e0, e1]))
        rhs = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            if b - a < 1e-11:
                continue
            rhs += ssf_count_oracle(pair, (a + b) / 2) * (fun(b) - fun(a))
        assert abs(lhs - rhs) < 1e-8


# ------------------------------------------------------------ arcsine average


def test_abel_constant():
    for lam in (0.3, 1.0, 7.5):
        assert abs(abel_transform(lambda nu: 1.0, lam) - 1.0) < 1e-10


def test_abel_half_line_indicator():
    got = abel_transform(lambda nu: 1.0 if nu >= 0 else 0.0, 1.7)
    assert abs(got - 0.5) < 1e-8


def test_abel_window_closed_form():
    a, b, lam = 0.3, 5.0, 1.21
    got = abel_transform(lambda nu: 1.0 if a < nu <= b else 0.0, lam)
    want = (np.pi / 2 - np.arcsin(a / np.sqrt(lam))) / np.pi
    assert abs(got - want) < 1e-8


def test_abel_rejects_nonpositive_lam():
    with pytest.raises(ValueError, match="positive"):
        abel_transform(lambda nu: 1.0, 0.0)


def test_abel_order_preserving():
    lower = lambda nu: 1.0 if nu > 0.2 else 0.0
    upper = lambda nu: 1.0 if nu > 0.2 else 0.5
    for lam in (0.5, 1.0, 4.0):
        assert abel_transform(lower, lam) <= abel_transform(upper, lam) + 1e-12
        assert abel_transform(lower, lam) >= 0.0


def test_abel_zero_limit_steps():
    assert abs(abel_zero_limit(lambda nu: 1.0 if nu >= 0 else 0.0) - 0.5) < 1e-9
    assert abs(abel_zero_limit(np.sign)) < 1e-9
    got = abel_zero_limit(lambda nu: 2.0 if nu < 0 else 5.0)
    assert abs(got - 3.5) < 1e-9


def test_abel_zero_limit_oscillatory_raises():
    # value alternates between dyadic shells, so no limit exists at 0
    def shells(nu):
        if nu == 0.0:
            return 0.0
        return 1.0 if int(np.floor(np.log2(abs(nu)))) % 2 == 0 else 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="settle"):
            abel_zero_limit(shells)


# ---------------------------------------------------------------- witten index


def test_witten_zero_rectangular():
    res = witten_index(np.zeros((2, 3)))
    assert res.extrapolated == pytest.approx(1.0, abs=1e-12)


def test_witten_full_rank_tall():
    rng = np.random.default_rng(61)
    for k in (1, 2):
        t = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        res = witten_index(t, k=k)
        assert abs(res.extrapolated + 3.0) < 1e-8
        assert np.var(res.scaled_traces) < 1e-18


def test_witten_square_invertible():
    rng = np.random.default_rng(67)
    t = rng.normal(size=(5, 5)) + np.eye(5) * 4
    assert abs(witten_index(t).extrapolated) < 1e-10


def test_witten_traces_constant_in_lambda():
    rng = np.random.default_rng(71)
    t = rng.normal(size=(6, 4))
    res = witten_index(t, k=1, lambda_schedule=(-0.5, -0.05, -0.005, -0.0005))
    assert res.scaled_traces.max() - res.scaled_traces.min() < 1e-10


def test_witten_validations():
    t = np.zeros((2, 2))
    with pytest.raises(ValueError, match="positive integer"):
        witten_index(t, k=0)
    with pytest.raises(ValueError, match="negative"):
        witten_index(t, lambda_schedule=(-1e-2, 1e-3))
    with pytest.raises(ValueError, match="increase"):
        witten_index(t, lambda_schedule=(-1e-3, -1e-2))


# -------------------------------------------------------------------- loading


def test_load_pair_sources(tmp_path):
    data = {"s0": [[0.0, 0.0], [0.0, 2.0]], "v": [[1.0, 0.0], [0.0, 1.0]]}
    from_dict = load_pair(data)
    from_string = load_pair(json.dumps(data))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    from_file = load_pair(str(path))
    for pair in (from_dict, from_string, from_file):
        assert np.array_equal(pair.s0, np.diag([0.0, 2.0]))
        assert ssf_count_oracle(pair, 0.5) == 1


def test_load_pair_complex_entries():
    data = {
        "s0": {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, -1.0], [1.0, 0.0]]},
        "v": [[0.5, 0.0], [0.0, 0.5]],
    }
    pair = load_pair(data)
    assert pair.s0[0, 1] == -1j


def test_load_pair_rejections():
    with pytest.raises(ValueError, match="missing"):
        load_pair({"s0": [[0.0]]})
    with pytest.raises(ValueError, match="Hermitian"):
        load_pair({"s0": [[0.0, 1.0], [0.0, 0.0]], "v": [[0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError, match="shape mismatch"):
        MatrixPair(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_pair_rejects_non_finite_entries(entry):
    s0 = np.eye(2)
    s0[1, 1] = entry
    with pytest.raises(ValueError, match="finite"):
        MatrixPair(s0, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        load_pair({"s0": [[1.0, 0.0], [0.0, None]], "v": [[0.0, 0.0], [0.0, 0.0]]})
