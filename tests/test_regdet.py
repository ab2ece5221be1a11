import itertools
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshift import regdet as rd


def ginibre(rng, d, radius=0.9):
    M = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2 * d)
    r = np.abs(np.linalg.eigvals(M)).max()
    return M * (radius / r)


def test_regdet_of_zero_is_one():
    for k in (1, 2, 3, 4, 5):
        assert rd.regdet(k, np.zeros((4, 4))) == 1.0


def test_regdet_scalar_k2():
    a = 0.37 - 0.21j
    want = (1 + a) * np.exp(-a)
    assert abs(rd.regdet(2, [[a]]) - want) <= 1e-15


def test_regdet_k1_is_plain_determinant():
    rng = np.random.default_rng(2)
    A = ginibre(rng, 5)
    want = np.linalg.det(np.eye(5) + A)
    assert abs(rd.regdet(1, A) - want) <= 1e-12 * abs(want)


def test_regdet_k2_strips_one_trace():
    rng = np.random.default_rng(3)
    A = ginibre(rng, 5)
    want = np.linalg.det(np.eye(5) + A) * np.exp(-np.trace(A))
    assert abs(rd.regdet(2, A) - want) <= 1e-12 * abs(want)


def test_regdet_k3_strips_two_traces():
    rng = np.random.default_rng(4)
    A = ginibre(rng, 5)
    want = np.linalg.det(np.eye(5) + A) * np.exp(-np.trace(A) + np.trace(A @ A) / 2)
    assert abs(rd.regdet(3, A) - want) <= 1e-12 * abs(want)


def test_regdet_rejections():
    with pytest.raises(ValueError):
        rd.regdet(0, np.eye(2))
    with pytest.raises(ValueError):
        rd.regdet(1.5, np.eye(2))
    with pytest.raises(ValueError):
        rd.regdet(2, np.ones((2, 3)))


def test_zero_iff_minus_one_eigenvalue():
    withm1 = np.diag([-1.0, 0.3, 0.2])
    clear = np.diag([-0.9, 0.3, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 2, 3, 4):
            assert rd.regdet(k, withm1) == 0
            assert rd.logdet_k(k, withm1).real == -np.inf
            assert abs(rd.regdet(k, clear)) > 1e-3


def test_logdet_k_past_overflow():
    # det(5 I) of size 600 is 5**600, past double precision; its log is not
    got = rd.logdet_k(1, 4.0 * np.eye(600))
    want = 600 * np.log(5.0)
    assert got.imag == 0
    assert abs(got.real - want) <= 1e-14 * want


def test_logdet_k_stack_matches_each_matrix():
    rng = np.random.default_rng(9)
    stack = np.stack([ginibre(rng, 5) for _ in range(4)])
    for k in (1, 2, 3):
        got = rd.logdet_k(k, stack)
        assert got.shape == (4,)
        for a, g in zip(stack, got):
            assert abs(np.exp(g) - rd.regdet(k, a)) <= 1e-13 * abs(rd.regdet(k, a))


def test_cyclicity_rectangular_factors():
    rng = np.random.default_rng(8)
    A = 0.3 * (rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
    B = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    for k in (1, 2, 3, 4):
        va = rd.regdet(k, A @ B)
        vb = rd.regdet(k, B @ A)
        assert abs(va - vb) <= 1e-11 * max(1.0, abs(va))


def test_continuity_bounded_slope():
    # empirical Lipschitz bound on the 0.9 spectral-radius ball; the
    # measured worst slope is about 1.5
    rng = np.random.default_rng(19)
    for _ in range(10):
        A = ginibre(rng, 6)
        E = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        E /= np.linalg.norm(E)
        for h in (1e-3, 1e-5):
            for k in (1, 2, 3, 4):
                assert abs(rd.regdet(k, A + h * E) - rd.regdet(k, A)) <= 10 * h


def test_x1_is_zero():
    assert np.all(rd.xk_correction(1, np.ones((3, 3)), np.ones((3, 3))) == 0)


def test_x2_x3_x4_explicit_forms():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    B = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    S = A + B
    P = A @ B
    assert np.allclose(rd.xk_correction(2, A, B), -P, atol=1e-13)
    x3 = (P @ P - P @ S - S @ P) / 2
    assert np.allclose(rd.xk_correction(3, A, B), x3, atol=1e-12)
    x4 = (
        P @ P / 2
        - (P @ S @ S + S @ S @ P + S @ P @ S) / 3
        + (P @ P @ S + S @ P @ P + P @ S @ P) / 3
        - P @ P @ P / 3
    )
    got = rd.xk_correction(4, A, B)
    assert np.abs(got - x4).max() <= 1e-12 * np.abs(x4).max()


def test_xk_rejections():
    with pytest.raises(ValueError):
        rd.xk_correction(6, np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        rd.xk_correction(2, np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        rd.trace_xk(5, np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        rd.trace_xk(2, np.eye(2), np.eye(3))


def test_trace_closed_forms_match_combinatorial():
    rng = np.random.default_rng(12)
    for _ in range(10):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for k in (1, 2, 3, 4):
            closed = rd.trace_xk(k, A, B)
            combinatorial = np.trace(rd.xk_correction(k, A, B))
            assert abs(closed - combinatorial) <= 1e-12 * max(1.0, abs(closed))


def test_trace_scalar_examples():
    assert abs(rd.trace_xk(2, [[0.3]], [[0.5]]) - (-0.15)) <= 1e-15
    a = 0.4
    want = -(2 * a**3 - a**4 / 2)
    assert abs(rd.trace_xk(3, [[a]], [[a]]) - want) <= 1e-15


def test_word_lengths_window():
    for k in (2, 3, 4, 5):
        lengths = rd.xk_words(k).lengths()
        assert min(lengths) >= k
        assert max(lengths) <= 2 * k - 2


def test_word_expression_evaluates_like_matrix_route():
    rng = np.random.default_rng(14)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for k in (2, 3, 4):
        direct = rd.xk_correction(k, A, B)
        via_words = rd.xk_words(k).evaluate(A, B)
        assert np.abs(direct - via_words).max() <= 1e-11


def _shift_coefficient(word):
    # alternating-binomial closed form for the balanced-word coefficients
    n = sum(1 for i in range(len(word) - 1) if word[i] == "A" and word[i + 1] == "B")
    L = len(word)
    return sum(Fraction((-1) ** l, L - l) * comb(n, l) for l in range(n + 1))


def test_z_words_closed_coefficients_exact():
    for k1 in range(1, 5):
        for k2 in range(1, 6 - k1):
            z = rd.z_words(k1, k2)
            words = {
                w
                for w in itertools.product("AB", repeat=k1 + k2)
                if w.count("A") == k1 and w.count("B") == k2
            }
            assert set(z.coeffs) <= words
            for w in words:
                assert z.coefficient(w) == _shift_coefficient(w)


def test_z_words_pure_powers():
    assert rd.z_words(3, 0).coeffs == {("A",) * 3: Fraction(1, 3)}
    assert rd.z_words(0, 2).coeffs == {("B",) * 2: Fraction(1, 2)}
    assert rd.z_words(0, 0).coeffs == {}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from("AB"), min_size=2, max_size=5))
def test_cyclic_shift_sums_vanish(letters):
    word = tuple(letters)
    k1 = word.count("A")
    k2 = word.count("B")
    if k1 == 0 or k2 == 0:
        # pure powers are not balanced words; nothing to check
        return
    assert rd.z_words(k1, k2).cyclic_sum(word) == 0


def test_product_residual_k1_multiplicative():
    rng = np.random.default_rng(21)
    A = ginibre(rng, 6)
    B = ginibre(rng, 6)
    assert rd.product_residual(1, A, B) <= 1e-13


def test_product_residual_scalars_k2():
    assert rd.product_residual(2, [[0.4]], [[0.3 - 0.2j]]) <= 1e-14


def test_product_residual_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(20):
        A = ginibre(rng, 6)
        B = ginibre(rng, 6)
        for k in (1, 2, 3, 4):
            assert rd.product_residual(k, A, B) <= 1e-10
        assert rd.product_residual(5, A, B) <= 1e-9


def test_product_residual_singular_rejected():
    A = np.diag([1.0, 0.2])
    B = np.diag([0.1, 0.1])
    with pytest.raises(ValueError, match="singular"):
        rd.product_residual(2, A, B)


def test_order_must_be_an_integer_type():
    for k in (2.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="positive integer"):
            rd.regdet(k, np.eye(2))
    assert rd.regdet(np.int64(2), np.zeros((2, 2))) == 1.0
