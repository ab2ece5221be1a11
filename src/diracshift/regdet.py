"""Regularized Fredholm determinants and their product-formula correction.

det_k(I+A) multiplies the eigenvalue factors (1+lam)exp(sum_{m<k}(-1)^m
lam^m/m); the exponential removes the first k-1 traces, which is what keeps
the determinant finite for operators whose singular values are only
k-summable.  For matrices no eigenvalue is needed (Simon, Trace Ideals,
Thm 9.2):

    log det_k(I+A) = log det(I+A) + sum_{j<k} (-1)^j tr(A^j) / j.

logdet_k takes log det(I+A) from one LU factorization, summing the logs
of the pivots, so large operators neither overflow nor underflow, and
the exponent from trace_series; regdet exponentiates it.  The price of the
regularization is that det_k is no longer multiplicative: for two factors
written as I-A and I-B,

    det_k((I-A)(I-B)) = det_k(I-A) det_k(I-B) exp(tr X_k(A,B)),

where the correction X_k(A,B) is a combinatorial sum over words in A, B and
the pair AB.  The word algebra is exposed through WordExpression with exact
rational coefficients; xk_correction evaluates the same sum directly on
matrices.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor

from ._checks import finite, order, square

__all__ = [
    "WordExpression",
    "logdet_k",
    "product_residual",
    "regdet",
    "trace_series",
    "trace_xk",
    "xk_correction",
    "xk_words",
    "z_words",
]


def _square_pair(A, B):
    A, B = square("A", A), square("B", B)
    if A.shape != B.shape:
        raise ValueError(f"size mismatch: A is {A.shape}, B is {B.shape}")
    return A, B


def trace_series(m, A):
    """sum_{j=1}^{m} (-1)^j tr(A^j) / j for a square matrix, or for each
    matrix of a stack along the last two axes.

    tr(A^j) is the elementwise-product sum of A^floor(j/2) and the
    transpose of A^ceil(j/2), so m <= 2 forms no matrix power and m <= 4
    forms only A^2.
    """
    total = np.zeros(A.shape[:-2], dtype=complex)
    if m >= 1:
        total -= np.trace(A, axis1=-2, axis2=-1)
    powers = [None, A]
    for j in range(2, m + 1):
        if len(powers) <= (j + 1) // 2:
            powers.append(powers[-1] @ A)
        trace_j = np.einsum("...ij,...ji->...", powers[j // 2], powers[(j + 1) // 2])
        total += (-1) ** j * trace_j / j
    return total


def logdet_k(k, A):
    """log det_k(I+A) for a square matrix, or for each matrix of a stack
    along the last two axes, from an LU factorization of I+A.

    log|det(I+A)| is the pairwise sum of the logs of the pivot moduli, so
    the modulus never overflows or underflows; the imaginary part is the
    sum of the pivot arguments plus pi per row swap, not reduced to a
    principal branch.  The trace exponent comes from trace_series.  A
    singular I+A gives a real part of -inf.
    """
    k = order(k)
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.shape[-1] != A.shape[-2]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    finite("A", A)
    d = A.shape[-1]
    flat = A.reshape((math.prod(A.shape[:-2]), d, d))
    pivots = np.empty(flat.shape[:2], dtype=complex)
    swaps = np.empty(len(flat))
    # I+A is built in one C-ordered buffer; its transpose is Fortran-ordered,
    # so LAPACK factors it in place, and det(X^T) = det(X)
    work = np.empty((d, d), dtype=complex)
    with warnings.catch_warnings():
        # an exact zero pivot is a vanishing determinant: -inf below
        warnings.filterwarnings(
            "ignore", "Diagonal number .* is exactly zero", LinAlgWarning
        )
        for i, a in enumerate(flat):
            work[...] = a
            work.reshape(-1)[:: d + 1] += 1
            lu, piv = lu_factor(work.T, overwrite_a=True, check_finite=False)
            pivots[i] = lu.diagonal()
            swaps[i] = np.count_nonzero(piv != np.arange(d))
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(pivots)).sum(axis=-1)
    phase = np.angle(pivots).sum(axis=-1) + np.pi * swaps
    out = log_abs + 1j * phase + trace_series(k - 1, flat)
    return out.reshape(A.shape[:-2])[()]


def regdet(k, A) -> complex:
    """det_k(I+A): exp of logdet_k.

    k = 1 is the plain determinant; higher k strips the first k-1 traces
    from the exponent.
    """
    return complex(np.exp(logdet_k(k, square("A", A))))


# ---------------------------------------------------------------------------
# word algebra


@dataclass(frozen=True)
class WordExpression:
    """Linear combination of words in the letters A and B with rational
    coefficients.  Words are tuples of single letters; a pair marker from
    the construction is already expanded to ("A", "B")."""

    coeffs: dict

    @staticmethod
    def from_terms(terms) -> "WordExpression":
        clean = {}
        for word, c in terms.items():
            c = Fraction(c)
            if c:
                clean[tuple(word)] = clean.get(tuple(word), Fraction(0)) + c
        return WordExpression({w: c for w, c in clean.items() if c})

    def __add__(self, other: "WordExpression") -> "WordExpression":
        merged = dict(self.coeffs)
        for w, c in other.coeffs.items():
            merged[w] = merged.get(w, Fraction(0)) + c
        return WordExpression({w: c for w, c in merged.items() if c})

    def coefficient(self, word) -> Fraction:
        return self.coeffs.get(tuple(word), Fraction(0))

    def cyclic_sum(self, word) -> Fraction:
        """Sum of coefficients over all cyclic shifts of ``word``."""
        word = tuple(word)
        total = Fraction(0)
        for m in range(len(word)):
            total += self.coefficient(word[m:] + word[:m])
        return total

    def lengths(self) -> set:
        return {len(w) for w in self.coeffs}

    def evaluate(self, A, B) -> np.ndarray:
        """Substitute matrices for the letters."""
        A, B = _square_pair(A, B)
        letters = {"A": A, "B": B}
        out = np.zeros_like(A)
        for word, c in self.coeffs.items():
            term = np.eye(A.shape[0], dtype=complex)
            for letter in word:
                term = term @ letters[letter]
            out = out + float(c) * term
        return out


def _convolve(words, factor):
    out = {}
    for w, c in words.items():
        for f, cf in factor:
            key = w + f
            out[key] = out.get(key, Fraction(0)) + c * cf
    return out


_SUM_FACTOR = ((("A",), Fraction(1)), (("B",), Fraction(1)))
_PAIR_FACTOR = ((("A", "B"), Fraction(1)),)


def xk_words(k) -> WordExpression:
    """The correction X_k(A,B) as a word expression: over j < k and subsets
    of the j slots with j + |subset| >= k, the subset slots carry the pair
    AB and the rest carry A+B, weighted by (-1)^|subset|/j."""
    k = order(k)
    total = {}
    for j in range(1, k):
        for mask in range(2**j):
            bits = bin(mask).count("1")
            if j + bits < k:
                continue
            words = {(): Fraction((-1) ** bits, j)}
            for m in range(j):
                factor = _PAIR_FACTOR if (mask >> m) & 1 else _SUM_FACTOR
                words = _convolve(words, factor)
            for w, c in words.items():
                total[w] = total.get(w, Fraction(0)) + c
    return WordExpression.from_terms(total)


def z_words(k1, k2) -> WordExpression:
    """Balanced word component with k1 letters A and k2 letters B, summed
    over ordered splittings of j slots into A-slots, B-slots and AB-pair
    slots, weighted by (-1)^(pair count)/j.  Every cyclic-shift coefficient
    sum of the result vanishes, which is what makes the product-formula
    exponent a trace-class quantity."""
    k1 = int(k1)
    k2 = int(k2)
    if k1 < 0 or k2 < 0:
        raise ValueError("word letter counts must be nonnegative")
    if k1 == 0 and k2 == 0:
        return WordExpression({})
    if k2 == 0:
        return WordExpression({("A",) * k1: Fraction(1, k1)})
    if k1 == 0:
        return WordExpression({("B",) * k2: Fraction(1, k2)})
    total = {}
    for j in range(1, k1 + k2 + 1):
        for labels in itertools.product((1, 2, 3), repeat=j):
            c1 = labels.count(1)
            c2 = labels.count(2)
            c3 = labels.count(3)
            if c1 + c3 != k1 or c2 + c3 != k2:
                continue
            word = []
            for lab in labels:
                word.extend(("A",) if lab == 1 else ("B",) if lab == 2 else ("A", "B"))
            key = tuple(word)
            total[key] = total.get(key, Fraction(0)) + Fraction((-1) ** c3, j)
    return WordExpression.from_terms(total)


# ---------------------------------------------------------------------------
# matrix-level correction


def xk_correction(k, A, B) -> np.ndarray:
    """X_k(A,B) evaluated on matrices via the combinatorial sum; X_1 = 0."""
    k = order(k, upper=5)
    A, B = _square_pair(A, B)
    d = A.shape[0]
    S = A + B
    P = A @ B
    X = np.zeros((d, d), dtype=complex)
    for j in range(1, k):
        for mask in range(2**j):
            bits = bin(mask).count("1")
            if j + bits < k:
                continue
            term = np.eye(d, dtype=complex)
            for m in range(j):
                term = term @ (P if (mask >> m) & 1 else S)
            X = X + ((-1) ** bits / j) * term
    return X


def trace_xk(k, A, B) -> complex:
    """Closed-form tr X_k(A,B) for k = 1..4."""
    k = order(k, upper=4)
    A, B = _square_pair(A, B)
    if k == 1:
        return 0j
    P = A @ B
    if k == 2:
        return complex(-np.trace(P))
    if k == 3:
        return complex(-np.trace(A @ B @ A + B @ A @ B - P @ P / 2))
    P2 = P @ P
    return complex(
        -np.trace(
            A @ A @ A @ B
            + A @ A @ B @ B
            + A @ B @ B @ B
            + P2 / 2
            - P2 @ A
            - B @ P2
            + P2 @ P / 3
        )
    )


def product_residual(k, A, B) -> float:
    """Relative defect of det_k((I-A)(I-B)) against
    det_k(I-A) det_k(I-B) exp(tr X_k(A,B))."""
    k = order(k, upper=5)
    A, B = _square_pair(A, B)
    finite("A", A)
    finite("B", B)
    det_a = regdet(k, -A)
    det_b = regdet(k, -B)
    if det_a == 0 or det_b == 0:
        raise ValueError("singular factor: det_k(I-A) or det_k(I-B) vanishes")
    lhs = regdet(k, -(A + B - A @ B))
    if lhs == 0:
        raise ValueError("singular product: det_k((I-A)(I-B)) vanishes")
    rhs = det_a * det_b * np.exp(np.trace(xk_correction(k, A, B)))
    return float(abs(lhs - rhs) / abs(lhs))
