"""Reference values computed without diracshift.

Kernels come from the A/B factorization stated in ``diracshift.green``
evaluated with ``mpmath.hankel1`` at 30 digits; the zero-energy threshold
matrix is assembled here from its definition; the spectral shift is counted
from numpy eigenvalues.  The generator matrices are the standard ones the
package documents (Pauli matrices in two dimensions, alpha_j = sigma_x (x)
sigma_j in three), written out so that a change of representation shows up
as a failed check instead of passing silently.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 30

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

ALPHAS = {
    2: (_SX, _SY),
    3: tuple(np.kron(_SX, s) for s in (_SX, _SY, _SZ)),
}


def digits(err: float) -> float:
    """-log10 of a worst relative error, capped at 15 digits; 0 when the
    error is not finite."""
    if not math.isfinite(err):
        return 0.0
    if err <= 1e-15:
        return 15.0
    return min(15.0, -math.log10(err))


def contraction(n: int, unit) -> np.ndarray:
    return sum(float(u) * a for u, a in zip(unit, ALPHAS[n]))


# ---------------------------------------------------------------------------
# kernels at z != 0


def ab_values(n: int, z: complex, s: float):
    """A(zeta), B(zeta) at zeta = z s, as Python complex numbers."""
    with mpmath.workdps(DPS):
        zeta = mpmath.mpc(z) * mpmath.mpf(s)
        c = (2 * mpmath.pi) ** (mpmath.mpf(2 - n) / 2)
        pw = zeta ** (mpmath.mpf(n) / 2)
        a = 0.25j * c * pw * mpmath.hankel1(mpmath.mpf(n - 2) / 2, zeta)
        b = 0.25 * c * pw * mpmath.hankel1(mpmath.mpf(n) / 2, zeta)
        return complex(a), complex(b)


def kernel(n: int, z: complex, s: float, unit) -> np.ndarray:
    """G0(z; x, y) for |x - y| = s along ``unit``."""
    a, b = ab_values(n, z, s)
    size = ALPHAS[n][0].shape[0]
    return s ** (1 - n) * (a * np.eye(size) - b * contraction(n, unit))


def scan_sample(count: int, size: int = 64) -> np.ndarray:
    """Indices of an evenly spread subsample of a scan; with distances on
    0.1..10 and z = 3+1i it covers every Hankel regime of the package."""
    return np.unique(np.linspace(0, count - 1, size).round().astype(int))


def scan_error(result: dict, n: int, z: complex, sample) -> float:
    """Worst relative entry error of a scan artifact's kernels on a sample."""
    unit = np.asarray(result["direction"], dtype=float)
    worst = 0.0
    for k in sample:
        got = np.array([[complex(*v) for v in row] for row in result["kernels"][k]])
        want = kernel(n, z, float(result["distances"][k]), unit)
        worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    return worst


def gauss_grid(n: int, R: float, m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    axes = np.meshgrid(*([R * x] * n), indexing="ij")
    wts = np.meshgrid(*([R * w] * n), indexing="ij")
    nodes = np.stack([a.reshape(-1) for a in axes], axis=1)
    return nodes, np.prod([g.reshape(-1) for g in wts], axis=0)


def weighted_resolvent_hs_norm(n: int, R: float, m: int, z: complex, delta: float) -> float:
    """Hilbert-Schmidt (Schatten-2) norm of the punctured weighted resolvent.

    ||A I - B a(u)||_F^2 = N (|A|^2 + |B|^2) because a(u) is traceless with
    a(u)^2 = I, so only distinct separations need mpmath.
    """
    nodes, weights = gauss_grid(n, R, m)
    f2 = weights * (1.0 + np.sum(nodes**2, axis=1)) ** (-delta)
    size = ALPHAS[n][0].shape[0]
    diff = nodes[:, None, :] - nodes[None, :, :]
    s = np.sqrt(np.sum(diff**2, axis=2))
    off = ~np.eye(len(nodes), dtype=bool)
    key = np.round(s[off], 12)
    uniq, inverse = np.unique(key, return_inverse=True)
    block2 = np.empty(uniq.size)
    for i, sep in enumerate(uniq):
        a, b = ab_values(n, z, float(sep))
        block2[i] = size * (abs(a) ** 2 + abs(b) ** 2) * sep ** (2 * (1 - n))
    pair_f2 = (f2[:, None] * f2[None, :])[off]
    return math.sqrt(float(np.sum(pair_f2 * block2[inverse])))


# ---------------------------------------------------------------------------
# zero-energy threshold matrix


def threshold_parts(spec: dict, m: int, R: float):
    """(U, K) with the self-adjoint threshold matrix at amplitude factor a
    equal to U + a K: U holds the sign of V on diagonal blocks, K the
    sandwich w_i^(1/2) |V|^(1/2)(x_i) G0(0; x_i, x_j) |V|^(1/2)(x_j) w_j^(1/2).

    ``spec`` is a gaussian potential file, V(x) = amplitude M e^(-|x|^2/w^2).
    """
    n = int(spec["n"])
    p = spec["params"]
    coupling = float(p["amplitude"]) * np.asarray(p["matrix"], dtype=float)
    mu, q = np.linalg.eigh(coupling)
    sign = (q * np.where(mu < 0, -1.0, 1.0)) @ q.T
    root = (q * np.sqrt(np.abs(mu))) @ q.T
    nodes, weights = gauss_grid(n, R, m)
    count, size = len(nodes), coupling.shape[0]
    profile = np.exp(-np.sum(nodes**2, axis=1) / float(p["width"]) ** 2)
    scale = np.sqrt(weights * profile)  # w^(1/2) times the root of the profile

    diff = nodes[:, None, :] - nodes[None, :, :]
    s = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(s, 1.0)
    coeff = 0.5j * math.pi ** (-n / 2) * math.gamma(n / 2)
    g = sum(
        (diff[:, :, j] / s**n)[:, :, None, None] * ALPHAS[n][j] for j in range(n)
    ) * coeff
    g[np.arange(count), np.arange(count)] = 0.0
    blocks = np.einsum("ab,ijbc,cd->ijad", root, g, root)
    blocks *= (scale[:, None] * scale[None, :])[:, :, None, None]
    K = blocks.transpose(0, 2, 1, 3).reshape(count * size, count * size)
    U = np.kron(np.eye(count), sign).astype(complex)
    return U, K


def eigenvalues(U, K, factor: float = 1.0) -> np.ndarray:
    h = U + factor * K
    return np.linalg.eigvalsh((h + h.conj().T) / 2)


# ---------------------------------------------------------------------------
# spectral shift by counting


def count_shift(s0: np.ndarray, v: np.ndarray, lambdas) -> np.ndarray:
    """#{eig(S0) <= lam} - #{eig(S0 + V) <= lam} at each lam."""
    e0 = np.linalg.eigvalsh(s0)
    e1 = np.linalg.eigvalsh(s0 + v)
    lam = np.asarray(lambdas, dtype=float)[:, None]
    return (e0[None, :] <= lam).sum(axis=1) - (e1[None, :] <= lam).sum(axis=1)


def spectrum_distance(s0: np.ndarray, v: np.ndarray, lambdas) -> np.ndarray:
    eig = np.concatenate([np.linalg.eigvalsh(s0), np.linalg.eigvalsh(s0 + v)])
    return np.abs(np.asarray(lambdas, dtype=float)[:, None] - eig[None, :]).min(axis=1)
