"""Operator-algebra tools for resolvent analysis on matrices.

Four building blocks: Riesz projections computed by contour quadrature,
inversion reduced to a projected subspace (with the inverse rebuilt from
the reduced one), the Schur-complement block inverse, and the
Birman-Schwinger identities tying the resolvent of S0 + V1* V2 to the
sandwiched resolvent of S0.  On top of these sits a zero-energy
classifier for discretized Dirac Hamiltonians: given a potential V it
assembles the self-adjoint U_V + V1 G0(0) V1* matrix on a grid and reads
off whether the spectrum clears zero.  That matrix is U_V + a K at
coupling a, so a coupling sweep reuses one assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, solve_sylvester

from ._checks import hermitian, offreal, square
from .discretize import (
    Grid,
    _kernel_blocks,
    _node_factors,
    assemble_bs_selfadjoint,
    build_grid,
)
from .potential import polar_factorize
from .ssf import MatrixPair

__all__ = [
    "RieszProjection",
    "ThresholdReport",
    "bs_residuals",
    "feshbach_invert",
    "jn_invert",
    "riesz_projection",
    "threshold_classify",
    "threshold_sweep",
]

_IDEMPOTENT_TOL = 1e-11


@dataclass(frozen=True)
class RieszProjection:
    """Spectral projection onto the eigenvalues inside a chosen circle."""

    matrix: np.ndarray
    eigenvalue: complex
    rank: int


def _schur_projection(a, lambda0, radius):
    # exact route for clusters the quadrature cannot resolve: reorder the
    # Schur form so the inside eigenvalues lead, then block-diagonalize
    t, q, sdim = schur(
        a, output="complex", sort=lambda z: abs(z - lambda0) < radius
    )
    if sdim == 0:
        return np.zeros_like(a)
    if sdim == a.shape[0]:
        return np.eye(a.shape[0], dtype=complex)
    t11, t12, t22 = t[:sdim, :sdim], t[:sdim, sdim:], t[sdim:, sdim:]
    y = solve_sylvester(t11, -t22, t12)
    p_t = np.zeros_like(a)
    p_t[:sdim, :sdim] = np.eye(sdim)
    p_t[:sdim, sdim:] = y
    return q @ p_t @ q.conj().T


def riesz_projection(a, lambda0, radius) -> RieszProjection:
    """Contour-integral projection for the spectrum inside |z - lambda0| < radius.

    Trapezoid quadrature on the circle, starting at 64 points and doubling
    until P^2 = P holds to 1e-11; a Schur-based reordering takes over when
    an eigenvalue hugs the contour too closely for the quadrature.  The
    rank is cross-checked against the eigenvalue count inside the circle.
    """
    a = square("matrix", a)
    lambda0 = complex(lambda0)
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    eig = np.linalg.eigvals(a)
    dist = np.abs(eig - lambda0)
    if np.any(np.abs(dist - radius) < 1e-8 * max(1.0, radius)):
        raise ValueError("an eigenvalue lies on the integration circle")
    inside = int(np.sum(dist < radius))

    d = a.shape[0]
    eye = np.eye(d)
    p = None
    q = 64
    while q <= 4096:
        theta = 2 * np.pi * np.arange(q) / q
        zs = lambda0 + radius * np.exp(1j * theta)
        resolvents = np.linalg.inv(zs[:, None, None] * eye[None] - a[None])
        p = (radius / q) * np.einsum(
            "k,kij->ij", np.exp(1j * theta), resolvents
        )
        if np.abs(p @ p - p).max() <= _IDEMPOTENT_TOL * max(1.0, np.abs(p).max()):
            break
        q *= 2
    else:
        p = _schur_projection(a, lambda0, radius)

    rank = int(round(np.trace(p).real))
    if rank != inside:
        raise RuntimeError(
            f"projection rank {rank} disagrees with eigenvalue count {inside}"
        )
    return RieszProjection(matrix=p, eigenvalue=lambda0, rank=rank)


def _range_basis(p: np.ndarray, rank: int) -> np.ndarray:
    if rank == 0:
        return np.zeros((p.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(p)
    return u[:, :rank]


def jn_invert(a, p):
    """Reduce inversion of ``a`` to the subspace ran P.

    Returns (reduced, inverse): ``reduced`` is P - P (A+P)^{-1} P expressed
    in an orthonormal basis of ran P, and ``inverse`` is the reconstructed
    A^{-1} = (A+P)^{-1} + (A+P)^{-1} P reduced^{-1} P (A+P)^{-1}, or None
    when the reduced matrix is singular (equivalently, A is singular).
    """
    a = square("a", a)
    if isinstance(p, RieszProjection):
        p = p.matrix
    p = square("p", p)
    if p.shape != a.shape:
        raise ValueError(f"shape mismatch: a is {a.shape}, p is {p.shape}")
    pscale = max(1.0, float(np.abs(p).max()))
    if np.abs(p @ p - p).max() > 1e-10 * pscale:
        raise ValueError("p is not idempotent")

    shifted = a + p
    if np.linalg.cond(shifted) > 1e13:
        raise ValueError("a + p is singular; the reduction does not apply")
    inv_shifted = np.linalg.inv(shifted)

    rank = int(round(np.trace(p).real))
    basis = _range_basis(p, rank)
    reduced_full = p - p @ inv_shifted @ p
    reduced = basis.conj().T @ reduced_full @ basis

    if rank > 0:
        sing = np.linalg.svd(reduced, compute_uv=False)
        if sing[-1] <= 1e-10 * max(1.0, sing[0]):
            return reduced, None
        lifted = basis @ np.linalg.inv(reduced) @ basis.conj().T
    else:
        lifted = np.zeros_like(a)
    inverse = inv_shifted + inv_shifted @ p @ lifted @ p @ inv_shifted
    return reduced, inverse


def feshbach_invert(b11, b12, b21, b22):
    """Block inverse through the Schur complement b = b11 - b12 b22^{-1} b21.

    Requires b22 invertible; returns None when the complement is singular,
    which is exactly when the full block matrix is.
    """
    b11 = square("b11", b11)
    b22 = square("b22", b22)
    b12 = np.atleast_2d(np.asarray(b12, dtype=complex))
    b21 = np.atleast_2d(np.asarray(b21, dtype=complex))
    p, q = b11.shape[0], b22.shape[0]
    if b12.shape != (p, q) or b21.shape != (q, p):
        raise ValueError(
            f"off-diagonal shapes {b12.shape}, {b21.shape} do not tile "
            f"({p},{q}) and ({q},{p})"
        )
    if np.linalg.cond(b22) > 1e13:
        raise ValueError("b22 must be invertible")
    inv22 = np.linalg.inv(b22)
    complement = b11 - b12 @ inv22 @ b21
    sing = np.linalg.svd(complement, compute_uv=False)
    if sing[-1] <= 1e-12 * max(1.0, sing[0]):
        return None
    binv = np.linalg.inv(complement)
    return np.block(
        [
            [binv, -binv @ b12 @ inv22],
            [-inv22 @ b21 @ binv, inv22 + inv22 @ b21 @ binv @ b12 @ inv22],
        ]
    )


def bs_residuals(source, z) -> dict:
    """Defects of the three resolvent identities linking S0 and S0 + V1* V2.

    ``source`` is a MatrixPair (factored through the polar decomposition of
    V) or a tuple (s0, v1, v2) with possibly rectangular factors.  Keys:
    "resolvent" for rebuilding (S - z)^{-1} from the sandwiched inverse,
    "complement" for V2 (S-z)^{-1} V1* = I - [I + V2 (S0-z)^{-1} V1*]^{-1},
    "product" for V1 (S-z)^{-1} V1* = V1 (S0-z)^{-1} V1* [same inverse].
    """
    z = offreal(z)
    if isinstance(source, MatrixPair):
        factors = polar_factorize(source.v)
        s0, v1, v2 = source.s0, factors.v1, factors.v2
    else:
        s0, v1, v2 = source
        s0 = hermitian("s0", s0)
        v1, v2 = (np.atleast_2d(np.asarray(v, dtype=complex)) for v in (v1, v2))

    d = s0.shape[0]
    eye_d = np.eye(d)
    r0 = np.linalg.inv(s0 - z * eye_d)
    bs = v2 @ r0 @ v1.conj().T
    eye_k = np.eye(bs.shape[0])
    if np.linalg.cond(eye_k + bs) > 1e12:
        raise ValueError("singular Birman-Schwinger operator at this z")
    inv_bs = np.linalg.inv(eye_k + bs)

    s = s0 + v1.conj().T @ v2
    r = np.linalg.inv(s - z * eye_d)

    rebuilt = r0 - r0 @ v1.conj().T @ inv_bs @ v2 @ r0
    res_resolvent = np.linalg.norm(rebuilt - r, 2)
    res_complement = np.linalg.norm(
        v2 @ r @ v1.conj().T - (eye_k - inv_bs), 2
    )
    res_product = np.linalg.norm(
        v1 @ r @ v1.conj().T - v1 @ r0 @ v1.conj().T @ inv_bs, 2
    )
    return {
        "resolvent": float(res_resolvent),
        "complement": float(res_complement),
        "product": float(res_product),
    }


@dataclass(frozen=True)
class ThresholdReport:
    """Zero-energy classification of a discretized Dirac Hamiltonian.

    ``eigenvalues`` is the full spectrum of the self-adjoint
    U_V + V1 G0(0) V1* matrix, ``near`` the part within ``tol`` of zero.
    For exceptional cases ``phi0`` holds the near-kernel eigenvectors
    (weighted-grid convention, one column each) and ``psi0`` the candidate
    zero-energy solutions rebuilt from them on the grid nodes.
    ``refinement_stable`` is None unless the doubled-grid check ran.
    """

    classification: str
    eigenvalues: np.ndarray
    near: np.ndarray
    phi0: np.ndarray
    psi0: np.ndarray
    tol: float
    hermiticity_defect: float
    refinement_stable: object = None


def _hermitian_part(matrix):
    scale = max(1.0, float(np.abs(matrix).max()))
    defect = float(np.abs(matrix - matrix.conj().T).max())
    if defect > 1e-8 * scale:
        raise FloatingPointError(
            f"assembled threshold matrix lost Hermiticity (defect {defect:.2e})"
        )
    return (matrix + matrix.conj().T) / 2, defect


def _classify_spectrum(rep, grid, V, tol):
    sym, defect = _hermitian_part(assemble_bs_selfadjoint(rep, grid, V).matrix)
    eigenvalues, vectors = np.linalg.eigh(sym)
    near_mask = np.abs(eigenvalues) < tol
    label = "exceptional" if near_mask.any() else "regular"
    return label, eigenvalues, near_mask, vectors, defect


def _rebuild_psi0(rep, grid, V, phi0):
    # psi0(x_i) = -sum_j w_j G0(0; x_i, y_j) V1(y_j)* phi(y_j); the
    # eigenvectors carry the w^(1/2) embedding, so one root of w remains
    blocks = _kernel_blocks(rep, grid, 0.0)
    count = len(grid.nodes)
    v1 = _node_factors(rep, grid, V).v1
    sw = np.sqrt(grid.weights)
    phi = phi0.reshape(count, rep.N, -1)
    integrand = np.einsum("jab,jbk->jak", v1.conj().transpose(0, 2, 1), phi)
    psi = -np.einsum("ijab,j,jbk->iak", blocks, sw, integrand)
    return psi.reshape(count * rep.N, -1)


def threshold_classify(
    rep, grid: Grid, V, tol: float = 1e-3, check_refinement: bool = False
) -> ThresholdReport:
    """Classify z = 0 for the discretized Dirac pair with potential V as
    regular or exceptional.

    Assembles the self-adjoint U_V + V1 G0(0) V1* matrix on the grid and
    calls the point regular when its spectrum keeps distance ``tol`` from
    zero.  Otherwise the near-kernel eigenvectors become resonance or
    eigenfunction candidates phi0, and psi0 = -R_00 * (V1* phi0) is
    rebuilt on the nodes.  With ``check_refinement`` the classification is
    recomputed on a grid with twice the per-axis count and
    ``refinement_stable`` records whether the label survived.
    """
    tol = float(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    label, eigenvalues, near_mask, vectors, defect = _classify_spectrum(
        rep, grid, V, tol
    )
    phi0 = vectors[:, near_mask]
    psi0 = (
        _rebuild_psi0(rep, grid, V, phi0)
        if phi0.shape[1]
        else np.zeros((vectors.shape[0], 0), dtype=complex)
    )

    stable = None
    if check_refinement:
        finer = build_grid(grid.n, grid.R, 2 * grid.m)
        finer_label = _classify_spectrum(rep, finer, V, tol)[0]
        stable = finer_label == label

    return ThresholdReport(
        classification=label,
        eigenvalues=eigenvalues,
        near=eigenvalues[near_mask],
        phi0=phi0,
        psi0=psi0,
        tol=tol,
        hermiticity_defect=defect,
        refinement_stable=stable,
    )


def threshold_sweep(rep, grid: Grid, V, amplitudes, tol: float = 1e-3) -> list:
    """Zero-energy labels of a * V for each coupling a in ``amplitudes``.

    Scaling V by a > 0 scales V1 by sqrt(a) and leaves U_V alone, and the
    punctured rule keeps the kernel off the diagonal blocks, so the matrix
    at coupling a is U_V on the diagonal blocks and a times the assembled
    matrix off them: one assembly, then one eigvalsh per amplitude.  Returns
    one {"amplitude", "min_abs_eigenvalue", "classification"} entry each.
    """
    tol = float(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    amplitudes = [float(a) for a in np.atleast_1d(amplitudes)]
    if any(a <= 0 for a in amplitudes):
        raise ValueError("amplitudes must be positive")
    matrix = assemble_bs_selfadjoint(rep, grid, V).matrix
    node = np.arange(matrix.shape[0]) // rep.N
    diag_blocks = node[:, None] == node[None, :]
    sweep = []
    for a in amplitudes:
        sym, _ = _hermitian_part(np.where(diag_blocks, matrix, a * matrix))
        gap = float(np.abs(np.linalg.eigvalsh(sym)).min())
        label = "exceptional" if gap < tol else "regular"
        sweep.append({"amplitude": a, "min_abs_eigenvalue": gap, "classification": label})
    return sweep
