"""Nystrom discretization of weighted resolvent and Birman-Schwinger operators.

Operators act on spinor-valued functions sampled on a tensor Gauss-Legendre
grid over [-R, R]^n.  Assembly is weight-symmetrized, block (i,j) carrying
w_i^(1/2) K(x_i, x_j) w_j^(1/2), so singular values approximate those of the
continuous operator and Hermitian kernels give Hermitian matrices.  The
|x-y|^(1-n) kernel singularity is integrable; diagonal blocks are set to
zero (punctured rule) and the induced O(h) bias is absorbed by refinement
tests rather than corrected.  The Birman-Schwinger assemblers take the
potential V itself and polar-factor its values at all nodes in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import green
from ._checks import positive
from .clifford import CliffordRep
from .potential import MatrixPotential, PolarFactors, polar_factorize

__all__ = [
    "MAX_ROWS",
    "DiscretizedOperator",
    "Grid",
    "assemble_bs",
    "assemble_bs_selfadjoint",
    "assemble_weighted_resolvent",
    "build_grid",
    "default_box_radius",
    "operator_norm",
    "schatten_norm",
]

# assembled matrices are dense (N m^n)^2 complex arrays; this cap keeps the
# largest one around 270 MB
MAX_ROWS = 4096


@dataclass(frozen=True)
class Grid:
    """Tensor-product Gauss-Legendre grid on [-R, R]^n."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    R: float
    m: int


@dataclass(frozen=True)
class DiscretizedOperator:
    """Dense block matrix over grid nodes with N x N spinor blocks."""

    matrix: np.ndarray
    grid: Grid
    block_size: int
    kind: str


def build_grid(n, R, m, *, max_rows=MAX_ROWS) -> Grid:
    """Gauss-Legendre nodes and weights, tensorized over n axes.

    ``m`` is the per-axis count; the total node count is m^n.  A single
    node per axis (m = 1) is allowed for degenerate diagnostics.
    """
    n = int(n)
    m = int(m)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if m < 1:
        raise ValueError("per-axis count must be >= 1")
    R = positive(R, "box half-width R")
    count = m**n
    spinor = 2 ** ((n + 1) // 2)
    if count * spinor > max_rows:
        raise ValueError(
            f"grid would need {count * spinor} rows, above the cap {max_rows}"
        )
    x1, w1 = np.polynomial.legendre.leggauss(m)
    x1 = R * x1
    w1 = R * w1
    axes = np.meshgrid(*([x1] * n), indexing="ij")
    nodes = np.stack([a.reshape(-1) for a in axes], axis=1)
    wgrids = np.meshgrid(*([w1] * n), indexing="ij")
    weights = np.ones(count)
    for wg in wgrids:
        weights = weights * wg.reshape(-1)
    return Grid(n=n, nodes=nodes, weights=weights, R=R, m=m)


def default_box_radius(V: MatrixPotential, tol=1e-6) -> float:
    """Smallest R with the declared bound C <R>^(-rho) at or below tol."""
    tol = positive(tol, "tolerance")
    if V.C <= tol:
        return 1.0
    return math.sqrt((V.C / tol) ** (2.0 / V.rho) - 1.0)


# ---------------------------------------------------------------------------
# assembly


def _kernel_blocks(rep: CliffordRep, grid: Grid, z) -> np.ndarray:
    """All kernel blocks G0(z; x_i, x_j) as an (M, M, N, N) array, zero on
    the diagonal."""
    if grid.n != rep.n:
        raise ValueError(f"grid dimension {grid.n} does not match rep n={rep.n}")
    nodes = grid.nodes
    M = nodes.shape[0]
    diffs = nodes[:, None, :] - nodes[None, :, :]
    flat = diffs.reshape(-1, grid.n)
    off = ~np.eye(M, dtype=bool).reshape(-1)
    blocks = np.zeros((M * M, rep.N, rep.N), dtype=complex)
    blocks[off] = green.green0_many(rep, z, flat[off])
    return blocks.reshape(M, M, rep.N, rep.N)


def _to_matrix(blocks: np.ndarray) -> np.ndarray:
    M, _, N, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(M * N, M * N)


def _validate_finite(matrix: np.ndarray, kind: str):
    if not np.all(np.isfinite(matrix)):
        raise FloatingPointError(f"{kind} assembly produced non-finite entries")


def assemble_weighted_resolvent(
    rep: CliffordRep, grid: Grid, z, delta
) -> DiscretizedOperator:
    """Blocks w_i^(1/2) <x_i>^(-delta) G0(z; x_i, x_j) <x_j>^(-delta) w_j^(1/2).

    ``z`` may be 0, which selects the zero-energy limit kernel.
    """
    delta = positive(delta, "delta")
    blocks = _kernel_blocks(rep, grid, z)
    radii2 = np.sum(grid.nodes**2, axis=1)
    f = np.sqrt(grid.weights) * (1.0 + radii2) ** (-delta / 2)
    blocks = blocks * f[:, None, None, None] * f[None, :, None, None]
    matrix = _to_matrix(blocks)
    _validate_finite(matrix, "weighted resolvent")
    return DiscretizedOperator(
        matrix=matrix, grid=grid, block_size=rep.N, kind=f"weighted-resolvent d={delta}"
    )


def _node_factors(rep: CliffordRep, grid: Grid, V) -> PolarFactors:
    """Polar factors of V at every grid node, stacked as (M, N, N) arrays."""
    if not isinstance(V, MatrixPotential):
        raise TypeError("V must be a MatrixPotential")
    if V.size != rep.N:
        raise ValueError(f"potential block size {V.size} does not match N={rep.N}")
    if V.n != grid.n:
        raise ValueError(f"potential dimension {V.n} does not match grid n={grid.n}")
    return polar_factorize(np.stack([V(x) for x in grid.nodes]))


def _sandwich(grid: Grid, left, blocks, right) -> np.ndarray:
    """Blocks w_i^(1/2) left_i K_ij right_j* w_j^(1/2) as an (M, M, N, N) array."""
    sw = np.sqrt(grid.weights)[:, None, None]
    right_h = (sw * right).conj().transpose(0, 2, 1)
    return (sw * left)[:, None] @ blocks @ right_h[None]


def assemble_bs(rep: CliffordRep, grid: Grid, z, V) -> DiscretizedOperator:
    """Birman-Schwinger blocks w_i^(1/2) V2(x_i) G0(z; x_i, x_j) V1(x_j)* w_j^(1/2)
    of the potential V."""
    f = _node_factors(rep, grid, V)
    blocks = _sandwich(grid, f.v2, _kernel_blocks(rep, grid, z), f.v1)
    matrix = _to_matrix(blocks)
    _validate_finite(matrix, "Birman-Schwinger")
    return DiscretizedOperator(
        matrix=matrix, grid=grid, block_size=rep.N, kind="birman-schwinger"
    )


def assemble_bs_selfadjoint(rep: CliffordRep, grid: Grid, V) -> DiscretizedOperator:
    """Self-adjoint zero-energy variant for the potential V: U_V(x_i) on the
    diagonal plus w_i^(1/2) V1(x_i) G0(0; x_i, x_j) V1(x_j) w_j^(1/2) off it."""
    f = _node_factors(rep, grid, V)
    blocks = _sandwich(grid, f.v1, _kernel_blocks(rep, grid, 0.0), f.v1)
    idx = np.arange(len(grid.nodes))
    blocks[idx, idx] = f.uv
    matrix = _to_matrix(blocks)
    _validate_finite(matrix, "self-adjoint Birman-Schwinger")
    return DiscretizedOperator(
        matrix=matrix, grid=grid, block_size=rep.N, kind="birman-schwinger-selfadjoint"
    )


# ---------------------------------------------------------------------------
# norms


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, DiscretizedOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def schatten_norm(op, p) -> float:
    """(sum_k sigma_k^p)^(1/p) over singular values; p = inf gives the
    largest singular value."""
    p = float(p)
    if p < 1:
        raise ValueError("Schatten exponent must be >= 1")
    sigma = np.linalg.svd(_as_matrix(op), compute_uv=False)
    if math.isinf(p):
        return float(sigma[0]) if sigma.size else 0.0
    return float(np.sum(sigma**p) ** (1.0 / p))


def operator_norm(op) -> float:
    """Largest singular value (the p = inf convention of schatten_norm)."""
    return schatten_norm(op, math.inf)
