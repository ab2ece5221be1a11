import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshift import discretize, potential
from conftest import random_unitary


def _zero_potential(n, size):
    return potential.MatrixPotential(
        n=n,
        size=size,
        evaluate=lambda x: np.zeros((size, size)),
        rho=2.0,
        C=0.0,
    )


def test_two_point_gauss_nodes():
    g = discretize.build_grid(1, 1.0, 2)
    got = np.sort(g.nodes.reshape(-1))
    assert np.allclose(got, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(g.weights, [1.0, 1.0], atol=1e-15)


def test_weight_sum_matches_box_volume():
    g2 = discretize.build_grid(2, 1.7, 10)
    assert g2.nodes.shape == (100, 2)
    assert abs(g2.weights.sum() - 4 * 1.7**2) <= 1e-10
    g3 = discretize.build_grid(3, 0.9, 8)
    assert g3.nodes.shape == (512, 3)
    assert abs(g3.weights.sum() - (2 * 0.9) ** 3) <= 1e-10
    assert np.all(g3.weights > 0)


def test_nodes_pairwise_distinct():
    g = discretize.build_grid(2, 1.0, 5)
    seen = {tuple(x) for x in g.nodes}
    assert len(seen) == g.nodes.shape[0]


def test_row_cap_enforced():
    # 11^3 nodes times 4 spinor components = 5324 rows > 4096
    with pytest.raises(ValueError, match="cap"):
        discretize.build_grid(3, 1.0, 11)
    # raising the cap admits the same grid
    g = discretize.build_grid(3, 1.0, 11, max_rows=6000)
    assert g.nodes.shape == (1331, 3)


def test_grid_rejections():
    with pytest.raises(ValueError):
        discretize.build_grid(0, 1.0, 4)
    with pytest.raises(ValueError):
        discretize.build_grid(2, 1.0, 0)
    with pytest.raises(ValueError):
        discretize.build_grid(2, 0.0, 4)
    with pytest.raises(ValueError):
        discretize.build_grid(2, -2.0, 4)


def test_single_node_grid_zero_block(reps):
    g = discretize.build_grid(2, 1.0, 1)
    assert g.nodes.shape == (1, 2)
    op = discretize.assemble_weighted_resolvent(reps[2], g, 1j, 0.75)
    assert op.matrix.shape == (2, 2)
    assert np.all(op.matrix == 0)


def test_operator_shape_and_descriptor(reps):
    g = discretize.build_grid(2, 1.0, 4)
    op = discretize.assemble_weighted_resolvent(reps[2], g, 2j, 1.25)
    assert op.matrix.shape == (32, 32)
    assert op.block_size == 2
    assert op.grid is g
    assert "1.25" in op.kind
    assert np.all(np.isfinite(op.matrix))


def test_zero_energy_structure(reps):
    # the zero-limit kernel is anti-Hermitian blockwise and odd under
    # swapping the two nodes, so the assembled matrix is Hermitian
    rep = reps[2]
    g = discretize.build_grid(2, 1.5, 6)
    op = discretize.assemble_weighted_resolvent(rep, g, 0.0, 0.75)
    mat = op.matrix
    assert np.abs(mat - mat.conj().T).max() <= 1e-15
    N = rep.N
    for i, j in ((0, 1), (2, 5), (7, 30)):
        blk = mat[i * N : (i + 1) * N, j * N : (j + 1) * N]
        assert np.allclose(blk.conj().T, -blk, atol=1e-16)


def test_imaginary_axis_approaches_zero_energy(reps):
    rep = reps[2]
    g = discretize.build_grid(2, 1.5, 6)
    base = discretize.assemble_weighted_resolvent(rep, g, 0.0, 0.75).matrix
    gaps = []
    herm = []
    for eps in (1e-3, 1e-5):
        mat = discretize.assemble_weighted_resolvent(rep, g, 1j * eps, 0.75).matrix
        gaps.append(np.abs(mat - base).max())
        herm.append(np.abs(mat - mat.conj().T).max())
    # the kernel approaches its zero limit like eps*ln(eps), so two decades
    # in eps shrink the gap by a factor near 60, not 100
    assert gaps[1] < 2.5e-2 * gaps[0]
    assert herm[1] < 2.5e-2 * herm[0]
    assert herm[1] < 1e-4


def test_operator_norm_refinement_drift(reps):
    vals = []
    for m in (8, 16):
        g = discretize.build_grid(2, 1.0, m)
        op = discretize.assemble_weighted_resolvent(reps[2], g, 0.0, 0.75)
        vals.append(discretize.operator_norm(op))
    assert abs(vals[1] - vals[0]) / vals[1] <= 0.05


def test_schatten_refinement_drift(reps):
    # p = n + 1 = 3; measured drift at this configuration is about 3.5%
    vals = []
    for m in (16, 32):
        g = discretize.build_grid(2, 0.5, m)
        op = discretize.assemble_weighted_resolvent(reps[2], g, 0.0, 1.1)
        vals.append(discretize.schatten_norm(op, 3))
    assert abs(vals[1] - vals[0]) / vals[1] <= 0.05


def test_weighted_resolvent_rejections(reps):
    g = discretize.build_grid(2, 1.0, 3)
    with pytest.raises(ValueError):
        discretize.assemble_weighted_resolvent(reps[2], g, 1j, 0.0)
    with pytest.raises(ValueError):
        discretize.assemble_weighted_resolvent(reps[2], g, 1j, -0.5)
    with pytest.raises(ValueError):
        discretize.assemble_weighted_resolvent(reps[2], g, -1j, 0.75)
    with pytest.raises(ValueError):
        discretize.assemble_weighted_resolvent(reps[3], g, 1j, 0.75)


def test_bs_zero_potential(reps):
    g = discretize.build_grid(2, 1.0, 4)
    op = discretize.assemble_bs(reps[2], g, 1j, _zero_potential(2, 2))
    assert np.all(op.matrix == 0)
    assert op.kind == "birman-schwinger"


def test_bs_scaling_linear(reps):
    # V -> 2V rebuilds both factors by sqrt(2), so the matrix doubles
    base = potential.gaussian(2, amplitude=0.8, matrix=np.diag([1.0, -0.5]))
    doubled = potential.gaussian(2, amplitude=1.6, matrix=np.diag([1.0, -0.5]))
    g = discretize.build_grid(2, 2.0, 5)
    a = discretize.assemble_bs(reps[2], g, 1j, base).matrix
    b = discretize.assemble_bs(reps[2], g, 1j, doubled).matrix
    assert np.abs(b - 2 * a).max() <= 1e-12 * np.abs(b).max()


def test_bs_weak_bump_spectral_radius(reps):
    g = discretize.build_grid(2, 1.2, 8)
    radii = []
    for amp in (0.1, 0.2):
        V = potential.bump(2, radius=1.0, amplitude=amp)
        op = discretize.assemble_bs(reps[2], g, 1j, V)
        radii.append(np.abs(np.linalg.eigvals(op.matrix)).max())
    assert radii[0] < radii[1] < 1.0


def test_bs_rejects_non_potential(reps):
    g = discretize.build_grid(2, 1.0, 4)
    with pytest.raises(TypeError):
        discretize.assemble_bs(reps[2], g, 0.5j, np.eye(2))


def test_bs_selfadjoint_hermitian(reps):
    V = potential.gaussian(2, amplitude=0.7, matrix=np.array([[0.4, 0.3], [0.3, -0.2]]))
    g = discretize.build_grid(2, 1.5, 5)
    op = discretize.assemble_bs_selfadjoint(reps[2], g, V)
    mat = op.matrix
    assert np.abs(mat - mat.conj().T).max() <= 1e-13
    # diagonal blocks carry the unitary polar part, unweighted
    blk = mat[:2, :2]
    assert np.allclose(blk, potential.polar_factorize(V(g.nodes[0])).uv, atol=1e-14)


def test_bs_rejects_potential_non_finite_at_a_node(reps):
    # NaN on the half-space x_0 > 0, which holds half the grid nodes
    def evaluate(x):
        return np.full((4, 4), np.nan) if x[0] > 0 else np.eye(4)

    V = potential.MatrixPotential(n=3, size=4, evaluate=evaluate)
    g = discretize.build_grid(3, 1.0, 2)
    for assemble in (
        lambda: discretize.assemble_bs(reps[3], g, 1j, V),
        lambda: discretize.assemble_bs_selfadjoint(reps[3], g, V),
    ):
        with pytest.raises(ValueError, match="finite"):
            assemble()


def test_bs_dimension_mismatch(reps):
    g = discretize.build_grid(2, 1.0, 3)
    with pytest.raises(ValueError, match="block size"):
        discretize.assemble_bs(reps[2], g, 1j, _zero_potential(2, 4))
    with pytest.raises(ValueError, match="dimension"):
        discretize.assemble_bs(reps[2], g, 1j, _zero_potential(3, 2))


def test_schatten_diag_examples():
    mat = np.diag([3.0, 4.0])
    assert abs(discretize.schatten_norm(mat, 2) - 5.0) <= 1e-14
    assert abs(discretize.operator_norm(mat) - 4.0) <= 1e-14


def test_schatten_unitary_invariance():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u = random_unitary(rng, 6)
    v = random_unitary(rng, 6)
    for p in (1.0, 2.0, 3.7, math.inf):
        assert abs(
            discretize.schatten_norm(u @ a @ v, p) - discretize.schatten_norm(a, p)
        ) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_schatten_two_matches_frobenius(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    assert abs(discretize.schatten_norm(a, 2) - np.linalg.norm(a, "fro")) <= 1e-12


def test_schatten_monotonicity(reps):
    g = discretize.build_grid(2, 1.0, 5)
    ops = [
        discretize.assemble_weighted_resolvent(reps[2], g, 1j, 0.9),
        discretize.assemble_bs(reps[2], g, 1j, potential.gaussian(2, amplitude=0.6)),
    ]
    for op in ops:
        norms = [discretize.schatten_norm(op, p) for p in (1, 2, 3, 6)]
        norms.append(discretize.operator_norm(op))
        for lo, hi in zip(norms[1:], norms[:-1]):
            assert lo <= hi * (1 + 1e-12)


def test_schatten_p_rejected():
    with pytest.raises(ValueError):
        discretize.schatten_norm(np.eye(2), 0.5)


def test_pointwise_domination_transfer(reps):
    # |K1| <= K2 entrywise forces ||K1 f|| <= ||K2 f|| for nonnegative f
    g = discretize.build_grid(2, 1.0, 5)
    k1 = discretize.assemble_weighted_resolvent(reps[2], g, 1j, 0.75).matrix
    k2 = np.abs(k1)
    rng = np.random.default_rng(11)
    for _ in range(100):
        f = rng.uniform(0.0, 1.0, size=k1.shape[1])
        assert np.linalg.norm(k1 @ f) <= np.linalg.norm(k2 @ f) + 1e-13


def test_default_box_radius():
    V = potential.power(3, 4.0, amplitude=2.0)
    R = discretize.default_box_radius(V, tol=1e-6)
    assert abs(V.C * (1 + R**2) ** (-V.rho / 2) - 1e-6) <= 1e-16
    tiny = potential.power(3, 4.0, amplitude=1e-9)
    assert discretize.default_box_radius(tiny, tol=1e-6) == 1.0
    with pytest.raises(ValueError):
        discretize.default_box_radius(V, tol=0.0)
