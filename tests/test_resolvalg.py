"""Riesz projections, projected inversion, block inverses, the
Birman-Schwinger identities, and the zero-energy threshold classifier."""

import logging

import numpy as np
import pytest
import scipy.linalg
from conftest import random_hermitian, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshift import resolvalg
from diracshift.clifford import build_clifford, conjugate_rep
from diracshift.discretize import assemble_bs_selfadjoint, build_grid
from diracshift.potential import MatrixPotential, bump, gaussian, polar_factorize, power
from diracshift.resolvalg import (
    RieszProjection,
    _conjugation,
    _rebuild_psi0,
    _threshold_form,
    bs_residuals,
    feshbach_invert,
    jn_invert,
    riesz_projection,
    threshold_classify,
    threshold_sweep,
)
from diracshift.ssf import MatrixPair


# ---------------------------------------------------------------------------
# riesz_projection


def test_riesz_isolates_simple_eigenvalue():
    p = riesz_projection(np.diag([0.0, 5.0]), 0.0, 1.0)
    assert p.rank == 1
    assert p.eigenvalue == 0.0
    assert np.abs(p.matrix - np.diag([1.0, 0.0])).max() < 1e-12


def test_riesz_jordan_block_has_full_algebraic_rank():
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    p = riesz_projection(j2, 0.0, 1.0)
    assert p.rank == 2
    assert np.abs(p.matrix - np.eye(2)).max() < 1e-12


def test_riesz_hermitian_matrix_gives_hermitian_projection():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 6)
    lam = np.linalg.eigvalsh(a)
    radius = 0.5 * np.diff(lam).min()
    p = riesz_projection(a, lam[2], radius)
    assert p.rank == 1
    assert np.abs(p.matrix - p.matrix.conj().T).max() < 1e-10
    assert np.abs(p.matrix @ p.matrix - p.matrix).max() < 1e-11


def test_riesz_projection_commutes_with_matrix():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    lam = np.linalg.eigvals(a)
    gaps = np.abs(lam - lam[0])
    radius = 0.45 * gaps[gaps > 1e-9].min()
    p = riesz_projection(a, lam[0], radius)
    assert np.abs(a @ p.matrix - p.matrix @ a).max() < 1e-10


def test_riesz_ranks_sum_to_dimension():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    lam = np.linalg.eigvals(a)
    total = 0
    for lam0 in lam:
        gaps = np.abs(lam - lam0)
        radius = 0.45 * gaps[gaps > 1e-9].min()
        total += riesz_projection(a, lam0, radius).rank
    assert total == 8


def test_riesz_circle_around_everything_is_identity():
    rng = np.random.default_rng(10)
    a = random_hermitian(rng, 5)
    p = riesz_projection(a, 0.0, 100.0)
    assert p.rank == 5
    assert np.abs(p.matrix - np.eye(5)).max() < 1e-11


def test_riesz_empty_circle_is_zero():
    p = riesz_projection(np.diag([3.0, 4.0]), 0.0, 1.0)
    assert p.rank == 0
    assert np.abs(p.matrix).max() < 1e-11


def test_riesz_eigenvalue_on_circle_rejected():
    with pytest.raises(ValueError, match="integration circle"):
        riesz_projection(np.diag([1.0, 3.0]), 0.0, 1.0)


def test_riesz_radius_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        riesz_projection(np.eye(2), 0.0, 0.0)


def test_riesz_eigenvalue_hugging_circle_still_resolved():
    # quadrature alone cannot separate 1.0005 from the unit circle; the
    # reordered Schur route must take over and stay exact
    p = riesz_projection(np.diag([0.0, 1.0005]), 0.0, 1.0)
    assert p.rank == 1
    assert np.abs(p.matrix @ p.matrix - p.matrix).max() <= 1e-11
    assert np.abs(p.matrix - np.diag([1.0, 0.0])).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 7))
def test_riesz_rank_counts_enclosed_eigenvalues(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    lam = np.linalg.eigvalsh(a)
    center = float(rng.uniform(lam.min(), lam.max()))
    radius = float(rng.uniform(0.1, 2.0))
    dist = np.abs(lam - center)
    if np.any(np.abs(dist - radius) < 1e-3):
        return
    p = riesz_projection(a, center, radius)
    assert p.rank == int(np.sum(dist < radius))


# ---------------------------------------------------------------------------
# jn_invert


def test_jn_reduction_on_rank_one_projection():
    reduced, inverse = jn_invert(np.diag([2.0, 3.0]), np.diag([1.0, 0.0]))
    assert reduced.shape == (1, 1)
    assert abs(reduced[0, 0] - 2 / 3) < 1e-14
    assert abs(inverse[0, 0] - 0.5) < 1e-14
    assert np.abs(inverse - np.diag([0.5, 1 / 3])).max() < 1e-14


def test_jn_zero_projection_falls_back_to_direct_inverse():
    reduced, inverse = jn_invert(np.diag([2.0, 3.0]), np.zeros((2, 2)))
    assert reduced.shape == (0, 0)
    assert np.abs(inverse - np.diag([0.5, 1 / 3])).max() < 1e-14


def test_jn_singular_matrix_flagged_through_reduction():
    a = np.diag([0.0, 2.0, 5.0])
    proj = riesz_projection(a, 0.0, 1.0)
    reduced, inverse = jn_invert(a, proj)
    assert inverse is None
    assert np.abs(reduced).max() < 1e-12


def test_jn_accepts_projection_object_and_raw_matrix():
    a = np.diag([2.0, 3.0, 7.0])
    proj = riesz_projection(a, 2.0, 0.5)
    r1, i1 = jn_invert(a, proj)
    r2, i2 = jn_invert(a, proj.matrix)
    assert np.abs(r1 - r2).max() < 1e-14
    assert np.abs(i1 - i2).max() < 1e-14


def test_jn_oblique_projection_reconstructs_inverse():
    # idempotent but not Hermitian: ran P and ker P are not orthogonal
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    _, inverse = jn_invert(a, p)
    assert np.abs(inverse - np.linalg.inv(a)).max() < 1e-12


def test_jn_matches_direct_inverse_over_random_instances():
    rng = np.random.default_rng(11)
    singular_seen = 0
    for trial in range(200):
        d = int(rng.integers(2, 8))
        if trial % 5 == 0:
            # plant a kernel: Hermitian with one zero eigenvalue
            q = np.linalg.qr(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            )[0]
            vals = np.concatenate([[0.0], rng.uniform(0.5, 3.0, d - 1)])
            a = q @ np.diag(vals) @ q.conj().T
            proj = riesz_projection(a, 0.0, 0.25)
            reduced, inverse = jn_invert(a, proj)
            assert inverse is None
            singular_seen += 1
        else:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a += 0.5 * np.eye(d)
            lam = np.linalg.eigvals(a)
            lam0 = lam[int(rng.integers(d))]
            gaps = np.abs(lam - lam0)
            gaps = gaps[gaps > 1e-9]
            radius = 0.45 * gaps.min() if gaps.size else 0.5
            proj = riesz_projection(a, lam0, radius)
            reduced, inverse = jn_invert(a, proj)
            assert inverse is not None
            assert np.abs(inverse - np.linalg.inv(a)).max() < 1e-9
    assert singular_seen == 40


def test_jn_rejects_non_idempotent_projection():
    with pytest.raises(ValueError, match="idempotent"):
        jn_invert(np.eye(2), np.diag([0.5, 0.0]))


def test_jn_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        jn_invert(np.eye(3), np.diag([1.0, 0.0]))


def test_jn_rejects_singular_shift():
    # a + p has a zero column, so the reduction hypothesis fails
    with pytest.raises(ValueError, match="singular"):
        jn_invert(np.diag([-1.0, 2.0]), np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# feshbach_invert


def test_feshbach_two_by_two_scalars():
    out = feshbach_invert([[1.0]], [[2.0]], [[3.0]], [[4.0]])
    want = np.linalg.inv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    # Schur complement 1 - 2 * (1/4) * 3 = -1/2, so the top block is -2
    assert abs(out[0, 0] + 2.0) < 1e-13
    assert np.abs(out - want).max() < 1e-13


def test_feshbach_block_diagonal_inverts_blockwise():
    out = feshbach_invert(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), 2 * np.eye(2))
    assert np.abs(out - np.diag([1.0, 1.0, 0.5, 0.5])).max() < 1e-14


def test_feshbach_matches_direct_inverse():
    rng = np.random.default_rng(12)
    for _ in range(50):
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        out = feshbach_invert(b[:2, :2], b[:2, 2:], b[2:, :2], b[2:, 2:])
        assert out is not None
        assert np.abs(out - np.linalg.inv(b)).max() < 1e-10


def test_feshbach_singular_corner_rejected():
    with pytest.raises(ValueError, match="b22"):
        feshbach_invert(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


def test_feshbach_singular_complement_flagged():
    assert feshbach_invert([[1.0]], [[1.0]], [[1.0]], [[1.0]]) is None


def test_feshbach_off_diagonal_shapes_checked():
    with pytest.raises(ValueError, match="shapes"):
        feshbach_invert(np.eye(2), np.ones((3, 4)), np.ones((4, 2)), np.eye(4))


# ---------------------------------------------------------------------------
# bs_residuals


def test_bs_zero_potential_is_exact():
    pair = MatrixPair(s0=np.diag([1.0, 2.0, 3.0]), v=np.zeros((3, 3)))
    res = bs_residuals(pair, 1j)
    assert max(res.values()) < 1e-14


def test_bs_scalar_rank_one_closed_form():
    w = 0.7
    pair = MatrixPair(s0=np.array([[0.0]]), v=np.array([[w]]))
    z = 1j
    res = bs_residuals(pair, z)
    assert max(res.values()) < 1e-12
    # sandwiched resolvent reduces to w r0 / (1 + w r0) with r0 = -1/z
    r0 = 1.0 / (0.0 - z)
    direct = w * (1.0 / (w - z))
    assert abs(direct - w * r0 / (1 + w * r0)) < 1e-14


def test_bs_residuals_small_for_random_pairs():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        pair = MatrixPair(
            s0=random_hermitian(rng, 6), v=random_hermitian(rng, 6, scale=0.7)
        )
        res = bs_residuals(pair, 0.3 + 1j)
        worst = max(worst, max(res.values()))
    assert worst < 1e-10


def test_bs_rectangular_factors_supported():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        s0 = random_hermitian(rng, 6)
        v1 = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        v2 = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        res = bs_residuals((s0, v1, v2), -0.2 + 0.8j)
        worst = max(worst, max(res.values()))
    assert worst < 1e-10


def test_bs_pair_route_matches_polar_factors():
    rng = np.random.default_rng(15)
    pair = MatrixPair(s0=random_hermitian(rng, 5), v=random_hermitian(rng, 5))
    f = polar_factorize(pair.v)
    a = bs_residuals(pair, 0.4 + 0.9j)
    b = bs_residuals((pair.s0, f.v1, f.v2), 0.4 + 0.9j)
    assert a == b


def test_bs_real_energy_rejected():
    pair = MatrixPair(s0=np.eye(2), v=np.eye(2))
    with pytest.raises(ValueError, match="off the real axis"):
        bs_residuals(pair, 0.5)


def test_bs_singular_operator_rejected():
    # v2 r0 v1* = 1j * (-1/1j) = -1 makes I + BS exactly singular
    with pytest.raises(ValueError, match="singular Birman-Schwinger"):
        bs_residuals((np.zeros((1, 1)), np.eye(1), 1j * np.eye(1)), 1j)


def test_bs_factors_require_hermitian_base():
    with pytest.raises(ValueError, match="Hermitian"):
        bs_residuals((np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(2)), 1j)


# ---------------------------------------------------------------------------
# threshold classification


@pytest.fixture(scope="module")
def grid3():
    return build_grid(3, 3.0, 3)


def well(amplitude):
    # the attractive matrix Gaussian well at coupling ``amplitude``
    return gaussian(3, amplitude=-amplitude, size=4)


@pytest.fixture(scope="module")
def attractive():
    return well(1.0)


def crossing_amplitude(rep, grid, V):
    # the assembled matrix is U + a K, linear in the amplitude, with U on
    # the diagonal blocks (punctured rule) and K off them; it is singular
    # exactly when -1/a is an eigenvalue of U K
    m = assemble_bs_selfadjoint(rep, grid, V).matrix
    node = np.arange(m.shape[0]) // rep.N
    u = np.where(node[:, None] == node[None, :], m, 0.0)
    k = m - u
    mu = np.linalg.eigvals(u @ k)
    real = mu[np.abs(mu.imag) < 1e-9].real
    amps = np.sort(-1.0 / real[real < -1e-12])
    return float(amps[0]), u, k


def test_threshold_zero_potential_regular(reps, grid3):
    report = threshold_classify(reps[3], grid3, gaussian(3, amplitude=0.0, size=4))
    assert report.classification == "regular"
    assert report.near.size == 0
    assert report.phi0.shape[1] == 0
    assert np.abs(report.eigenvalues - 1.0).max() < 1e-14


def test_threshold_weak_potential_regular(reps, grid3):
    report = threshold_classify(reps[3], grid3, well(0.01))
    assert report.classification == "regular"
    assert np.abs(report.eigenvalues).min() > 0.9
    assert report.hermiticity_defect < 1e-10


def test_threshold_exceptional_at_pencil_crossing(reps, grid3, attractive):
    astar, _, _ = crossing_amplitude(reps[3], grid3, attractive)
    report = threshold_classify(reps[3], grid3, well(astar), tol=1e-6)
    assert report.classification == "exceptional"
    assert report.near.size >= 1
    assert np.abs(report.near).max() < 1e-6
    assert report.phi0.shape == (108, report.near.size)
    assert report.psi0.shape == (108, report.near.size)


def test_threshold_candidates_solve_fixed_point(reps, grid3, attractive):
    # each near-kernel pair satisfies phi = sqrt(w) V2 psi up to the
    # eigenvalue defect, with equality norm exactly |mu|
    astar, _, _ = crossing_amplitude(reps[3], grid3, attractive)
    V = well(astar)
    report = threshold_classify(reps[3], grid3, V, tol=1e-6)
    count = len(grid3.nodes)
    sw = np.sqrt(grid3.weights)
    v2 = polar_factorize(np.stack([V(x) for x in grid3.nodes])).v2
    psi = report.psi0.reshape(count, reps[3].N, -1)
    pred = np.einsum("j,jab,jbk->jak", sw, v2, psi).reshape(report.phi0.shape)
    resid = np.linalg.norm(report.phi0 - pred, axis=0)
    assert np.abs(resid - np.abs(report.near)).max() < 1e-8


def test_threshold_sweep_dips_at_crossing(reps, grid3, attractive):
    astar, u, k = crossing_amplitude(reps[3], grid3, attractive)
    amps = np.linspace(astar - 1.0, astar + 1.0, 41)
    dips = []
    for a in amps:
        m = u + a * k
        dips.append(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).min())
    assert abs(amps[int(np.argmin(dips))] - astar) <= amps[1] - amps[0]


def test_threshold_refinement_flag(reps, grid3, attractive):
    astar, _, _ = crossing_amplitude(reps[3], grid3, attractive)
    tuned = threshold_classify(
        reps[3], grid3, well(astar), tol=1e-6, check_refinement=True,
    )
    # the crossing amplitude is a coarse-grid artifact, so doubling the
    # per-axis count moves it and the label flips
    assert tuned.classification == "exceptional"
    assert tuned.refinement_stable is False

    weak = threshold_classify(
        reps[3], grid3, well(0.01), tol=1e-6, check_refinement=True,
    )
    assert weak.refinement_stable is True


def test_threshold_tol_must_be_positive(reps, grid3):
    with pytest.raises(ValueError, match="positive"):
        threshold_classify(reps[3], grid3, gaussian(3, amplitude=0.0, size=4), tol=0.0)


def test_regular_threshold_computes_no_eigenvectors(reps, grid3, monkeypatch):
    # only the 4x4 polar factors of V may ask for eigenvectors; any
    # eigenvector solve of the assembled matrix raises
    def guarded(solver):
        def call(a, *args, **kwargs):
            if np.shape(a)[-1] > reps[3].N:
                raise AssertionError("eigenvectors of the threshold matrix requested")
            return solver(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigh", guarded(np.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "eigh", guarded(scipy.linalg.eigh))
    report = threshold_classify(reps[3], grid3, well(0.01), check_refinement=True)
    assert report.classification == "regular"
    assert report.refinement_stable is True
    assert report.eigenvalues.shape == (108,)
    assert report.phi0.shape == report.psi0.shape == (108, 0)


def _projector(columns):
    q, _ = np.linalg.qr(columns)
    return q @ q.conj().T


def routes_taken(caplog):
    return [r.getMessage().split(": ")[1].split(" route")[0] for r in caplog.records]


@pytest.mark.parametrize("route", ["real", "complex"])
def test_near_vectors_match_the_full_eigh_route(
    reps, grid3, attractive, route, monkeypatch, caplog
):
    # at the crossing the Clifford symmetry makes the near cluster 4-fold,
    # so single vectors are basis-dependent but the projectors are not
    astar, _, _ = crossing_amplitude(reps[3], grid3, attractive)
    V, tol = well(astar), 1e-6
    if route == "complex":
        monkeypatch.setattr(resolvalg, "_conjugation", lambda rep, grid: None)
    caplog.set_level(logging.DEBUG, logger="diracshift.resolvalg")
    report = threshold_classify(reps[3], grid3, V, tol=tol)
    assert routes_taken(caplog) == [route]
    m = assemble_bs_selfadjoint(reps[3], grid3, V).matrix
    sym = (m + m.conj().T) / 2
    phi = report.phi0
    assert report.near.size == phi.shape[1] == 4

    assert np.abs(phi.conj().T @ phi - np.eye(4)).max() <= 1e-12
    defect = np.linalg.norm(sym @ phi - phi * report.near, 2)
    assert defect <= 1e-10 * np.linalg.norm(sym, 2)

    values, vectors = np.linalg.eigh(sym)
    full = vectors[:, np.abs(values) < tol]
    assert np.abs(phi @ phi.conj().T - full @ full.conj().T).max() <= 1e-10
    psi_full = _rebuild_psi0(reps[3], grid3, V, full)
    assert np.abs(_projector(report.psi0) - _projector(psi_full)).max() <= 1e-10


def test_near_vectors_are_the_masked_set_at_the_tol_edge(reps, grid3, attractive):
    # tol equal to some |eigenvalue| excludes it (the mask is strict) and
    # the next float up includes it; the subset solve follows the mask
    # either way, including when an eigenvalue sits exactly at -tol or +tol
    spectrum = threshold_classify(reps[3], grid3, attractive).eigenvalues
    for edge in np.sort(np.abs(spectrum))[[0, 5, 17, 60]]:
        for tol in (edge, np.nextafter(edge, np.inf)):
            report = threshold_classify(reps[3], grid3, attractive, tol=tol)
            kept = int(np.sum(np.abs(report.eigenvalues) < tol))
            assert report.phi0.shape == (108, kept)
            assert report.near.size == kept
            assert report.classification == ("exceptional" if kept else "regular")


def test_threshold_sweep_matches_rescaled_classification(reps, grid3, attractive):
    astar, _, _ = crossing_amplitude(reps[3], grid3, attractive)
    amps = [0.01, 1.0, astar, astar + 1.0, 40.0]
    sweep = threshold_sweep(reps[3], grid3, attractive, amps, tol=1e-6)
    assert [e["amplitude"] for e in sweep] == amps
    labels = []
    for entry, a in zip(sweep, amps):
        report = threshold_classify(reps[3], grid3, well(a), tol=1e-6)
        assert entry["classification"] == report.classification
        gap = np.abs(report.eigenvalues).min()
        assert abs(entry["min_abs_eigenvalue"] - gap) < 1e-12
        labels.append(entry["classification"])
    assert labels[0] == "regular" and labels[2] == "exceptional"


def test_threshold_sweep_rejects_nonpositive_amplitude(reps, grid3, attractive):
    for amps in ([1.0, 0.0], [-2.0]):
        with pytest.raises(ValueError, match="positive"):
            threshold_sweep(reps[3], grid3, attractive, amps)


def test_projection_dataclass_fields():
    p = riesz_projection(np.diag([0.0, 5.0]), 0.0, 1.0)
    assert isinstance(p, RieszProjection)
    assert p.eigenvalue == 0
    assert p.matrix.shape == (2, 2)


# ---------------------------------------------------------------------------
# real symmetric form of the threshold matrix


def real_coupling(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 ** ((n + 1) // 2),) * 2)
    return (a + a.T) / 2


@pytest.mark.parametrize("n, m", [(2, 4), (3, 3), (4, 3), (5, 2)])
@pytest.mark.parametrize(
    "family",
    [
        lambda n: gaussian(n, amplitude=-1.0),
        lambda n: bump(n, radius=2.0, matrix=real_coupling(n, 0)),
        lambda n: power(n, n + 1.0, amplitude=0.5),
    ],
    ids=["gaussian", "bump", "power"],
)
def test_real_form_spectrum_matches_complex_eigvalsh(reps, n, m, family):
    rep, grid = reps[n], build_grid(n, 3.0, m)
    matrix = assemble_bs_selfadjoint(rep, grid, family(n)).matrix
    want = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)
    form, lift, _ = _threshold_form(matrix, _conjugation(rep, grid))
    assert form.dtype == np.float64 and lift is not None
    got = np.linalg.eigvalsh(form)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def off_centre_well():
    shift = np.array([0.3, 0.0, 0.0])
    return MatrixPotential(
        n=3, size=4, evaluate=lambda x: -np.exp(-np.sum((x - shift) ** 2)) * np.eye(4)
    )


def complex_coupling():
    rng = np.random.default_rng(21)
    return gaussian(3, matrix=random_hermitian(rng, 4))


@pytest.mark.parametrize(
    "case",
    [
        lambda: (build_clifford(3), complex_coupling()),
        lambda: (build_clifford(3), off_centre_well()),
        lambda: (conjugate_rep(build_clifford(3), random_unitary(np.random.default_rng(3), 4)),
                 well(1.0)),
    ],
    ids=["complex-coupling", "off-centre", "rotated-rep"],
)
def test_threshold_without_the_symmetry_keeps_the_complex_route(grid3, case, caplog):
    rep, V = case()
    caplog.set_level(logging.DEBUG, logger="diracshift.resolvalg")
    report = threshold_classify(rep, grid3, V, tol=0.99)
    assert routes_taken(caplog) == ["complex"]
    # the spectrum, defect and near vectors come out as the complex solve gives them
    matrix = assemble_bs_selfadjoint(rep, grid3, V).matrix
    sym = (matrix + matrix.conj().T) / 2
    eigenvalues = np.linalg.eigvalsh(sym)
    assert np.array_equal(report.eigenvalues, eigenvalues)
    assert report.hermiticity_defect == np.abs(matrix - matrix.conj().T).max()
    near = np.flatnonzero(np.abs(eigenvalues) < 0.99)
    assert near.size >= 1
    _, phi = scipy.linalg.eigh(sym, subset_by_index=[near[0], near[-1]], driver="evr")
    assert np.array_equal(report.phi0, phi)


def test_real_route_is_logged_with_its_residual(reps, grid3, attractive, caplog):
    caplog.set_level(logging.DEBUG, logger="diracshift.resolvalg")
    threshold_sweep(reps[3], grid3, attractive, [0.5, 2.0])
    assert [r.getMessage() for r in caplog.records] == [
        "threshold spectrum: real route, conjugation residual 0.0"
    ] * 2
