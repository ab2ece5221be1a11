import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshift import potential
from conftest import random_hermitian, random_unitary


def test_polar_diagonal_example():
    got = potential.polar_factorize(np.diag([4.0, -9.0]))
    assert np.allclose(got.v1, np.diag([2.0, 3.0]), atol=1e-14)
    assert np.allclose(got.uv, np.diag([1.0, -1.0]), atol=1e-14)
    assert np.allclose(got.v2, np.diag([2.0, -3.0]), atol=1e-14)


def test_polar_zero_matrix_kernel_convention():
    got = potential.polar_factorize(np.zeros((3, 3)))
    assert np.allclose(got.v1, 0.0)
    assert np.allclose(got.uv, np.eye(3))


def test_polar_reconstruction_hundred_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        v = random_hermitian(rng, 4, scale=3.0)
        f = potential.polar_factorize(v)
        assert np.linalg.norm(f.v1 @ f.uv @ f.v1 - v) <= 1e-12 * max(
            1.0, np.linalg.norm(v)
        )
        assert np.linalg.norm(f.v1.conj().T @ f.v2 - v) <= 1e-12 * max(
            1.0, np.linalg.norm(v)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=8, max_size=8
    )
)
def test_polar_factor_properties(vals):
    # build a Hermitian 2x2 from four real and two complex degrees of freedom
    a, b, c, d, e, f, g, h = vals
    v = np.array([[a, c + 1j * d], [c - 1j * d, b]]) + np.array(
        [[e, g + 1j * h], [g - 1j * h, f]]
    )
    fac = potential.polar_factorize(v)
    eye = np.eye(2)
    assert np.linalg.norm(fac.uv @ fac.uv - eye) <= 1e-12
    assert np.linalg.norm(fac.uv - fac.uv.conj().T) <= 1e-12
    assert np.min(np.linalg.eigvalsh(fac.v1)) >= -1e-12
    assert np.linalg.norm(fac.v1 @ fac.uv @ fac.v1 - v) <= 1e-11 * max(
        1.0, np.linalg.norm(v)
    )


def test_polar_sign_eigenvalues_exact():
    rng = np.random.default_rng(42)
    v = random_hermitian(rng, 5)
    uv = potential.polar_factorize(v).uv
    lam = np.linalg.eigvalsh(uv)
    assert np.all(np.abs(np.abs(lam) - 1.0) <= 1e-12)


def test_polar_identity_on_kernel():
    # rank-2 matrix embedded in 4x4; U_V must fix the kernel pointwise
    rng = np.random.default_rng(43)
    q = random_unitary(rng, 4)
    v = q @ np.diag([2.5, -1.5, 0.0, 0.0]) @ q.conj().T
    uv = potential.polar_factorize(v).uv
    for k in (2, 3):
        vec = q[:, k]
        assert np.linalg.norm(uv @ vec - vec) <= 1e-12


def test_polar_unitary_equivariance_simple_spectrum():
    rng = np.random.default_rng(44)
    for _ in range(10):
        lam = np.sort(rng.normal(size=4) * 3)
        while np.min(np.diff(lam)) < 0.3:
            lam = np.sort(rng.normal(size=4) * 3)
        q = random_unitary(rng, 4)
        v = q @ np.diag(lam) @ q.conj().T
        w = random_unitary(rng, 4)
        direct = potential.polar_factorize(w @ v @ w.conj().T)
        base = potential.polar_factorize(v)
        assert np.linalg.norm(direct.v1 - w @ base.v1 @ w.conj().T) <= 1e-11
        assert np.linalg.norm(direct.uv - w @ base.uv @ w.conj().T) <= 1e-11


def test_polar_stack_factors_each_member_alone():
    # the -2e-13 eigenvalue is negative against its own matrix's cut
    # (1e-13) but would count as kernel against a cut taken over the whole
    # stack, where the norm-10 member raises it to 1e-12
    rng = np.random.default_rng(45)
    q, w = random_unitary(rng, 3), random_unitary(rng, 3)
    stack = np.stack(
        [
            np.zeros((3, 3)),
            w @ np.diag([2.0, -1.5, 0.5]) @ w.conj().T,
            q @ np.diag([1.0, 0.5, -2e-13]) @ q.conj().T,
            np.diag([10.0, -3.0, 2.0]),
        ]
    )
    got = potential.polar_factorize(stack)
    for i, v in enumerate(stack):
        alone = potential.polar_factorize(v)
        assert np.array_equal(got.v1[i], alone.v1)
        assert np.array_equal(got.uv[i], alone.uv)
        assert np.array_equal(got.v2[i], alone.v2)
    assert np.linalg.eigvalsh(got.uv[2])[0] == pytest.approx(-1.0)
    bad = stack.copy()
    bad[1, 0, 1] += 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        potential.polar_factorize(bad)


def test_polar_rejects_non_hermitian():
    with pytest.raises(ValueError):
        potential.polar_factorize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        potential.polar_factorize(np.ones((2, 3)))


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
def test_polar_rejects_non_finite_entries(entry):
    # a NaN used to pass the Hermiticity test (NaN > bar is false) and
    # came back as all-NaN factors
    v = np.array([[entry, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        potential.polar_factorize(v)
    stack = np.stack([np.eye(2), v])
    with pytest.raises(ValueError, match="finite"):
        potential.polar_factorize(stack)


# ---------------------------------------------------------------------------
# decay reports


def _ball_samples(rng, n, count, rmax):
    pts = []
    for _ in range(count):
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        pts.append(rng.uniform(0, rmax) * u)
    return pts


def test_decay_gaussian_passes_strong_hypothesis():
    rng = np.random.default_rng(51)
    V = potential.gaussian(3, width=1.0)
    samples = _ball_samples(rng, 3, 200, 8.0)
    for eps in (0.5, 1.9):
        rpt = potential.decay_report(V, "12.1", samples, eps=eps)
        assert rpt["passed"]
        assert rpt["worst_ratio"] <= 1.0
        assert rpt["advisory"]["max_x_dot_grad"] < 1.0


def test_decay_slow_power_fails_exponent():
    rng = np.random.default_rng(52)
    V = potential.power(3, 2.0)
    rpt = potential.decay_report(V, "7.1", _ball_samples(rng, 3, 50, 5.0))
    assert not rpt["exponent_ok"]
    assert not rpt["passed"]
    # the same potential satisfies the weak hypothesis (rho > 1)
    rpt = potential.decay_report(V, "3.1", _ball_samples(rng, 3, 50, 5.0))
    assert rpt["passed"]


def test_decay_power_five_passes_with_surplus():
    rng = np.random.default_rng(53)
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    embedded = np.zeros((4, 4))
    embedded[:2, :2] = sigma1
    V = potential.power(3, 5.0, matrix=embedded)
    rpt = potential.decay_report(V, "12.1", _ball_samples(rng, 3, 200, 12.0), eps=0.5)
    assert rpt["required_exponent"] == pytest.approx(4.5)
    assert rpt["passed"]


def test_decay_requires_positive_surplus():
    rng = np.random.default_rng(54)
    V = potential.power(3, 3.5, eps=0.0)
    rpt = potential.decay_report(V, "12.1", _ball_samples(rng, 3, 20, 4.0))
    assert not rpt["exponent_ok"]
    assert not rpt["passed"]


def test_decay_flags_non_hermitian_eval():
    bad = potential.MatrixPotential(
        n=2,
        size=2,
        evaluate=lambda x: np.array([[0.0, 1.0], [0.0, 0.0]]),
        rho=5.0,
        C=10.0,
    )
    rpt = potential.decay_report(bad, "3.1", [np.zeros(2), np.ones(2)])
    assert not rpt["hermitian_ok"]
    assert not rpt["passed"]


def test_decay_rejections():
    V = potential.gaussian(2)
    with pytest.raises(ValueError):
        potential.decay_report(V, "8.1", [np.zeros(2)])
    with pytest.raises(ValueError):
        potential.decay_report(V, "3.1", [])


def test_bump_compact_support():
    V = potential.bump(3, radius=1.5, amplitude=2.0)
    assert np.allclose(V(np.array([1.6, 0.0, 0.0])), 0.0)
    inside = V(np.array([0.5, 0.0, 0.0]))
    assert np.linalg.norm(inside) > 0
    rng = np.random.default_rng(55)
    rpt = potential.decay_report(V, "12.1", _ball_samples(rng, 3, 100, 4.0))
    assert rpt["passed"]


def test_declared_bound_holds_on_families():
    rng = np.random.default_rng(56)
    for V in (
        potential.gaussian(2, width=0.7, amplitude=3.0),
        potential.power(3, 4.0, amplitude=1.5),
        potential.bump(2, radius=2.0),
    ):
        for x in _ball_samples(rng, V.n, 150, 6.0):
            bound = V.C * (1 + np.dot(x, x)) ** (-V.rho / 2)
            assert np.max(np.abs(V(x))) <= bound + 1e-12


# ---------------------------------------------------------------------------
# JSON loader


def test_loader_roundtrip(tmp_path):
    spec = {
        "family": "power",
        "params": {"rho": 4.0, "amplitude": 0.8, "size": 4},
        "n": 3,
    }
    V = potential.load_potential(spec)
    assert V.n == 3 and V.size == 4 and V.rho == 4.0
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(spec))
    W = potential.load_potential(str(path))
    x = np.array([0.3, -0.2, 0.5])
    assert np.allclose(V(x), W(x))
    # JSON string form
    U = potential.load_potential(json.dumps(spec))
    assert np.allclose(U(x), V(x))


def test_loader_matrix_param():
    spec = {
        "family": "gaussian",
        "params": {"width": 1.2, "matrix": [[1.0, 0.5], [0.5, -1.0]]},
        "n": 2,
    }
    V = potential.load_potential(spec)
    got = V(np.zeros(2))
    assert np.allclose(got, np.array([[1.0, 0.5], [0.5, -1.0]]))


def test_loader_rejections():
    with pytest.raises(ValueError):
        potential.load_potential({"family": "box", "params": {}, "n": 2})
    with pytest.raises(ValueError):
        potential.load_potential({"family": "power", "params": {}})
    with pytest.raises(ValueError):
        potential.load_potential(
            {"family": "power", "params": {"rho": 3.0, "junk": 1}, "n": 2}
        )


def test_default_matrix_size_matches_spinor_dimension():
    assert potential.gaussian(2).size == 2
    assert potential.gaussian(3).size == 4
    assert potential.gaussian(4).size == 4
    assert potential.gaussian(5).size == 8


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ({"family": "power", "params": {"amplitude": 1.0}, "n": 3}, "/params/rho"),
        ({"family": "bump", "params": {"radius": "wide"}, "n": 3}, "/params/radius"),
        ({"family": "gaussian", "params": {"size": 2.5e400}, "n": 3}, "/params/size"),
        ({"family": "gaussian", "params": {"matrix": [[1.0, "x"]]}, "n": 2}, "/params/matrix"),
        ({"family": "gaussian", "params": [1], "n": 3}, "/params"),
        ({"family": "gaussian", "params": {}, "n": "three"}, "/n"),
    ],
)
def test_loader_names_the_malformed_member(spec, pointer):
    with pytest.raises(ValueError, match=pointer):
        potential.load_potential(spec)


def test_loader_null_param_keeps_the_default():
    V = potential.load_potential({"family": "gaussian", "params": {"rho": None}, "n": 3})
    assert V.rho == 3 + 4.0
