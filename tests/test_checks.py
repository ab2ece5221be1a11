"""The one positivity rule, at every public entry point that takes a
positive real: NaN, the infinities, zero and negatives are all refused
(a bare ``x <= 0`` test lets NaN through, since NaN compares false)."""

import math

import numpy as np
import pytest

from diracshift import discretize, green, potential, resolvalg, ssf
from diracshift._checks import positive
from diracshift.clifford import build_clifford

REP2 = build_clifford(2)
REP3 = build_clifford(3)
GRID2 = discretize.build_grid(2, 1.0, 3)
GRID3 = discretize.build_grid(3, 2.0, 2)
WELL = potential.gaussian(3, amplitude=-1.0, size=4)
PAIR = ssf.MatrixPair(np.diag([0.0, 1.0]), np.diag([0.3, -0.2]))

SITES = {
    "build_grid R": lambda x: discretize.build_grid(2, x, 2),
    "default_box_radius tol": lambda x: discretize.default_box_radius(
        potential.power(3, 4.0), tol=x
    ),
    "weighted resolvent delta": lambda x: discretize.assemble_weighted_resolvent(
        REP2, GRID2, 1j, x
    ),
    "mass": lambda x: green.green0_massive(REP2, x, 1j, np.ones(2), np.zeros(2)),
    "gaussian width": lambda x: potential.gaussian(2, width=x),
    "power rho": lambda x: potential.power(2, x),
    "bump radius": lambda x: potential.bump(2, radius=x),
    "riesz radius": lambda x: resolvalg.riesz_projection(np.diag([0.0, 5.0]), 0.0, x),
    "threshold tol": lambda x: resolvalg.threshold_classify(REP3, GRID3, WELL, tol=x),
    "sweep tol": lambda x: resolvalg.threshold_sweep(REP3, GRID3, WELL, [1.0], tol=x),
    "sweep amplitude": lambda x: resolvalg.threshold_sweep(REP3, GRID3, WELL, [1.0, x]),
    "abel lam": lambda x: ssf.abel_transform(lambda nu: 1.0, x),
    "ssf eps": lambda x: ssf.ssf_boundary(PAIR, [0.5], eps_schedule=(1e-2, x)),
    "witten schedule": lambda x: ssf.witten_index(np.eye(2, 3), lambda_schedule=(-x,)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_refuses_non_positive_or_non_finite(site, bad):
    with pytest.raises(ValueError):
        SITES[site](bad)


def test_positive_returns_a_float_and_names_the_input():
    assert positive(np.float32(0.5), "width") == 0.5
    assert type(positive(2, "width")) is float
    with pytest.raises(ValueError, match="width must be positive and finite"):
        positive(math.nan, "width")
