"""Stokes' identity through the current protocol, on drawn cube sets and graph charts.

Each current goes through ``stokes_check`` without the caller naming its kind:
the left side is the current's ``tangent_integral``, the corroborating family
comes from its ``decomposition_atlas``.  A polynomial form with its declared
differential must read HOLDS, and the same form with d omega shifted by 0.1
must read FAILS.  Cube sets are drawn in dimensions 1 and 2 only, since
``boundary_edges`` of a cube-set current is planar.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslab import forms, integration
from stokeslab.currents import ChartCurrent, ChartMap, Rect, TopDimCurrent
from stokeslab.dyadic import CubeSet, RootBox

_COEFFS = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _cube_currents(draw):
    """A cube-set current of 1 to 5 cubes of generations 0-3 on a drawn root, m in {1, 2}."""
    m = draw(st.sampled_from([1, 2]))
    root = RootBox(tuple(draw(st.floats(-2.0, 2.0)) for _ in range(m)),
                   draw(st.sampled_from([0.5, 1.0, 2.0])))
    gens, indices = [], []
    for _ in range(draw(st.integers(1, 5))):
        g = draw(st.integers(0, 3))
        gens.append(g)
        indices.append(tuple(draw(st.integers(0, 2 ** g - 1)) for _ in range(m)))
    return TopDimCurrent(CubeSet.of(root, gens, indices), draw(st.sampled_from([-2, -1, 1, 3])))


def _polynomial_form(m: int, c, shift: float = 0.0) -> forms.FormField:
    """A polynomial form of degree m - 1 in R^m with its differential, shifted by shift.

    m = 1: f = c0 + c1 x + c2 x^2 + c3 x^3, df = f'.  m = 2: omega = P dx + Q dy
    with P = c0 + c1 x + c2 y + c3 x y and Q = c4 x + c5 y + c6 x^2 + c7 x y,
    d omega = Q_x - P_y.
    """
    if m == 1:
        return forms.FormField(
            1, 0,
            coeffs=lambda p: c[0] + p * (c[1] + p * (c[2] + p * c[3])),
            differential=lambda p: c[1] + p * (2 * c[2] + 3 * c[3] * p) + shift)
    return forms.FormField(
        2, 1,
        coeffs=lambda p: np.column_stack([
            c[0] + c[1] * p[:, 0] + c[2] * p[:, 1] + c[3] * p[:, 0] * p[:, 1],
            c[4] * p[:, 0] + c[5] * p[:, 1] + c[6] * p[:, 0] ** 2 + c[7] * p[:, 0] * p[:, 1]]),
        differential=lambda p: (c[4] + 2 * c[6] * p[:, 0] + c[7] * p[:, 1]
                                - c[2] - c[3] * p[:, 0] + shift)[:, None])


@given(_cube_currents(), st.lists(_COEFFS, min_size=8, max_size=8))
@settings(max_examples=80, deadline=None)
def test_polynomial_forms_on_cube_sets_hold_and_a_shifted_differential_fails(T, c):
    rep = integration.stokes_check(T, _polynomial_form(T.m, c), eps_schedule=(1,))
    assert rep.verdict == integration.HOLDS, rep.as_dict()
    assert rep.decomposition["status"] == "decomposed"
    shifted = integration.stokes_check(T, _polynomial_form(T.m, c, 0.1), eps_schedule=(1,))
    assert shifted.verdict == integration.FAILS, shifted.as_dict()
    # the shift adds 0.1 theta times the measure of the cube set to the left side
    assert math.isclose(shifted.gap - rep.gap, 0.1 * math.copysign(T.mass().value, T.theta),
                        rel_tol=1e-6, abs_tol=1e-9)


def _x_z_dy() -> forms.FormField:
    # omega = x z dy with d omega = z dxdy - x dydz
    return forms.FormField(
        3, 1,
        coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0] * p[:, 2], np.zeros(len(p))]),
        differential=lambda p: np.column_stack([p[:, 2], np.zeros(len(p)), -p[:, 0]]))


@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=6, max_size=6),
       st.sampled_from([-2, -1, 1, 3]))
@settings(max_examples=20, deadline=None)
def test_x_z_dy_holds_on_quadratic_graph_charts(c, theta):
    # psi = c0 + c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2 over the unit square
    def psi(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return c[0] + c[1] * x + c[2] * y + c[3] * x ** 2 + c[4] * x * y + c[5] * y ** 2

    def gradient(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return c[1] + 2 * c[3] * x + c[4] * y, c[2] + c[4] * x + 2 * c[5] * y

    # the partials are affine, so their largest magnitudes on the square sum the coefficients'
    px = abs(c[1]) + 2 * abs(c[3]) + abs(c[4])
    py = abs(c[2]) + abs(c[4]) + 2 * abs(c[5])
    T = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), ChartMap(psi, gradient, math.hypot(1.0, px, py)),
                     theta)
    rep = integration.stokes_check(T, _x_z_dy(), eps_schedule=(1,))
    assert rep.verdict == integration.HOLDS, rep.as_dict()
    assert rep.decomposition["status"] == "decomposed"
