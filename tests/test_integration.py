import math

import numpy as np
import pytest

from stokeslab import forms, integration
from stokeslab.cousin import Gauge, ResourceBudgetError, cousin_decompose
from stokeslab.currents import ChartCurrent, ChartMap, Rect, TopDimCurrent
from stokeslab.dyadic import CubeSet, DepthError, DyadicCube, RootBox
from stokeslab.quadrature import QuadratureError

ROOT = RootBox((0.0, 0.0), 1.0)
UNIT = TopDimCurrent(CubeSet.whole(ROOT))
UNIT_CUBE = DyadicCube(ROOT, 0, (0, 0))


def _x_dy():
    return forms.FormField(
        2, 1,
        coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0]]),
        differential=lambda p: np.ones((len(p), 1)),
        name="x dy",
    )


def _smooth_chart():
    scale = 0.25
    lip = math.sqrt(1.0 + (2 * scale) ** 2 + scale ** 2)
    return ChartMap(
        psi=lambda x, y: scale * (np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float)),
        gradient=lambda x, y: (2 * scale * np.asarray(x, dtype=float),
                               scale * np.ones_like(np.asarray(x, dtype=float))),
        lip_upper=lip,
        name="parabolic",
    )


def _xz_dy():
    # omega = x z dy with d omega = z dxdy - x dydz
    return forms.FormField(
        3, 1,
        coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0] * p[:, 2], np.zeros(len(p))]),
        differential=lambda p: np.column_stack([p[:, 2], np.zeros(len(p)), -p[:, 0]]),
        name="x z dy",
    )


def test_riemann_sum_of_one_is_mass():
    fam = cousin_decompose(UNIT_CUBE, Gauge.constant(0.4), 0.1)
    assert integration.riemann_sum(lambda p: np.ones(len(p)), fam) == 1.0


def test_riemann_sum_of_zero():
    fam = cousin_decompose(UNIT_CUBE, Gauge.constant(0.4), 0.1)
    assert integration.riemann_sum(lambda p: np.zeros(len(p)), fam) == 0.0


def test_riemann_midpoint_exact_for_linear():
    fam = cousin_decompose(UNIT_CUBE, Gauge.constant(0.4), 0.1)
    assert integration.riemann_sum(lambda p: p[:, 0], fam) == pytest.approx(0.5, abs=0.0)


def test_riemann_linear_in_integrand():
    fam = cousin_decompose(UNIT_CUBE, Gauge.constant(0.4), 0.1)
    f = lambda p: p[:, 0]
    g = lambda p: p[:, 1] ** 2
    lhs = integration.riemann_sum(lambda p: 2 * f(p) + 3 * g(p), fam)
    rhs = 2 * integration.riemann_sum(f, fam) + 3 * integration.riemann_sum(g, fam)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_riemann_additive_over_disjoint_family_unions():
    from dataclasses import replace

    left = cousin_decompose(DyadicCube(ROOT, 1, (0, 0)), Gauge.constant(0.3), 0.1)
    right = cousin_decompose(DyadicCube(ROOT, 1, (1, 0)), Gauge.constant(0.3), 0.1)
    merged = replace(left, pairs=left.pairs + right.pairs)
    f = lambda p: p[:, 0] + 2 * p[:, 1]
    assert integration.riemann_sum(f, merged) == pytest.approx(
        integration.riemann_sum(f, left) + integration.riemann_sum(f, right), rel=1e-14
    )


def test_circulation_green_area():
    res = integration.circulation(_x_dy(), UNIT)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_circulation_constant_form_vanishes():
    om = forms.FormField(2, 1, coeffs=lambda p: np.tile([0.3, -1.2], (len(p), 1)))
    assert integration.circulation(om, UNIT).value == pytest.approx(0.0, abs=1e-12)


def test_circulation_bounded_by_sup_times_boundary_mass():
    om = _x_dy()
    sup_omega = 1.0  # |x| <= 1 on the square
    res = integration.circulation(om, UNIT)
    assert abs(res.value) <= sup_omega * UNIT.boundary_mass().value + 1e-12


def test_scalar_oracle_polynomial():
    res = integration.scalar_integral_oracle(UNIT, lambda pts: pts[:, 0] ** 2)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_saks_henstock_constant_exact_at_every_gauge():
    rep = integration.saks_henstock_test(
        lambda pts: np.full(len(pts), 2.5), UNIT, 1e-6, j_range=range(0, 4))
    assert rep["achieved"] and rep["first_j_within_eps1"] == 0
    assert all(c["error"] <= 1e-12 for c in rep["curve"])


def test_saks_henstock_linear_center_tags_exact():
    rep = integration.saks_henstock_test(
        lambda pts: pts[:, 0], UNIT, 1e-8, j_range=range(0, 4))
    assert rep["achieved"] and rep["first_j_within_eps1"] == 0


def test_saks_henstock_quadratic_converges_geometrically():
    rep = integration.saks_henstock_test(
        lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2, UNIT, 1e-9,
        j_range=range(0, 6))
    errs = [c["error"] for c in rep["curve"]]
    # midpoint rule on squares: error ~ diam^2 ~ 4^-j
    for e_prev, e_next in zip(errs, errs[1:]):
        if e_prev > 1e-13:
            assert e_next <= 0.5 * e_prev + 1e-13


def test_saks_henstock_random_polynomials_rate():
    rng = np.random.default_rng(123)
    for trial in range(10):
        c = rng.uniform(-1, 1, size=4)

        def f(pts, c=c):
            return c[0] + c[1] * pts[:, 0] + c[2] * pts[:, 1] + c[3] * pts[:, 0] * pts[:, 1]

        rep = integration.saks_henstock_test(f, UNIT, 1e-7, j_range=range(0, 6))
        errs = [cv["error"] for cv in rep["curve"]]
        scale = max(errs[0], 1e-12)
        for j, e in enumerate(errs):
            assert e <= scale * 2.0 ** (-j) + 1e-12


def test_differentiation_flat_exact():
    rep = integration.differentiation_test(_x_dy(), UNIT, (0.3, 0.4), eta=0.1, eps2=1e-9)
    assert rep["applicable"] and rep["achieved"]
    assert rep["rows"][0]["gap_per_mass"] <= 1e-12


def test_differentiation_smooth_chart_threshold_found():
    C = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), _smooth_chart())
    rep = integration.differentiation_test(_xz_dy(), C, (0.4, 0.5), eta=0.05, eps2=5e-3)
    assert rep["applicable"] and rep["achieved"]
    gaps = [r["gap_per_mass"] for r in rep["rows"]]
    diams = [r["diam"] for r in rep["rows"]]
    # the defect decays at least linearly with the diameter
    assert gaps[-1] <= gaps[0] * (diams[-1] / diams[0]) * 4.0 + 1e-12


def test_differentiation_gate_at_singular_point():
    from stokeslab.counterexample import Params, build_surface_current

    S = build_surface_current(Params.default())
    om = S.model.omega_field()
    x = np.array([1.0, S.model.y_infinity, 0.0])
    rep = integration.differentiation_test(om, S, x, eta=0.01, eps2=1e-3)
    assert not rep["applicable"]


def test_stokes_flat_square_holds_tightly():
    rep = integration.stokes_check(UNIT, _x_dy())
    assert rep.verdict == integration.HOLDS
    assert abs(rep.gap) < 1e-9


def test_stokes_smooth_graph_holds():
    C = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), _smooth_chart())
    rep = integration.stokes_check(C, _xz_dy())
    assert rep.verdict == integration.HOLDS
    assert abs(rep.gap) < 1e-6
    assert rep.family_stats is not None


def test_stokes_refinement_curve_shrinks():
    C = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), _smooth_chart())
    rep = integration.stokes_check(C, _xz_dy(), eps_schedule=(1, 2, 3))
    errs = [c["abs_err"] for c in rep.refinement_curve]
    diams = [c["max_diam"] for c in rep.refinement_curve]
    assert errs[-1] <= errs[0] * (diams[-1] / diams[0]) * 4.0 + 1e-12


@pytest.mark.parametrize("error", [DepthError, QuadratureError, ResourceBudgetError])
def test_a_stop_inside_the_decomposition_leaves_the_identity_undecided(monkeypatch, error):
    # a refinement past its generation cap or a stalled quadrature inside the
    # corroborating families is a resource stop of the decomposition, not of the run
    def stopped(*args, **kwargs):
        raise error("out of budget")

    monkeypatch.setattr(integration, "gauge_decompose", stopped)
    rep = integration.stokes_check(UNIT, _x_dy())
    assert rep.decomposition == {"attempted": True, "status": "resource",
                                 "reason": "out of budget"}
    assert abs(rep.gap) < 1e-9 and rep.verdict == integration.UNDECIDED


def test_stokes_report_serializes():
    rep = integration.stokes_check(UNIT, _x_dy())
    text = rep.to_json()
    assert '"verdict"' in text


def test_theta_circulation_additivity():
    om = _x_dy()
    left = TopDimCurrent(CubeSet(ROOT, (DyadicCube(ROOT, 1, (0, 0)),
                                        DyadicCube(ROOT, 1, (0, 1)))))
    right = TopDimCurrent(CubeSet(ROOT, (DyadicCube(ROOT, 1, (1, 0)),
                                         DyadicCube(ROOT, 1, (1, 1)))))
    total = integration.circulation(om, UNIT)
    a = integration.circulation(om, left)
    b = integration.circulation(om, right)
    assert abs(a.value + b.value - total.value) <= a.error + b.error + total.error + 1e-12
