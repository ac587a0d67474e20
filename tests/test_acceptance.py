"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
complete; the whole module stays well under ten minutes.
"""

import math

import numpy as np
import pytest

from cube_refs import DyadicCube, cousin_decompose
from model_refs import sup_omega_on_section

from stokeslab import certify, forms, integration, minkowski
from stokeslab.counterexample import Params, build_surface_current
from stokeslab.cousin import (
    Gauge,
    RegularityFn,
    SubadditiveFn,
    regularity,
)
from stokeslab.currents import (
    ChartCurrent,
    ChartMap,
    Rect,
    TopDimCurrent,
    coarea_slice_check,
    pushforward_mass_bounds,
)
from stokeslab.dyadic import CubeSet, ExceptionalSet, RootBox

ROOT = RootBox((0.0, 0.0), 1.0)
UNIT = TopDimCurrent(CubeSet.whole(ROOT))
UNIT_CUBE = DyadicCube(ROOT, 0, (0, 0))
PARAMS = Params.default()


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def surface():
    return build_surface_current(PARAMS)


@pytest.fixture(scope="module")
def surface_stokes(surface):
    omega = surface.model.omega_field()
    return integration.stokes_check(
        surface, omega, surface.model.singular_set(),
        surface_options={"max_strip": 8, "y_panels": 2, "x_panels": 3, "order": 6},
    )


def test_criterion_01_cube_regularity_exact():
    worst2 = 0.0
    for g, idx in [(0, (0, 0)), (1, (1, 0)), (3, (5, 2)), (6, (40, 11))]:
        piece = TopDimCurrent(CubeSet.of(ROOT, [g], [idx]))
        worst2 = max(worst2, abs(regularity(piece) - 2.0 ** (-2.5)))
    root3 = RootBox((0.0, 0.0, 0.0), 1.0)
    worst3 = 0.0
    for g, idx in [(0, (0, 0, 0)), (2, (1, 2, 3))]:
        piece = TopDimCurrent(CubeSet.of(root3, [g], [idx]))
        worst3 = max(worst3, abs(regularity(piece) - 1.0 / (2.0 * 3.0 ** 1.5)))
    _report(1, worst2 <= 1e-15 and worst3 <= 1e-15,
            f"square regularity off by {worst2:.2e}, cube by {worst3:.2e}")


def test_criterion_02_cousin_tiling_50_random_gauges():
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(50):
        terms = [Gauge.constant(float(rng.uniform(0.05, 1.5)))]
        if rng.random() < 0.5:
            anchor = ExceptionalSet.points([tuple(rng.uniform(0, 1, 2))])
            terms.append(Gauge.distance_to(anchor, float(rng.uniform(0.5, 2.0)),
                                           float(rng.uniform(0.02, 0.3))))
        gauge = terms[0]
        for t in terms[1:]:
            gauge = gauge.min_with(t)
        eta = RegularityFn.constant(float(rng.uniform(0.01, 0.17)))
        family = cousin_decompose(UNIT_CUBE, gauge, eta.value)
        total = math.fsum(p.mass for p in family.pairs)
        check = certify.check_family(family, gauge, eta, SubadditiveFn.mass())
        if total != 1.0 or not check.passed:
            failures.append((trial, total, check.violations))
    _report(2, not failures, f"50 gauges tiled exactly with certificates; failures={failures!r}")


def test_criterion_03_stokes_holds_on_smooth_data():
    om2 = forms.FormField(
        2, 1,
        coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0]]),
        differential=lambda p: np.ones((len(p), 1)),
    )
    flat = integration.stokes_check(UNIT, om2)
    scale = 0.25
    lip = math.sqrt(1.0 + (2 * scale) ** 2 + scale ** 2)
    chart = ChartMap(
        psi=lambda x, y: scale * (np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float)),
        gradient=lambda x, y: (2 * scale * np.asarray(x, dtype=float),
                               scale * np.ones_like(np.asarray(x, dtype=float))),
        lip_upper=lip,
    )
    C = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), chart)
    om3 = forms.FormField(
        3, 1,
        coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0] * p[:, 2], np.zeros(len(p))]),
        differential=lambda p: np.column_stack([p[:, 2], np.zeros(len(p)), -p[:, 0]]),
    )
    graph = integration.stokes_check(C, om3)
    ok = (flat.verdict == integration.HOLDS and abs(flat.gap) < 1e-9
          and graph.verdict == integration.HOLDS and abs(graph.gap) < 1e-6)
    _report(3, ok, f"flat gap {flat.gap:.2e} (<1e-9), graph gap {graph.gap:.2e} (<1e-6)")


def test_criterion_04_counterexample_failure(surface, surface_stokes):
    rep = surface_stokes
    circ_ok = abs(rep.rhs - 1.0) < 1e-4
    rng = np.random.default_rng(99)
    tangential = surface.model.tangential_curl_samples(1000, rng)
    tang_ok = float(tangential.max()) <= 1e-3
    gap_ok = abs(abs(rep.gap) - 1.0) <= 2e-3
    verdict_ok = rep.verdict == integration.FAILS
    _report(4, circ_ok and tang_ok and gap_ok and verdict_ok,
            f"circulation {rep.rhs:.6f} (1 +- 1e-4), max tangential "
            f"{float(tangential.max()):.2e} (<=1e-3 at 1000 pts), |gap| "
            f"{abs(rep.gap):.6f} (1 +- 2e-3), verdict {rep.verdict}")


def test_criterion_05_boundary_mass(surface):
    bm = surface.boundary_mass()
    expected = 2.0 * math.pi + 1.0
    ok = abs(bm.value - expected) < 1e-6
    _report(5, ok, f"boundary mass {bm.value:.9f} vs 2*pi+1 = {expected:.9f}")


def test_criterion_06_length_blowup(surface):
    model = surface.model
    ratio = PARAMS.h / PARAMS.lam
    bounds_ok = all(
        model.section_length(PARAMS.y_k(k)).value >= 2.0 * ratio ** k
        for k in range(1, 9)
    )
    at_limit = abs(model.section_length(PARAMS.y_infinity).value - math.pi) < 1e-9
    _report(6, bounds_ok and at_limit,
            f"L(y_k) >= 2*(4/3)^k for k=1..8 and L(y_inf) = pi within 1e-9")


def test_criterion_07_area_summability(surface):
    model = surface.model
    areas = []
    ok_bounds = True
    for k in range(0, model.k_cut + 1):
        res, bound = model.strip_area(k)
        areas.append(res.value)
        if res.value > bound + res.error:
            ok_bounds = False
    tails = [model.tail_area_bound(k) for k in range(0, model.k_cut + 2)]
    ratios = [b / a for a, b in zip(tails, tails[1:])]
    cauchy = all(r < 1.0 for r in ratios) and max(ratios) < 0.7 and tails[-1] < 1e-6
    _report(7, ok_bounds and cauchy,
            f"sum A_k = {math.fsum(areas):.6f} with every A_k within its closed-form "
            f"bound; geometric tail ratio <= {max(ratios):.3f}, final tail {tails[-1]:.2e}")


def test_criterion_08_form_decay(surface):
    model = surface.model
    ks = range(2, 11)
    sups = [sup_omega_on_section(model, k) for k in ks]
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    envelope = [max((PARAMS.lam / PARAMS.h) ** k, (PARAMS.lam / PARAMS.a) ** k) for k in ks]
    fitted = float(np.median([s / e for s, e in zip(sups, envelope)]))
    within = all(s <= 10.0 * fitted * e for s, e in zip(sups, envelope))
    _report(8, decreasing and within,
            f"sup|omega| decreasing on k=2..10, within 10x fitted envelope "
            f"(fit constant {fitted:.3f})")


def test_criterion_09_minkowski_divergence(surface):
    E = surface.model.singular_set()
    p1 = minkowski.intrinsic_content(surface, E, 0.45, 1 / 3, 10)
    p2 = minkowski.intrinsic_content(surface, E, 0.3, 0.45, 12)
    both_divergent = p1.trend == minkowski.DIVERGENT and p2.trend == minkowski.DIVERGENT
    e1, e2 = p1.growth_exponent(), p2.growth_exponent()
    stable = abs(e1 - e2) <= 0.1 * max(abs(e1), abs(e2))
    seg = ExceptionalSet.segment((0.5, 0.0), (0.5, 1.0))
    flat_prof = minkowski.intrinsic_content(UNIT, seg, 0.2, 0.7, 12)
    flat_ok = (flat_prof.trend == minkowski.BOUNDED
               and abs(flat_prof.supremum() - 1.0) <= 1e-3)
    _report(9, both_divergent and stable and flat_ok,
            f"surface DIVERGENT with exponents {e1:.4f}/{e2:.4f} (within 10%), "
            f"flat strip BOUNDED at {flat_prof.supremum():.6f}")


def test_criterion_10_coarea_bound(surface):
    E_edge = ExceptionalSet.segment((0.0, 0.0), (0.0, 1.0))
    r1 = coarea_slice_check(UNIT, E_edge, np.linspace(0.05, 0.95, 19))
    E_center = ExceptionalSet.points([(0.5, 0.5)])
    r2 = coarea_slice_check(UNIT, E_center, np.linspace(0.03, 0.7, 20))
    E_sing = surface.model.singular_set()
    r3 = coarea_slice_check(surface, E_sing, np.linspace(0.02, 0.45, 12))
    oks = [r["integral"] <= r["mass"] * (1.0 + 1e-3) for r in (r1, r2, r3)]
    _report(10, all(oks),
            "slice-mass integrals vs masses: "
            + ", ".join(f"{r['integral']:.4f}<={r['mass']:.4f}" for r in (r1, r2, r3)))


def test_criterion_11_saks_henstock_convergence():
    rng = np.random.default_rng(7)
    all_ok = True
    worst = ""
    for trial in range(10):
        c = rng.uniform(-1, 1, size=5)

        def f(pts, c=c):
            return (c[0] + c[1] * pts[:, 0] + c[2] * pts[:, 1]
                    + c[3] * pts[:, 0] * pts[:, 1] + c[4] * pts[:, 0] ** 2)

        rep = integration.saks_henstock_test(f, UNIT, 1e-7, j_range=range(0, 6))
        errs = [cv["error"] for cv in rep["curve"]]
        C = max(errs[0], 1e-12)
        ok = all(e <= C * 2.0 ** (-j) + 1e-12 for j, e in enumerate(errs))
        if not ok:
            all_ok = False
            worst = f"trial {trial}: errors {errs}"
    _report(11, all_ok, worst or "10 polynomial integrands converge at rate C * 2^-j")


def test_criterion_12_pushforward_bounds(surface):
    reports = []
    zeros = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    slope = lambda x, y: (np.ones_like(np.asarray(x, dtype=float)), zeros(x, y))
    charts = [
        ChartCurrent(Rect(0.0, math.pi, 0.0, 0.5),
                     ChartMap(psi=zeros, gradient=lambda x, y: (zeros(x, y), zeros(x, y)),
                              lip_upper=1.0)),
        ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0),
                     ChartMap(psi=lambda x, y: np.asarray(x, dtype=float),
                              gradient=slope, lip_upper=math.sqrt(2.0)), theta=1),
        ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0),
                     ChartMap(psi=lambda x, y: np.asarray(x, dtype=float),
                              gradient=slope, lip_upper=math.sqrt(2.0)), theta=3),
    ]
    from stokeslab.currents import SurfaceCurrent

    model = surface.model
    for k in range(0, 6):
        y0, y1 = model.strip_bounds_y(k)
        charts.append(SurfaceCurrent(model, y0, y1, 1))
    for C in charts:
        reports.append(pushforward_mass_bounds(C))
    ok = all(r["ok"] for r in reports)
    _report(12, ok, f"{len(reports)} chart currents inside their mass sandwiches")
