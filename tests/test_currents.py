import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_refs import DyadicCube, center
from model_refs import from_vector, verify_lip_upper

from stokeslab import forms
from stokeslab.cli import _cube_set
from stokeslab.currents import (
    ChartCurrent,
    ChartMap,
    CurrentError,
    HalfSpace,
    Rect,
    TopDimCurrent,
    _lifted_tangent,
    _sample_boxes,
    _summed,
    boundary_form_integral,
    coarea_slice_check,
    mass_additivity_check,
    pushforward_mass_bounds,
    restrict,
    slice_current,
)
from stokeslab.dyadic import CubeSet, DepthError, ExceptionalSet, RootBox

ROOT = RootBox((0.0, 0.0), 1.0)
UNIT = TopDimCurrent(CubeSet.whole(ROOT))


def _flat_chart():
    zeros = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ChartMap(psi=zeros, gradient=lambda x, y: (zeros(x, y), zeros(x, y)), lip_upper=1.0,
                    name="flat")


def _tilt_chart():
    return ChartMap(
        psi=lambda x, y: np.asarray(x, dtype=float),
        gradient=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                               np.zeros_like(np.asarray(x, dtype=float))),
        lip_upper=math.sqrt(2.0),
        name="tilt",
    )


def test_mass_unit_square_exact():
    res = UNIT.mass()
    assert res.value == 1.0 and res.error == 0.0


def test_mass_flat_graph():
    y_inf = 0.5
    C = ChartCurrent(Rect(0.0, math.pi, 0.0, y_inf), _flat_chart())
    assert C.mass().value == pytest.approx(math.pi * y_inf, abs=1e-12)


def test_mass_tilted_graph_sqrt2():
    C = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), _tilt_chart())
    assert C.mass().value == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_boundary_mass_unit_square():
    assert UNIT.boundary_mass().value == 4.0


def test_boundary_mass_flat_graph_rectangle():
    C = ChartCurrent(Rect(0.0, math.pi, 0.0, 0.5), _flat_chart())
    assert C.boundary_mass().value == pytest.approx(2.0 * math.pi + 1.0, abs=1e-10)


def test_restrict_left_half():
    left = restrict(UNIT, HalfSpace(0, 0.5, below=True))
    assert left.mass().value == 0.5
    assert left.boundary_mass().value == 3.0


def test_restrict_identity_and_empty():
    assert restrict(UNIT, CubeSet.whole(ROOT)) == UNIT
    empty = restrict(UNIT, CubeSet.empty(ROOT))
    assert empty.is_zero()


def test_restrict_composition_is_intersection():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = CubeSet.of(ROOT, [2] * 5, rng.integers(0, 4, size=(5, 2)))
        B = CubeSet.of(ROOT, [2] * 5, rng.integers(0, 4, size=(5, 2)))
        two_step = restrict(restrict(UNIT, A), B)
        direct = restrict(UNIT, A.intersection(B))
        assert two_step.region == direct.region


def test_restrict_outside_refuses_to_stop_above_its_budget():
    # the dropped layer around the point stays far above 1e-300 at generation 26
    with pytest.raises(DepthError, match="generation 26"):
        UNIT.restrict_outside(ExceptionalSet.points([(0.3, 0.3)]), 1e-7, 1e-300)


def test_restrict_outside_caps_at_the_deepest_straddler():
    # a generation-26 cube beside a coarse one used to be split on, to generation 40
    fine = DyadicCube(ROOT, 26, (2 ** 25, 2 ** 25))
    region = TopDimCurrent(CubeSet.of(ROOT, [1, fine.generation], [(0, 0), fine.index]))
    E = ExceptionalSet.points([(0.5, 0.5)])
    r = math.hypot(*(center(fine) - 0.5))
    with pytest.raises(DepthError, match="generation 26"):
        region.restrict_outside(E, r, 0.0)


def test_mass_additivity_halves():
    left = restrict(UNIT, HalfSpace(0, 0.5, below=True))
    rep = mass_additivity_check(UNIT, left)
    assert rep["additive"] and rep["gap"] == 0.0


def test_mass_additivity_zero_part():
    rep = mass_additivity_check(UNIT, restrict(UNIT, CubeSet.empty(ROOT)))
    assert rep["additive"]


def test_pushforward_bounds_flat_collapse():
    C = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), _flat_chart())
    rep = pushforward_mass_bounds(C)
    assert rep["lower"] == pytest.approx(1.0) and rep["upper"] == pytest.approx(1.0)
    assert rep["ok"]


def test_pushforward_bounds_tilt():
    C = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), _tilt_chart())
    rep = pushforward_mass_bounds(C)
    assert rep["lower"] == pytest.approx(1.0)
    assert rep["upper"] == pytest.approx(2.0)
    assert rep["lower"] <= rep["mass"] <= rep["upper"]


def test_multiplicity_scales_everything():
    C1 = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), _tilt_chart(), theta=1)
    C3 = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), _tilt_chart(), theta=3)
    assert C3.mass().value == pytest.approx(3 * C1.mass().value, rel=1e-12)
    assert C3.boundary_mass().value == pytest.approx(3 * C1.boundary_mass().value, rel=1e-12)
    rep = pushforward_mass_bounds(C3)
    assert rep["ok"]


def test_zero_multiplicity_rejected():
    with pytest.raises(CurrentError):
        TopDimCurrent(CubeSet.whole(ROOT), 0)


def test_slice_vertical_segment():
    E = ExceptionalSet.segment((0.0, 0.0), (0.0, 1.0))
    s = slice_current(UNIT, E, 0.5)
    assert s.mass.value == pytest.approx(1.0, abs=1e-12)


def test_slice_far_radius_is_zero():
    E = ExceptionalSet.points([(0.5, 0.5)])
    s = slice_current(UNIT, E, 5.0)
    assert s.mass.value == 0.0


def test_slice_circle_inside_square():
    E = ExceptionalSet.points([(0.5, 0.5)])
    s = slice_current(UNIT, E, 0.25)
    assert s.mass.value == pytest.approx(2.0 * math.pi * 0.25, rel=1e-3)


def test_slice_one_dimensional():
    root = RootBox((0.0,), 1.0)
    T = TopDimCurrent(CubeSet.whole(root))
    E = ExceptionalSet.points([(0.0,)])
    s = slice_current(T, E, 0.5)
    assert s.mass.value == 1.0


def test_slice_additivity_over_restriction():
    # slices of subcurrents add up to the slice of the whole
    E = ExceptionalSet.segment((0.0, 0.0), (0.0, 1.0))
    left = restrict(UNIT, HalfSpace(1, 0.5, below=True))
    right = restrict(UNIT, HalfSpace(1, 0.5, below=False))
    for r in (0.25, 0.6):
        total = slice_current(UNIT, E, r).mass.value
        parts = slice_current(left, E, r).mass.value + slice_current(right, E, r).mass.value
        assert abs(total - parts) <= 1e-9


def test_boundary_additivity_on_cube_sets():
    a = CubeSet.of(ROOT, [1], [(0, 0)])
    b = CubeSet.of(ROOT, [1], [(1, 1)])
    Ta, Tb = TopDimCurrent(a), TopDimCurrent(b)
    Tu = TopDimCurrent(a.union(b))
    # disjoint interfaces: equality
    assert Tu.boundary_mass().value == Ta.boundary_mass().value + Tb.boundary_mass().value
    c = CubeSet.of(ROOT, [1], [(1, 0)])
    Tc = TopDimCurrent(c)
    Tuc = TopDimCurrent(a.union(c))
    assert Tuc.boundary_mass().value <= Ta.boundary_mass().value + Tc.boundary_mass().value


def test_coarea_left_edge_equality_case():
    # slices have mass exactly 1, so the grid trapezoid gives the grid span;
    # as the grid exhausts (0, 1) the integral approaches mass(T) = 1
    E = ExceptionalSet.segment((0.0, 0.0), (0.0, 1.0))
    radii = np.linspace(0.01, 0.99, 50)
    rep = coarea_slice_check(UNIT, E, radii)
    assert rep["bound_holds"]
    assert rep["integral"] <= rep["mass"] * (1 + 1e-3)
    assert rep["integral"] == pytest.approx(0.98, abs=1e-9)


def test_coarea_center_point():
    E = ExceptionalSet.points([(0.5, 0.5)])
    radii = np.linspace(0.03, 0.72, 24)
    rep = coarea_slice_check(UNIT, E, radii)
    assert rep["bound_holds"]


def test_circulation_x_dy_green():
    om = forms.FormField(
        2, 1,
        coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0]]),
        differential=lambda p: np.ones((len(p), 1)),
    )
    res = boundary_form_integral(UNIT, om)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_circulation_constant_form_closed_boundary():
    om = forms.FormField(2, 1, coeffs=lambda p: np.tile([0.0, 1.0], (len(p), 1)))
    assert boundary_form_integral(UNIT, om).value == pytest.approx(0.0, abs=1e-12)


def test_boundary_integral_of_a_1_current_sums_its_signed_endpoints():
    # [0, 1/2] u [3/4, 1] with omega(x) = x: 1/2 - 0 + 1 - 3/4, from one evaluator call
    calls = []
    om = forms.FormField(1, 0, coeffs=lambda p: calls.append(len(p)) or p)
    T = TopDimCurrent(CubeSet.of(RootBox((0.0,), 1.0), [1, 2], [[0], [3]]), theta=-2)
    res = boundary_form_integral(T, om)
    assert (res.value, res.error, calls) == (-2 * 0.75, 0.0, [4])


def test_chart_lip_verification():
    chart = _tilt_chart()
    assert verify_lip_upper(chart, (0.0, 1.0, 0.0, 1.0))


def test_descriptor_round_trip_region():
    import json

    d = UNIT.descriptor()
    assert d["type"] == "top_dim"
    back = _cube_set(json.loads(json.dumps(d["region"])))
    assert back == UNIT.region
    chart = ChartCurrent(UNIT.region, _tilt_chart()).descriptor()
    assert chart["domain"] == d["region"] == json.loads(json.dumps(UNIT.region.payload()))


# -- the current protocol: boundary curves and tangent planes -------------------


# five cubes of generations 1 to 3 whose boundary has hanging vertices
STAIRCASE = CubeSet.of(ROOT, [1, 1, 2, 2, 3], [(0, 0), (1, 0), (0, 2), (1, 2), (2, 5)])


def _per_point_curves(T):
    """T's boundary_edges as curves (point(t), tangent(t), t0, t1), one point t at a time."""
    lift, start, end, t0, t1 = T.boundary_edges()
    curves = []
    for p, q, a, b in zip(start, end, t0.tolist(), t1.tolist()):
        d = q - p

        def point(t, p=p, d=d):
            u = p + t * d
            return u if lift is None else np.array([u[0], u[1], float(lift.psi(u[0], u[1]))])

        def tangent(t, p=p, d=d):
            if lift is None:
                return d
            u = p + t * d
            px, py = lift.gradient(u[0], u[1])
            return np.array([d[0], d[1], float(px) * d[0] + float(py) * d[1]])

        curves.append((point, tangent, a, b))
    return curves


def _protocol_current(kind):
    """A current of each kind with its boundary as (point(t), tangent(t), t0, t1) per point."""
    if kind in ("cube_square", "cube_staircase"):
        T = UNIT if kind == "cube_square" else TopDimCurrent(STAIRCASE, -2)
        return T, _per_point_curves(T)
    if kind in ("parabolic_chart", "chart_over_cubes"):
        chart = ChartMap(psi=lambda x, y: 0.25 * (np.asarray(x) ** 2 + np.asarray(y)),
                         gradient=lambda x, y: (0.5 * np.asarray(x, dtype=float),
                                                0.25 * np.ones_like(np.asarray(x, dtype=float))),
                         lip_upper=1.2, name="parabolic")
        T = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0) if kind == "parabolic_chart" else STAIRCASE,
                         chart)
        return T, _per_point_curves(T)
    from stokeslab.counterexample import Params, SurfaceModel
    from stokeslab.currents import SurfaceCurrent

    T = SurfaceCurrent(SurfaceModel(Params.default()), 0.1, 0.4)
    return T, _per_point_curves(T)


def _form(n, coeffs):
    """A 1-form on R^n from a map of (N, n) points to (N, n) coefficients."""
    return forms.FormField(n, 1, coeffs)


def _smooth_form(n):
    if n == 2:
        return _form(2, lambda P: np.stack([P[:, 0] ** 2 * P[:, 1], np.sin(P[:, 0]) + P[:, 1]], 1))
    return _form(3, lambda P: np.stack([P[:, 1] * P[:, 2] ** 2, np.cos(P[:, 0]) + P[:, 2],
                                        P[:, 0] * P[:, 1] ** 2], 1))


def _exact_form(n):
    """d(xy) in the plane and d(xyz) in space."""
    if n == 2:
        return _form(2, lambda P: np.stack([P[:, 1], P[:, 0]], 1))
    return _form(3, lambda P: np.stack([P[:, 1] * P[:, 2], P[:, 0] * P[:, 2],
                                        P[:, 0] * P[:, 1]], 1))


KINDS = ["cube_square", "parabolic_chart", "surface_window", "cube_staircase",
         "chart_over_cubes"]


@pytest.mark.parametrize("kind", KINDS)
def test_boundary_curves_match_per_point_reference(kind):
    from stokeslab.quadrature import integrate_1d

    T, curves = _protocol_current(kind)
    omega = _smooth_form(T.n)
    ref = 0.0
    for point, tangent, t0, t1 in curves:
        def integrand(ts, point=point, tangent=tangent):
            return np.array([float(np.dot(omega.evaluate_many(point(t)[None])[0], tangent(t)))
                             for t in ts])

        ref += integrate_1d(integrand, t0, t1, tol=1e-10, max_panels=2048).value
    res = boundary_form_integral(T, omega)
    assert abs(ref) > 1e-3
    assert res.value == pytest.approx(T.theta * ref, rel=1e-12)


def _per_edge_boundary_integral(T, omega, tol: float = 1e-10):
    """boundary_form_integral of a 2-current as it was, one integrate_1d per edge, verbatim."""
    from stokeslab.quadrature import integrate_1d

    lift, start, end, t0, t1 = T.boundary_edges()

    def edge(p, d, a: float, b: float):
        def integrand(t):
            u = p + np.multiply.outer(t, d)
            if lift is None:
                return np.vecdot(omega.evaluate_many(u), d)
            points = np.column_stack([u, lift.psi(u[:, 0], u[:, 1])])
            return np.vecdot(omega.evaluate_many(points), _lifted_tangent(lift, p, d, t))

        return integrate_1d(integrand, a, b, tol=tol, max_panels=2048)

    return _summed(map(edge, start, end - start, t0.tolist(), t1.tolist()), T.theta)


class _WithDegenerateEdges(ChartCurrent):
    """A chart current whose boundary also holds a point edge and an edge of zero t-length."""

    def boundary_edges(self):
        lift, start, end, t0, t1 = super().boundary_edges()
        return (lift, np.vstack([start, [[0.5, 0.5], [0.25, 0.5]]]),
                np.vstack([end, [[0.5, 0.5], [0.75, 0.5]]]), np.append(t0, [0.0, 0.3]),
                np.append(t1, [1.0, 0.3]))


@pytest.mark.parametrize("kind", KINDS + ["degenerate_edges"])
def test_one_sweep_has_the_bits_of_one_quadrature_per_edge(kind):
    # the surface window's top and left edges run from t0 down to t1
    if kind == "degenerate_edges":
        chart = _protocol_current("parabolic_chart")[0].chart
        T = _WithDegenerateEdges(Rect(0.0, 1.0, 0.0, 1.0), chart, -3)
    else:
        T, _ = _protocol_current(kind)
    _, _, _, t0, t1 = T.boundary_edges()
    assert (t1 < t0).any() == (kind == "surface_window")
    omega = _smooth_form(T.n)
    for tol in (1e-10, 1e-13):
        new, ref = boundary_form_integral(T, omega, tol), _per_edge_boundary_integral(T, omega, tol)
        assert (new.value.hex(), new.error.hex(), new.panels) == \
            (ref.value.hex(), ref.error.hex(), ref.panels)


@pytest.mark.parametrize("region", [
    STAIRCASE, CubeSet.whole(ROOT).difference(CubeSet.of(ROOT, [2], [(1, 1)]))])
def test_cube_set_edges_run_counterclockwise_around_the_set(region):
    # one axis-parallel facet per edge; by the shoelace formula the integral of
    # x dy over the edges is the measure, a hole's edges turning clockwise
    lift, start, end, t0, t1 = TopDimCurrent(region).boundary_edges()
    assert lift is None and (t0 == 0.0).all() and (t1 == 1.0).all()
    assert ((start == end).sum(axis=1) == 1).all()
    assert (start[:, 0] * (end[:, 1] - start[:, 1])).sum() == region.measure()
    assert np.abs(end - start).sum() == region.perimeter()


def test_surface_window_edges_run_counterclockwise_over_their_coordinates():
    # bottom left to right, right side up, top right to left, left side down, each
    # parametrized by the coordinate along it, so that end - start is a unit vector
    T, _ = _protocol_current("surface_window")
    x0, x1 = T.model.x_lo, T.model.x_hi
    lift, start, end, t0, t1 = T.boundary_edges()
    assert lift is T.model
    assert np.array_equal(end - start, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(start[[0, 1, 2, 3], [1, 0, 1, 0]], [0.1, x1, 0.4, x0])
    assert t0.tolist() == [x0, 0.1, x1, 0.4] and t1.tolist() == [x1, 0.4, x0, 0.1]


@pytest.mark.parametrize("kind", KINDS)
def test_exact_form_has_zero_circulation(kind):
    T, _ = _protocol_current(kind)
    res = boundary_form_integral(T, _exact_form(T.n))
    assert abs(res.value) <= res.error + 1e-13


@pytest.mark.parametrize("kind", KINDS)
def test_graph_tangent_is_the_frame_wedge(kind):
    T, _ = _protocol_current(kind)
    rng = np.random.default_rng(7)
    u = np.stack([rng.uniform(0.05, 0.95, 25) * (math.pi if kind == "surface_window" else 1.0),
                  rng.uniform(0.11, 0.39, 25)], axis=1)
    if T.n == 2:
        points, frames = u, [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))] * len(u)
    elif isinstance(T, ChartCurrent):
        points = T.lift(u)
        px, py = T.chart.gradient(u[:, 0], u[:, 1])
        # the frame of SurfaceModel.tangent_frame, built from the chart's partials
        n1, n2 = np.sqrt(1.0 + px ** 2), np.sqrt(1.0 + px ** 2 + py ** 2)
        n12 = n1 * n2
        frames = zip(np.stack([1.0 / n1, 0.0 * px, px / n1], 1),
                     np.stack([-px * py / n12, (1.0 + px ** 2) / n12, py / n12], 1))
    else:
        points = T.model.point(u[:, 0], u[:, 1])
        t1, t2, _ = T.model.tangent_frame(u[:, 0], u[:, 1])
        frames = zip(t1, t2)
    w, length = T.tangent_plane(points)
    vec = functools.partial(from_vector, forms.KVector)
    wedges = np.array([forms.wedge(vec(a), vec(b)).coeffs for a, b in frames])
    np.testing.assert_allclose(w / length[:, None], wedges, rtol=0.0, atol=1e-14)


def _sample_boxes_per_point(boxes, weights, n, rng):
    """The reference: one rng.uniform draw per sample, box chosen by weight."""
    weights = np.asarray(weights, dtype=float)
    idx = rng.choice(len(boxes), size=n, p=weights / weights.sum())
    out = np.empty((n, len(boxes[0][0])))
    for i, ci in enumerate(idx):
        out[i] = rng.uniform(*boxes[ci])
    return out


@st.composite
def _boxes(draw):
    """Boxes (lo, hi) of dimension 1 to 3, some of them degenerate, with positive weights."""
    m = draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        lo = [draw(st.floats(-1e3, 1e3)) for _ in range(m)]
        hi = [x + draw(st.sampled_from([0.0, 1e-9, 0.5, 7.25])) for x in lo]
        boxes.append((np.array(lo), np.array(hi)))
    weights = [draw(st.floats(1e-6, 10.0)) for _ in boxes]
    return boxes, weights


@given(_boxes(), st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_box_sampling_draws_the_bits_of_one_draw_per_sample(boxes_weights, n, seed):
    boxes, weights = boxes_weights
    expected = _sample_boxes_per_point(boxes, weights, n, np.random.default_rng(seed))
    lo, hi = np.array([b[0] for b in boxes]), np.array([b[1] for b in boxes])
    got = _sample_boxes(lo, hi, weights, n, np.random.default_rng(seed))
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("current", [
    TopDimCurrent(CubeSet.of(ROOT, [2, 1, 3], [(0, 1), (1, 1), (5, 0)])),
    ChartCurrent(Rect(0.0, 2.0, -1.0, 0.5), _tilt_chart()),
], ids=["cube-set", "chart"])
def test_support_samples_are_the_bits_of_one_draw_per_sample(current):
    if isinstance(current, TopDimCurrent):
        region = current.region
        boxes, weights = list(zip(*region.bounds())), region.root.measures(region.arrays[0])
    else:
        rects = current.domain_rects()
        boxes = [(np.array([r.x0, r.y0]), np.array([r.x1, r.y1])) for r in rects]
        weights = [r.measure() for r in rects]
    expected = _sample_boxes_per_point(boxes, weights, 512, np.random.default_rng(0))
    if isinstance(current, ChartCurrent):
        expected = current.lift(expected)
    assert current.support_samples(512, np.random.default_rng(0)).tobytes() == expected.tobytes()


CUBE_3D = RootBox((0.0, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("f, exact", [
    (lambda pts: np.ones(len(pts)), 0.125),
    (lambda pts: 1.0 + pts[:, 0] * pts[:, 1] * pts[:, 2], 0.126953125),
])
def test_a_cube_set_integral_runs_over_all_three_axes(f, exact):
    # only the x-y face of each cube was integrated: 0.25 for the mass 0.125 of [0, 1/2]^3
    T = TopDimCurrent(CubeSet.of(CUBE_3D, [1], [[0, 0, 0]]))
    assert T.scalar_integral(f, 1e-12).value == pytest.approx(exact, abs=1e-15)


def _one_box_reference(T, f, tol):
    """The one-box kernels per cube: the 1-D tolerance absolute, the 2-D one per unit measure."""
    from stokeslab.quadrature import integrate_1d, integrate_2d

    total = 0.0
    measures = T.region.root.measures(T.region.arrays[0])
    for lo, hi, measure in zip(*T.region.bounds(), measures):
        if T.m == 1:
            total += integrate_1d(lambda x: f(x[:, None]), lo[0], hi[0], tol=tol).value
        else:
            total += integrate_2d(lambda x, y: f(np.stack([x, y], axis=-1)),
                                  lo[0], hi[0], lo[1], hi[1], tol=tol * measure).value
    return total


@pytest.mark.parametrize("root, gen, index", [
    (RootBox((0.25,), 1.5), [0], [[0]]),
    (RootBox((0.25,), 1.5), [2, 3, 1], [[1], [0], [1]]),
    (ROOT, [0], [[0, 0]]),
    (ROOT, [1, 2, 2], [[1, 1], [0, 1], [3, 0]]),
])
def test_a_planar_or_linear_cube_set_integral_keeps_the_bits_of_the_one_box_kernels(root, gen,
                                                                                      index):
    f = lambda pts: np.exp(pts[:, 0]) * np.cos(3.0 * pts[:, -1]) + pts[:, 0] ** 2
    T = TopDimCurrent(CubeSet.of(root, gen, index))
    assert T.scalar_integral(f, 1e-10).value == _one_box_reference(T, f, 1e-10)
