import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokeslab.cli import EXIT_OK, main
from stokeslab.counterexample import (
    ROW_BLOCK_POINTS,
    CylindricalModel,
    Params,
    ParamsError,
    SurfaceModel,
    TransitionFn,
    _Blend,
    _clamped_spline,
    _spline_values,
    build_surface_current,
    cylindrical_variant,
    default_transition,
)
from stokeslab.currents import HalfSpace, graph_tangent, restrict

PARAMS = Params.default()
MODEL = SurfaceModel(PARAMS)


# -- parameters ---------------------------------------------------------------


def test_default_parameter_flags():
    assert PARAMS.flags() == {"area": True, "length": True, "continuity": True}
    assert PARAMS.y_infinity == pytest.approx(0.5, abs=1e-15)
    assert PARAMS.lam_inverse == 4


def test_length_flag_fails_for_large_lambda():
    p = Params(a=1 / 3, h=1 / 3, lam=0.5)
    assert not p.flag_length
    with pytest.raises(ParamsError):
        p.require_all_flags()


def test_invalid_lambda_rejected():
    with pytest.raises(ParamsError):
        Params(a=1 / 3, h=1 / 3, lam=0.3)


def test_y_k_partial_sums():
    for k in range(1, 8):
        direct = sum((1 / 3) ** j for j in range(1, k + 1))
        assert PARAMS.y_k(k) == pytest.approx(direct, rel=1e-14)


# -- transition function ------------------------------------------------------


def test_transition_endpoint_flatness():
    tr = default_transition()
    assert tr(0.0) == 0.0 and tr(0.125) == 0.0
    assert tr(0.875) == 1.0 and tr(1.0) == 1.0
    ts = np.linspace(0.0, 1.0, 101)
    flat = (ts <= 0.125) | (ts >= 0.875)
    assert np.all(tr.derivative(ts[flat]) == 0.0)


def test_transition_monotone_with_bounded_slope():
    tr = default_transition()
    ts = np.linspace(0.0, 1.0, 10_000)
    d = tr.derivative(ts)
    assert np.all(d >= 0.0)
    assert tr.sup_derivative() <= 2.0


def test_transition_interpolates_cleanly():
    tr = TransitionFn()
    mid = tr(0.5)
    assert 0.0 < mid < 1.0


def _scipy_spline(x, y):
    from scipy.interpolate import CubicSpline

    return CubicSpline(x, y, bc_type="clamped")


def _knots_and_neighbours(x):
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def test_transition_spline_coefficients_have_the_bits_of_cubic_spline():
    tr = default_transition()
    assert tr._coeffs.tobytes() == _scipy_spline(tr._u_grid, tr._cum).c.tobytes()


def test_transition_values_have_the_bits_of_cubic_spline():
    tr = default_transition()
    spline = _scipy_spline(tr._u_grid, tr._cum)
    u = np.concatenate([_knots_and_neighbours(tr._u_grid),
                        np.random.default_rng(3).random(100_000), [0.0, 1.0]])
    u = np.clip(u, 0.0, 1.0)
    assert _spline_values(tr._u_grid, tr._coeffs, u).tobytes() == spline(u).tobytes()
    # the call as it was with the scipy spline, on t in and around [1/8, 7/8]
    t = np.concatenate([tr.LO + tr.width * u, np.linspace(-0.5, 1.5, 4001)])
    s = (t - tr.LO) / tr.width
    expected = np.clip(spline(np.clip(s, 0.0, 1.0)), 0.0, 1.0)
    expected = np.where(s >= 1.0, 1.0, np.where(s <= 0.0, 0.0, expected))
    assert tr(t).tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 256).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-1e100, 1e100), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 1.0), max_size=20))))
@example(([0.0, -0.0, -1.0, -3.0], []))  # PPoly's sum from 0.0 turns -0.0 at x[1] into +0.0
def test_clamped_spline_has_the_bits_of_cubic_spline(case):
    values, points = case
    x, y = np.linspace(0.0, 1.0, len(values)), np.array(values)
    spline, coeffs = _scipy_spline(x, y), _clamped_spline(x, y)
    assert [v.hex() for v in coeffs.ravel()] == [v.hex() for v in spline.c.ravel()]
    u = np.concatenate([_knots_and_neighbours(x), points])
    assert [v.hex() for v in _spline_values(x, coeffs, u)] == [v.hex() for v in spline(u)]


# -- surface geometry ---------------------------------------------------------


def test_psi_continuous_across_junctions():
    xs = np.linspace(0.0, math.pi, 1000)
    for k in (1, 2, 3, 4, 5):
        yk = PARAMS.y_k(k)
        below = MODEL.psi(xs, np.full_like(xs, yk - 1e-13))
        at = MODEL.psi(xs, np.full_like(xs, yk))
        assert float(np.abs(below - at).max()) == 0.0


def test_psi_zero_on_rectangle_boundary():
    xs = np.linspace(0.0, math.pi, 200)
    assert np.allclose(MODEL.psi(xs, np.zeros_like(xs)), 0.0)
    assert np.allclose(MODEL.psi(np.zeros(50), np.linspace(0, 0.49, 50)), 0.0)
    assert np.allclose(MODEL.psi(np.full(50, math.pi), np.linspace(0, 0.49, 50)), 0.0)


def test_psi_bounded_by_strip_height():
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, math.pi, 10_000)
    ys = rng.uniform(0, PARAMS.y_k(10), 10_000)
    psi = MODEL.psi(xs, ys)
    ks = MODEL.strip_index(ys)
    bound = 2.0 * PARAMS.h ** ks.astype(float)
    assert np.all(np.abs(psi) <= bound + 1e-14)


def test_partial_bounds_per_strip():
    rng = np.random.default_rng(1)
    p = PARAMS
    sup_dphi = MODEL.transition.sup_derivative()
    for k in range(0, 8):
        y0, y1 = MODEL.strip_bounds_y(k)
        xs = rng.uniform(0, math.pi, 500)
        ys = rng.uniform(y0, y1 - 1e-12, 500)
        _, px, py, _ = MODEL._strip_data(xs, ys)
        px_bound = 2.0 * p.h ** k * p.lam ** (-k)
        py_bound = sup_dphi * (p.h ** k + p.h ** (k + 1)) / p.a ** (k + 1)
        assert np.all(np.abs(px) <= px_bound + 1e-12)
        assert np.all(np.abs(py) <= py_bound + 1e-12)


def test_tangent_frame_orthonormal_and_oriented():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(0, math.pi)
        y = rng.uniform(0, PARAMS.y_k(9))
        t1, t2, t3 = MODEL.tangent_frame(x, y)
        F = np.stack([t1, t2, t3])
        worst = max(worst, float(np.abs(F @ F.T - np.eye(3)).max()))
        assert np.linalg.det(F) > 0.0
    assert worst <= 1e-12


def test_frames_inherited_by_restriction():
    S = build_surface_current(PARAMS)
    Sa = restrict(S, HalfSpace(1, PARAMS.y_k(3), below=True))
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(0, math.pi)
        y = rng.uniform(0, PARAMS.y_k(3) - 1e-9)
        for a, b in zip(S.model.tangent_frame(x, y), Sa.model.tangent_frame(x, y)):
            assert np.allclose(a, b)


# -- lengths and areas --------------------------------------------------------


def test_section_length_endpoints():
    assert MODEL.section_length(0.0).value == pytest.approx(math.pi, abs=1e-12)
    assert MODEL.section_length(PARAMS.y_infinity).value == math.pi


def test_section_length_blowup():
    ratio = PARAMS.h / PARAMS.lam
    for k in range(1, 9):
        L = MODEL.section_length(PARAMS.y_k(k))
        assert L.value >= 2.0 * ratio ** k


def test_strip_area_within_closed_form_bound():
    for k in range(0, 12):
        res, bound = MODEL.strip_area(k)
        assert res.value <= bound + res.error


def test_strip_areas_summable_with_geometric_tail():
    partial = 0.0
    prev_tail = math.inf
    for k in range(0, 21):
        res, _ = MODEL.strip_area(k)
        partial += res.value
        tail = MODEL.tail_area_bound(k + 1)
        assert tail < prev_tail
        prev_tail = tail
    assert MODEL.tail_area_bound(21) < 1e-6
    total = MODEL.mass_between(0.0, PARAMS.y_infinity)
    assert total.value == pytest.approx(partial, abs=1e-6)


def test_flat_degenerate_strip_area_exact():
    flat = SurfaceModel(Params(a=1 / 3, h=0.0, lam=0.25))
    for k in range(0, 5):
        res, _ = flat.strip_area(k)
        width = flat.strip_bounds_y(k)[1] - flat.strip_bounds_y(k)[0]
        assert res.value == pytest.approx(math.pi * width, rel=1e-12)
        assert width == pytest.approx((1 / 3) ** (k + 1), rel=1e-12)


# -- normalized arclength and the form ---------------------------------------


def test_u_normalization():
    for y in (0.0, 0.1, 0.21, PARAMS.y_k(2), 0.4):
        u0, _ = MODEL.u_and_du(0.0, y)
        u1, _ = MODEL.u_and_du(math.pi, y)
        assert u0 == 0.0
        assert u1 == pytest.approx(1.0, rel=1e-12)


def test_u_strictly_increasing_in_x():
    xs = np.linspace(0.1, math.pi - 0.1, 20)
    y = 0.3
    us = [MODEL.u_and_du(float(x), y)[0] for x in xs]
    assert all(b > a for a, b in zip(us, us[1:]))


def test_du_at_flat_bottom():
    u, du = MODEL.u_and_du(1.0, 0.0)
    assert u == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert du.coeffs[0] == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert du.coeffs[1] == pytest.approx(0.0, abs=1e-12)


def test_du_is_closed():
    # numeric curl of du vanishes: d(du) = 0.  The step shrinks with the
    # strip so the third y-derivatives (growing with depth) stay resolved.
    rng = np.random.default_rng(4)
    worst = 0.0
    checked = 0
    while checked < 100:
        x = rng.uniform(0.2, math.pi - 0.2)
        y = rng.uniform(0.01, PARAMS.y_k(3))
        k = int(MODEL.strip_index(y))
        y0, y1 = MODEL.strip_bounds_y(k)
        s = min(1e-5, 0.02 * (y1 - y0))
        if y - s <= y0 or y + s >= y1:
            continue
        ux_hi = MODEL.u_and_du(x, y + s)[1].coeffs[0]
        ux_lo = MODEL.u_and_du(x, y - s)[1].coeffs[0]
        uy_hi = MODEL.u_and_du(x + s, y)[1].coeffs[1]
        uy_lo = MODEL.u_and_du(x - s, y)[1].coeffs[1]
        curl = (uy_hi - uy_lo) / (2 * s) - (ux_hi - ux_lo) / (2 * s)
        worst = max(worst, abs(curl))
        checked += 1
    assert worst <= 1e-5


def test_omega_vanishes_on_singular_segment():
    for x in (0.0, 1.0, 2.0, math.pi):
        assert np.allclose(MODEL.omega_coeffs((x, PARAMS.y_infinity, 0.0)), 0.0)
    assert np.allclose(MODEL.omega_coeffs((1.0, 0.75, 0.0)), 0.0)


def test_omega_bottom_value():
    v = MODEL.omega_coeffs((0.7, 0.0, 0.0))
    assert v[0] == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert abs(v[1]) <= 1e-12 and abs(v[2]) <= 1e-12


def test_omega_continuous_across_x_seams():
    for y in (0.05, 0.21):
        left = MODEL.omega_coeffs((math.pi - 1e-9, y, float(MODEL.psi(math.pi - 1e-9, y))))
        right = MODEL.omega_coeffs((math.pi + 1e-9, y, float(MODEL.psi(1e-9, y))))
        assert np.allclose(left, right, atol=1e-6)


def test_sup_omega_decays_per_strip():
    sups = [MODEL.sup_omega_on_section(k) for k in range(1, 11)]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    envelope = [max((PARAMS.lam / PARAMS.h) ** k, (PARAMS.lam / PARAMS.a) ** k)
                for k in range(1, 11)]
    ratios = [s / e for s, e in zip(sups, envelope)]
    fitted = float(np.median(ratios))
    assert all(s <= 10.0 * fitted * e for s, e in zip(sups, envelope))


def test_tangential_curl_floor():
    rng = np.random.default_rng(5)
    vals = MODEL.tangential_curl_samples(200, rng)
    assert float(vals.max()) <= 1e-3


def test_section_circulation_is_one_at_every_height():
    # integral over a horizontal path of <omega, tau1> ds = u(pi) - u(0) = 1
    from stokeslab.quadrature import gauss_rule

    nodes, weights = gauss_rule(12)
    for y in (0.0, 0.15, PARAMS.y_k(2) + 1e-4):
        P = min(MODEL._x_period(int(MODEL.strip_index(y))), math.pi)
        n_seg = max(8, int(math.pi / P) * 4)
        edges = np.linspace(0.0, math.pi, n_seg + 1)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            for nx, w in zip(nodes, weights):
                x = float(mid + half * nx)
                om = MODEL.omega_at_surface(x, y)
                t1 = MODEL.tangent_frame(x, y)[0]
                px = float(MODEL.dpsi_dx(x, y))
                speed = math.sqrt(1.0 + px * px)
                total += half * w * float(np.dot(om, t1)) * speed
        assert total == pytest.approx(1.0, rel=1e-6)


# -- batched evaluators against a per-point reference ---------------------------
#
# The reference below evaluates one row or one point at a time, the way the
# model did before its evaluators were batched; the batched paths must agree
# with it to 1e-12 relative.

REL = 1e-12


def _ref_composite(f, b, panels):
    from stokeslab.quadrature import gauss_rule

    nodes, weights = gauss_rule(12)
    edges = np.linspace(0.0, b, panels + 1)
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    vals = f((mids[:, None] + halves[:, None] * nodes).ravel()).reshape(panels, -1)
    return float(np.sum(halves * (vals @ weights)))


def _ref_row(model, integrand, y, x_hi, scale=1):
    """Whole periods of the strip plus a tail, for a single row."""
    P = model._x_period(int(model.strip_index(y)))
    panels = model._panels_per_period()

    def g(xs):
        return integrand(xs, np.full_like(xs, y))

    n_full = math.floor(x_hi / P + 1e-12)
    rem = x_hi - n_full * P
    value = n_full * _ref_composite(g, P, scale * panels) if n_full else 0.0
    if rem >= 1e-15 * max(1.0, x_hi):
        value += _ref_composite(g, rem, scale * max(2, math.ceil(panels * rem / P)))
    return value


def _ref_lengths(model, x, y):
    """L(y), dL/dy(y), L(x, y), dL(x, y)/dy."""
    before = _RowsBefore.of(model)
    return (_ref_row(model, before._speed, y, math.pi, scale=2),
            _ref_row(model, before._dy_speed, y, math.pi),
            _ref_row(model, before._speed, y, x),
            _ref_row(model, before._dy_speed, y, x))


def _ref_omega_at_surface(model, x, y):
    if y >= model.y_infinity:
        c1, c2 = (1.0 / math.pi if model.params.h == 0.0 else 0.0), 0.0
    else:
        _, px, py, _ = (float(v) for v in model._strip_data(x, y))
        L, dyL, Lxy, dyLxy = _ref_lengths(model, x, y)
        n1 = math.sqrt(1.0 + px * px)
        n2 = math.sqrt(1.0 + px * px + py * py)
        Y = (L * dyLxy - Lxy * dyL) / (L * L)
        c1, c2 = 1.0 / L, -px * py / (L * n2) + Y * n1 / n2
    t1, t2, _ = model.tangent_frame(x, y)
    return c1 * t1 + c2 * t2


def _ref_omega(model, point):
    X, Y, Z = (float(v) for v in point)
    if Y >= model.y_infinity and model.params.flag_length:
        return np.zeros(3)
    damp, base_y = 1.0, Y
    if Y >= model.y_infinity:
        damp, base_y = float(model._cutoff(1.0 + (Y - model.y_infinity))), model.y_infinity
    if Y < 0.0:
        damp, base_y = float(model._cutoff(1.0 - Y)), 0.0
    damp *= float(model._cutoff((2.0 * X - math.pi) / math.pi))
    base_x = X - math.pi if X > math.pi else X + math.pi if X < 0.0 else X
    if damp:
        damp *= float(model._cutoff(Z - float(model.psi(base_x, base_y))))
    if not damp:
        return np.zeros(3)
    return damp * _ref_omega_at_surface(model, base_x, base_y)


def _ref_curl_points(model, n_points, rng, max_strip=10):
    """The sample points of the per-point curl loop, in its draw order."""
    points = []
    while len(points) < n_points:
        y = rng.uniform(0.0, model._ladder[min(max_strip, model.k_cut)])
        k = int(model.strip_index(y))
        step = 5e-6 * model.params.lam ** k
        y0, y1 = model.strip_bounds_y(k)
        if y - y0 < 2 * step or y1 - y < 2 * step:
            continue
        points.append((rng.uniform(0.1, math.pi - 0.1), y))
    return points


def _strip_points(rng, per_strip=3):
    ys = np.concatenate([rng.uniform(MODEL._ladder[k], MODEL._ladder[k + 1], per_strip)
                         for k in range(0, 11)])
    return rng.uniform(0.0, math.pi, len(ys)), ys


def test_batched_lengths_match_per_point_reference():
    xs, ys = _strip_points(np.random.default_rng(11))
    # repeated heights and x = pi exercise the shared whole-period rows;
    # a negative x counts its periods backwards
    xs = np.concatenate([xs, xs[:5] * 0.5, np.full(3, math.pi), [-0.3]])
    ys = np.concatenate([ys, ys[:5], ys[-3:], ys[3:4]])
    ref = np.array([_ref_lengths(MODEL, x, y) for x, y in zip(xs, ys)])
    scalar = np.array([(MODEL.section_length(y).value, MODEL.dy_section_length(y),
                        MODEL.partial_length(x, y), MODEL.dy_partial_length(x, y))
                       for x, y in zip(xs, ys)])
    batched = np.stack(MODEL._lengths_at(xs, ys), axis=1)
    np.testing.assert_allclose(scalar, ref, rtol=REL, atol=0.0)
    np.testing.assert_allclose(batched, ref, rtol=REL, atol=0.0)


def test_batched_mass_rows_match_per_row_reference():
    from stokeslab.quadrature import gauss_rule

    nodes, weights = gauss_rule(12)
    y0, y1 = MODEL.strip_bounds_y(3)
    for panels in (8, 16):
        edges = np.linspace(y0, y1, panels + 1)
        ref = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            rows = [_ref_row(MODEL, MODEL._area_density, float(y), math.pi)
                    for y in mid + half * nodes]
            ref += half * float(np.dot(weights, rows))
        assert MODEL._y_composite(y0, y1, panels) == pytest.approx(ref, rel=REL)


FLAT = Params(a=1 / 3, h=0.0, lam=0.25)


def _mixed_rows(model):
    """Rows (y, x_hi) of one row block: strips 0-3, whole periods and tails, shared and own.

    The three heights of each of strips 0-2 share the strip's whole
    periods, where it has any, and their sections share a tail, where a
    section is no whole number of periods; the one height of strip 3 has
    its whole periods alone, and the partial rows have tails of their own.
    """
    ts = np.array([0.2, 0.5, 0.8])
    ys = np.concatenate([model._ladder[k] + ts * model._width[k] for k in range(3)])
    partial = model.x_hi * np.array([0.99, 0.6, 0.3, 0.45, 0.7, 0.2, 0.55, 0.8, 0.35])
    ys = np.concatenate([ys, ys, [ys[4], model._ladder[3] + 0.4 * model._width[3]]])
    xs = np.concatenate([np.full(9, model.x_hi), partial, [model.x_hi, model.x_hi]])
    return ys, xs


@pytest.mark.parametrize("model", [SurfaceModel(PARAMS), CylindricalModel(PARAMS),
                                   SurfaceModel(FLAT), CylindricalModel(FLAT)],
                         ids=["surface", "cylindrical", "surface-flat", "cylindrical-flat"])
def test_shared_node_rows_keep_the_bits_of_one_row_calls(model):
    ys, xs = _mixed_rows(model)
    # one row block at scale 1
    assert len(ys) <= ROW_BLOCK_POINTS // (12 * model._panels_per_period())
    for integrand, channels in ((model._speed, 1), (model._speeds, 2), (model._area_density, 1)):
        for scale in (1, 2):
            batched = model._row_integrals(integrand, ys, xs, scale, channels)
            alone = [model._row_integrals(integrand, [y], [x], scale, channels)[..., 0]
                     for y, x in zip(ys, xs)]
            assert np.array_equal(batched, np.stack(alone, axis=-1))


# -- the row quadrature before its one pass per call, kept verbatim ----------------
#
# _RowsBefore runs _row_integrals, _gl_rows and _lengths_at as they were when
# each distinct tail panel count was a pass of its own and _lengths_at made
# three passes, with _gl_composite (here _gl_composite_before) and the
# integrands of that time; the model supplies the strip data.  The one-pass
# rows must keep its bits.


def _gl_composite_before(f, lengths, panels: int, order: int = 12) -> np.ndarray:
    from stokeslab.quadrature import composite_nodes, gauss_rule

    _, weights = gauss_rule(order)
    distinct, row_of, count = np.unique(np.asarray(lengths, dtype=float), return_inverse=True,
                                        return_counts=True)
    pts, halves = composite_nodes(0.0, distinct, panels, order)
    pts = pts.reshape(len(distinct), 1, -1)
    vals = np.empty((len(row_of), pts.shape[-1]))
    alone = count[row_of] == 1
    shared = [(pts[j], row_of == j) for j in np.flatnonzero(count > 1)]
    for X, rows in [(pts[row_of[alone], 0], alone)] + shared:
        if rows.any():
            vals[rows] = f(X, rows)
    return np.sum(halves[row_of] * (vals.reshape(-1, panels, order) @ weights), axis=-1)


class _RowsBefore:
    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    @staticmethod
    def of(model):
        polar = isinstance(model, CylindricalModel)
        return (_PolarRowsBefore if polar else _SurfaceRowsBefore)(model)

    def _row_integrals(self, integrand, ys, x_his, scale: int = 1) -> np.ndarray:
        ys, x_his = np.broadcast_arrays(np.atleast_1d(np.asarray(ys, dtype=float)),
                                        np.asarray(x_his, dtype=float))
        P = self._periods[self.strip_index(ys)]
        panels = self._panels_per_period()
        n_full = np.floor(x_his / P + 1e-12)
        rem = x_his - n_full * P
        rem[rem < 1e-15 * np.maximum(1.0, x_his)] = 0.0
        out = np.zeros(ys.shape)
        full = n_full != 0
        if full.any():
            heights, row_of = np.unique(ys[full], return_inverse=True)
            per = self._gl_rows(integrand, heights, self._periods[self.strip_index(heights)],
                                scale * panels)
            out[full] = n_full[full] * per[row_of.ravel()]
        tail = rem > 0
        tail_panels = scale * np.maximum(2, np.ceil(panels * rem / P)).astype(int)
        for n in np.unique(tail_panels[tail]):
            rows = tail & (tail_panels == n)
            out[rows] += self._gl_rows(integrand, ys[rows], rem[rows], int(n))
        return out

    def _gl_rows(self, integrand, ys, lengths, panels: int) -> np.ndarray:
        out = np.empty(len(ys))
        block = max(1, ROW_BLOCK_POINTS // (12 * panels))
        for s in range(0, len(ys), block):
            Y = ys[s:s + block, None]
            out[s:s + block] = _gl_composite_before(lambda X, rows: integrand(X, Y[rows]),
                                                    lengths[s:s + block], panels)
        return out

    def _lengths_at(self, x, y):
        heights, h_of = np.unique(y, return_inverse=True)
        pairs, p_of = np.unique(np.stack([x, y], axis=-1), axis=0, return_inverse=True)
        row_y = np.concatenate([heights, pairs[:, 1]])
        row_x = np.concatenate([np.full(len(heights), self.x_hi), pairs[:, 0]])
        h_of, p_of = h_of.ravel(), len(heights) + p_of.ravel()
        speed = self._row_integrals(self._speed, row_y, row_x)
        dy_speed = self._row_integrals(self._dy_speed, row_y, row_x)
        L = self._row_integrals(self._speed, heights, self.x_hi, scale=2)
        return L[h_of], dy_speed[h_of], speed[p_of], dy_speed[p_of]


class _SurfaceRowsBefore(_RowsBefore):
    def _speed(self, xs, ys):
        return np.sqrt(1.0 + self._strip_data(xs, ys)[1] ** 2)

    def _area_density(self, xs, ys):
        data = self._strip_data(xs, ys)
        return np.sqrt(1.0 + data[1] ** 2 + data[2] ** 2)

    def _dy_speed(self, xs, ys):
        data = self._strip_data(xs, ys)
        px = data[1]
        return px * data[3] / np.sqrt(1.0 + px ** 2)


class _PolarRowsBefore(_RowsBefore):
    def _speed(self, theta, r):
        return np.sqrt(r ** 2 + _Blend(self, theta, r)[1] ** 2)

    def _dy_speed(self, theta, r):
        data = _Blend(self, theta, r)
        pt = data[1]
        return (r + pt * data[3]) / np.sqrt(r ** 2 + pt ** 2)

    def _area_density(self, theta, r):
        data = _Blend(self, theta, r)
        return np.sqrt(r ** 2 + data[1] ** 2 + (r * data[2]) ** 2)


def _rows_across_strips(model, rng):
    """Rows (y, x_hi) in strips 0-8: shared and own lengths, whole periods and tails.

    Three heights of each strip share its whole periods and their sections
    share a tail; a fourth height has its whole periods alone.  Partial rows
    are tails only (x below the period), whole periods only (x a multiple
    of it) or both, and a repeated x makes some tails shared.
    """
    ys, xs = [], []
    for k in range(9):
        P = min(model._periods[k], model.x_hi)
        heights = model._ladder[k] + np.array([0.2, 0.5, 0.8, rng.uniform()]) * model._width[k]
        partial = [rng.uniform(0.0, P), 0.3 * P, 3 * P if 3 * P <= model.x_hi else P,
                   rng.uniform(P, model.x_hi)]
        for y in heights:
            ys += [y] * 5
            xs += [model.x_hi] + partial
    return np.array(ys), np.array(xs)


@pytest.mark.parametrize("model", [SurfaceModel(PARAMS), CylindricalModel(PARAMS)],
                         ids=["surface", "cylindrical"])
def test_one_pass_rows_keep_the_bits_of_the_passes_before(model):
    ys, xs = _rows_across_strips(model, np.random.default_rng(31))
    before = _RowsBefore.of(model)
    assert np.any(xs < model._periods[model.strip_index(ys)])
    for scale in (1, 2):
        for now, then in ((model._speed, before._speed),
                          (model._area_density, before._area_density)):
            assert np.array_equal(model._row_integrals(now, ys, xs, scale),
                                  before._row_integrals(then, ys, xs, scale))
        assert np.array_equal(model._row_integrals(model._speeds, ys, xs, scale, channels=2),
                              [before._row_integrals(before._speed, ys, xs, scale),
                               before._row_integrals(before._dy_speed, ys, xs, scale)])
    for now, then in zip(model._lengths_at(xs, ys), before._lengths_at(xs, ys)):
        assert np.array_equal(now, then)


@pytest.mark.parametrize("model", [SurfaceModel(PARAMS), CylindricalModel(PARAMS)],
                         ids=["surface", "cylindrical"])
def test_row_bits_do_not_depend_on_the_block_size(model, monkeypatch):
    from stokeslab import counterexample

    ys, xs = _rows_across_strips(model, np.random.default_rng(37))
    # and a tail of 1e-7 at every height: one node row of two panels shared
    # across strips 0-8, whose blocks gather its strip tables
    tiny = np.full(len(ys), 1e-7)
    ys, xs = np.r_[ys, ys], np.r_[xs, tiny]
    cases = [(integrand, channels, scale)
             for integrand, channels in ((model._speed, 1), (model._speeds, 2),
                                         (model._area_density, 1))
             for scale in (1, 2)]
    passes = []
    # a few rows per block; the default; every row of a call in one block
    for block in (1 << 9, 1 << 14, 1 << 18):
        monkeypatch.setattr(counterexample, "ROW_BLOCK_POINTS", block)
        passes.append([model._row_integrals(integrand, ys, xs, scale, channels)
                       for integrand, channels, scale in cases])
    for other in passes[1:]:
        for now, then in zip(other, passes[0]):
            assert np.array_equal(now, then)
    for (integrand, channels, scale), then in zip(cases, passes[0]):
        alone = [model._row_integrals(integrand, [y], [1e-7], scale, channels)[..., 0]
                 for y in ys[:len(tiny)]]
        assert np.array_equal(np.stack(alone, axis=-1), then[..., len(tiny):])


def _blends(monkeypatch, call) -> int:
    """The _Blend constructions that ``call`` makes."""
    from stokeslab import counterexample

    count = 0
    init = counterexample._Blend.__init__

    def counted(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(counterexample._Blend, "__init__", counted)
        call()
    return count


def test_lengths_at_one_height_build_a_blend_per_block_not_per_tail_panel_count(monkeypatch):
    # the 64 points of sup_omega_on_section: one period of a section, so 64
    # tails of 2 to 64 panels; each distinct panel count was a pass of its own
    model = SurfaceModel(PARAMS)
    y = float(model._ladder[3])
    xs = np.linspace(0.0, model._periods[3], 64, endpoint=False)
    blends = _blends(monkeypatch, lambda: model._lengths_at(xs, np.full(64, y)))
    # the two-channel pass: the section row and the tails hold
    # 2 * 12 * (64 + 2 + 2 + 3 + ... + 63) = 49,944 values, and no row starts
    # past 3 * 16,384, so three blocks; then one for L(y) at twice the panels
    assert blends <= 4


def test_ragged_row_blocks_bound_the_memory_of_many_rows():
    import tracemalloc

    # the heights of the 400-sample curl run and its six-point stencils
    rng = np.random.default_rng(41)
    model = SurfaceModel(PARAMS)
    ys = rng.uniform(0.0, model._ladder[10], 2400)
    xs = rng.uniform(0.0, math.pi, 2400)
    tracemalloc.start()
    try:
        model._lengths_at(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1.7 MiB in blocks of 16,384 values; 75 MiB in one block
    assert peak < 8 << 20


def test_strip_chart_area_element_is_one_blend_with_the_bits_of_the_partials(monkeypatch):
    model = SurfaceModel(PARAMS)
    chart = model.strip_chart(3)
    rng = np.random.default_rng(51)
    x = rng.uniform(0.0, math.pi, 200)
    # heights in strips 0-9 and on the flat limit y >= y_infinity
    y = np.concatenate([rng.uniform(0.0, model._ladder[10], 190),
                        model.y_infinity + rng.uniform(0.0, 0.1, 10)])
    area = []
    assert _blends(monkeypatch, lambda: area.append(chart.area_element(x, y))) == 1
    two_calls = np.sqrt(1.0 + chart.dpsi_dx(x, y) ** 2 + chart.dpsi_dy(x, y) ** 2)
    assert np.array_equal(area[0], two_calls)
    assert np.all(area[0][-10:] == 1.0)


def _trig_elements(model, call) -> int:
    """The sin and cos elements that ``call`` evaluates through model._f and model._fprime."""
    count = 0

    def counted(fn):
        def wrapper(k, x):
            nonlocal count
            out = fn(k, x)
            count += out.size
            return out
        return wrapper

    model._f, model._fprime = counted(model._f), counted(model._fprime)
    try:
        call()
    finally:
        del model._f, model._fprime
    return count


def test_y_composite_pays_its_sin_and_cos_per_node_row_not_per_height():
    model = SurfaceModel(PARAMS)
    for k in range(4):
        y0, y1 = model.strip_bounds_y(k)
        one_row = _trig_elements(model, lambda: model._row_integrals(
            model._area_density, [0.5 * (y0 + y1)], math.pi))
        # 12 heights of strip k, one row block: as many as one height
        assert _trig_elements(model, lambda: model._y_composite(y0, y1, 1)) == one_row
        # 96 heights: once per row block of at most 21 heights
        assert _trig_elements(model, lambda: model._y_composite(y0, y1, 8)) <= 5 * one_row


def test_batched_omega_matches_per_point_reference():
    rng = np.random.default_rng(12)
    xs, ys = _strip_points(rng)
    on_surface = np.stack([xs, ys, MODEL.psi(xs, ys)], axis=1)
    # the cutoff regions: past either x seam, below y = 0, above y_infinity
    # and off the surface in z
    off_surface = np.stack([rng.uniform(-2.0, math.pi + 2.0, 40),
                            rng.uniform(-1.5, 1.2, 40),
                            rng.uniform(-2.5, 2.5, 40)], axis=1)
    points = np.concatenate([on_surface, off_surface])
    ref = np.array([_ref_omega(MODEL, p) for p in points])
    assert np.count_nonzero(np.abs(ref[len(on_surface):]).sum(axis=1)) >= 5
    # relative to the size of each vector: a component can cancel to ~0
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(MODEL.omega_coeffs(points) - ref) <= REL * scale)
    for p, r, s in zip(points[::10], ref[::10], scale[::10]):
        assert np.all(np.abs(MODEL.omega_coeffs(p) - r) <= REL * s)


def test_batched_sup_omega_matches_per_point_reference():
    for k in range(1, 11):
        y = float(MODEL._ladder[k])
        P = MODEL._x_period(int(MODEL.strip_index(y)))
        xs = np.linspace(0.0, min(P, math.pi), 64, endpoint=False)
        ref = max(float(np.linalg.norm(_ref_omega_at_surface(MODEL, float(x), y))) for x in xs)
        assert MODEL.sup_omega_on_section(k) == pytest.approx(ref, rel=REL)


@pytest.mark.parametrize("seed", [0, 3])
def test_curl_samples_keep_their_points(seed):
    seen = []

    class Spy(SurfaceModel):
        def tangential_curls(self, x, y, step, omega=None):
            seen.extend(zip(x, y))
            return np.zeros(len(x))

    Spy(PARAMS).tangential_curl_samples(400, np.random.default_rng(seed))
    assert seen == _ref_curl_points(MODEL, 400, np.random.default_rng(seed))


def _ref_stencil_differential(model, x, y, step, omega=None):
    """The six-point surface stencil that FormField.d_many replaced, kept as a reference.

    Returns the (N, 3) two-form coefficients over (e12, e13, e23).
    """
    omega = omega or model.omega_coeffs
    x, y, step = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                       for v in (x, y, step)))
    base = np.stack([x, y, model.psi(x, y)], axis=-1)[:, None, :]
    shift = step[:, None, None] * np.eye(3)
    stencil = np.concatenate([base + shift, base - shift], axis=1)
    values = omega(stencil.reshape(-1, 3)).reshape(len(x), 2, 3, 3)
    partial = (values[:, 0] - values[:, 1]) / (2.0 * step)[:, None, None]
    # two-form coefficients over (e12, e13, e23)
    d12 = partial[:, 0, 1] - partial[:, 1, 0]
    d13 = partial[:, 0, 2] - partial[:, 2, 0]
    d23 = partial[:, 1, 2] - partial[:, 2, 1]
    return np.stack([d12, d13, d23], axis=-1)


def _ref_tangential_curls(model, x, y, step, omega=None):
    """The stencil curl <d omega, tau1 ^ tau2> before FormField.d_many, kept as a reference."""
    x, y, step = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                       for v in (x, y, step)))
    _, px, py, _ = model._strip_data(x, y)
    w, area = graph_tangent(px, py)
    return np.vecdot(_ref_stencil_differential(model, x, y, step, omega), w) / area


def _strip_stencil_points(rng, strips=range(0, 9), per_strip=40):
    """Points inside strips 0-8 with their strip-adapted steps, two steps off the junctions."""
    xs, ys, steps = [], [], []
    for k in strips:
        step = 5e-6 * PARAMS.lam ** k
        y0, y1 = MODEL.strip_bounds_y(k)
        ys.append(rng.uniform(y0 + 2 * step, y1 - 2 * step, per_strip))
        xs.append(rng.uniform(0.0, math.pi, per_strip))
        steps.append(np.full(per_strip, step))
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(steps)


def test_d_many_keeps_the_bits_of_the_surface_stencil():
    x, y, steps = _strip_stencil_points(np.random.default_rng(21))
    omega = MODEL.omega_field()
    for step in (steps, 1e-5):
        ref = _ref_stencil_differential(MODEL, x, y, step)
        got = omega.d_many(MODEL.point(x, y), step)
        assert got.tobytes() == ref.tobytes()
        curls = MODEL.tangential_curls(x, y, step)
        assert curls.tobytes() == _ref_tangential_curls(MODEL, x, y, step).tobytes()


def test_tangential_curls_refuse_points_within_the_step_of_the_singular_segment():
    from stokeslab.forms import DomainError

    step = 1e-5
    x, y = 1.0, MODEL.y_infinity - 0.5 * step
    # the stencil alone would return a value here
    assert np.isfinite(_ref_tangential_curls(MODEL, x, y, step)).all()
    with pytest.raises(DomainError):
        MODEL.tangential_curls(x, y, step)
    with pytest.raises(DomainError):
        MODEL.tangential_curls([0.5, x], [0.25, y], [step, step])


# -- the failure report -------------------------------------------------------


@pytest.fixture(scope="module")
def failure_report():
    from stokeslab.counterexample import verify_failure

    return verify_failure(PARAMS, n_tangent_samples=200, n_strips=10, seed=1,
                          content_grid=(0.45, 1 / 3, 9))


def test_failure_report_circulation(failure_report):
    circ = failure_report["circulation"]
    assert circ["value"] == pytest.approx(1.0, abs=1e-4)


def test_failure_report_tangential(failure_report):
    assert failure_report["tangential_curl"]["max"] <= 1e-3


def test_failure_report_content_divergent(failure_report):
    assert failure_report["content_profile"]["trend"] == "DIVERGENT"


def test_failure_report_boundary_mass(failure_report):
    bm = failure_report["boundary_mass"]
    assert bm["value"] == pytest.approx(bm["expected"], abs=1e-6)
    assert bm["expected"] == pytest.approx(2 * math.pi + 1.0, abs=1e-12)


def test_failure_report_areas_within_bounds(failure_report):
    assert all(row["within_bound"] for row in failure_report["strip_areas"])


def test_verify_failure_refuses_bad_params():
    from stokeslab.counterexample import verify_failure

    with pytest.raises(ParamsError) as err:
        verify_failure(Params(a=1 / 3, h=1 / 3, lam=0.5))
    assert "length" in str(err.value)


def test_stokes_undecided_when_refused_with_small_gap():
    # a closed form with zero circulation: both sides vanish, but the
    # divergent singular set blocks certification by decomposition
    from stokeslab import forms, integration

    S = build_surface_current(PARAMS)
    zero_form = forms.FormField(
        3, 1,
        evaluate=lambda p: forms.KCovector(3, 1, [0.0, 0.0, 0.0]),
        name="zero",
    )
    rep = integration.stokes_check(
        S, zero_form, S.model.singular_set(), tol=1e-6,
        surface_options={"max_strip": 3, "y_panels": 1, "x_panels": 2, "order": 4},
    )
    assert rep.decomposition["status"] == "refused"
    assert abs(rep.gap) <= 1e-6
    assert rep.verdict == integration.UNDECIDED


def test_flat_degenerate_stokes_holds():
    from stokeslab import integration
    from stokeslab.currents import SurfaceCurrent
    from stokeslab.dyadic import ExceptionalSet

    flat_model = SurfaceModel(Params(a=1 / 3, h=0.0, lam=0.25))
    S = SurfaceCurrent(flat_model, 0.0, flat_model.y_infinity, 1)
    om = flat_model.omega_field()
    rep = integration.stokes_check(S, om, ExceptionalSet.empty(), tol=1e-3)
    assert rep.verdict == integration.HOLDS
    assert abs(rep.gap) < 1e-3


def test_surface_mass_additivity_at_y3():
    from stokeslab.currents import mass_additivity_check

    S = build_surface_current(PARAMS)
    Sa = restrict(S, HalfSpace(1, PARAMS.y_k(3), below=True))
    rep = mass_additivity_check(S, Sa)
    assert rep["additive"]
    assert rep["gap"] <= 1e-6


def test_surface_slice_matches_section_length():
    from stokeslab.currents import slice_current

    S = build_surface_current(PARAMS)
    E = S.model.singular_set()
    for k in (1, 3, 5):
        # a radius interior to the k-th strip from the top
        r = 0.5 * ((PARAMS.y_infinity - PARAMS.y_k(k)) + (PARAMS.y_infinity - PARAMS.y_k(k + 1)))
        s = slice_current(S, E, r)
        L = S.model.section_length(PARAMS.y_infinity - s.radius)
        assert s.mass.value == pytest.approx(L.value, rel=1e-9)


def test_surface_slice_nudges_off_strip_junctions():
    from stokeslab.currents import slice_current

    S = build_surface_current(PARAMS)
    E = S.model.singular_set()
    r_junction = PARAMS.y_infinity - PARAMS.y_k(3)
    s = slice_current(S, E, r_junction)
    assert s.radius != r_junction
    assert abs(s.radius - r_junction) < 1e-6
    y = PARAMS.y_infinity - s.radius
    assert all(abs(y - yk) > 1e-9 for yk in S.model.strip_junctions())


def test_excision_succeeds_per_call_but_constant_grows():
    from stokeslab.cousin import excise
    from stokeslab.minkowski import neighborhood_mass

    S = build_surface_current(PARAMS)
    E = S.model.singular_set()
    bounds = []
    removed = []
    # strip-aligned radii r0 = y_inf * a^k, where the content grows cleanly
    for k in (1, 2, 3, 4):
        r0 = PARAMS.y_infinity * PARAMS.a ** k
        ball = neighborhood_mass(S, E, r0)
        T_eps, r, info = excise(S, E, eps=max(4.0 * ball.value, 1e-3), r0=r0)
        removed.append(info["removed_mass"])
        bounds.append((2.0 / r0) * ball.value)
    # removed mass vanishes with r0, but the slice-mass budget diverges:
    # the excision constant cannot stay bounded
    assert all(b < a for a, b in zip(removed, removed[1:]))
    assert all(b > a for a, b in zip(bounds, bounds[1:]))


def test_riemann_sum_of_tangential_density_vanishes_on_families():
    # the integrand <d omega, tangent plane> is ~0 at every tag, so Riemann
    # sums over genuine families of a truncated window stay at the floor
    from stokeslab import integration
    from stokeslab.cousin import Gauge, RegularityFn, SubadditiveFn, gauge_decompose
    from stokeslab.currents import SurfaceCurrent
    from stokeslab.dyadic import ExceptionalSet

    S = build_surface_current(PARAMS)
    window = SurfaceCurrent(S.model, 0.0, PARAMS.y_k(2), 1)
    eta = RegularityFn.from_callable(lambda p: 0.5 * S.model.max_regularity(float(p[1])))
    fam = gauge_decompose(window, ExceptionalSet.empty(), Gauge.constant(0.6),
                          eta, SubadditiveFn.mass(), 1e-2)
    omega = S.model.omega_field()

    def density(p):
        x, y = p[:, 0], p[:, 1]
        k = S.model.strip_index(y)
        step = 5e-6 * PARAMS.lam ** k
        return np.abs(S.model.tangential_curls(x, y, step))

    sigma = integration.riemann_sum(density, fam)
    assert abs(sigma) <= 1e-3 * window.mass().value


# -- cylindrical variant ------------------------------------------------------


@pytest.fixture(scope="module")
def cyl():
    return cylindrical_variant(PARAMS)


def test_cylindrical_requires_conditions():
    with pytest.raises(ParamsError):
        cylindrical_variant(Params(a=1 / 3, h=1 / 3, lam=0.5))


def test_cylindrical_boundary_circulation_is_one(cyl):
    assert cyl.boundary_circulation() == pytest.approx(1.0, rel=1e-6)


def test_cylindrical_form_decays_toward_the_origin(cyl):
    sups = [cyl.sup_omega_on_circle(k) for k in range(1, 8)]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    # decay rate ~ (lambda/h)^k = (3/4)^k per strip
    rate = PARAMS.lam / PARAMS.h
    assert all(s <= 3.0 * sups[0] * rate ** (k - 1) for k, s in enumerate(sups, start=1))


def test_cylindrical_annulus_areas_summable(cyl):
    areas = []
    for k in range(0, 10):
        area, bound = cyl.annulus_area(k)
        assert area <= bound + 1e-9
        areas.append(area)
    # geometric decay of the annulus areas
    assert areas[9] < areas[4] * 0.2
    p = PARAMS
    ratio = p.a * p.h / p.lam
    assert ratio < 1.0


def test_cylindrical_strip_k_holds_its_outer_circle(cyl):
    # annulus k is (r_{k+1}, r_k]
    ks = np.arange(cyl.K_TABLE)
    radii = cyl._ladder
    assert np.array_equal(cyl.strip_index(radii[:-1]), ks)
    assert np.array_equal(cyl.strip_index(0.5 * (radii[:-1] + radii[1:])), ks)


@functools.lru_cache(maxsize=None)
def _ref_polar_blend(model, r):
    """The annulus k that holds r, the blend weight of f_{k+1} and its r-derivative."""
    p = model.params
    k = next(j for j in range(model.K_TABLE) if p.a ** (j + 1) < r <= p.a ** j)
    r_out, r_in = p.a ** k, p.a ** (k + 1)
    s = (r_out - r) / (r_out - r_in)
    return k, float(model.transition(s)), -float(model.transition.derivative(s)) / (r_out - r_in)


def _ref_polar_slopes(model, theta, r):
    """p_theta, its r-derivative and p_r at one point."""
    p = model.params
    k, w, dw = _ref_polar_blend(model, r)

    def f(j):
        return (p.h ** j if j else 0.0) * math.sin(theta / p.lam ** j)

    def g(j):
        return (p.h ** j if j else 0.0) / p.lam ** j * math.cos(theta / p.lam ** j)

    return (1.0 - w) * g(k) + w * g(k + 1), dw * (g(k + 1) - g(k)), dw * (f(k + 1) - f(k))


def _ref_polar_integrand(model, dr):
    """The speed sqrt(r^2 + p_theta^2) of a circle, or its r-derivative, point by point."""
    def f(thetas, rs):
        out = []
        for theta, r in zip(thetas, rs):
            pt, ptr, _ = _ref_polar_slopes(model, float(theta), float(r))
            speed = math.sqrt(r * r + pt * pt)
            out.append((r + pt * ptr) / speed if dr else speed)
        return np.array(out)

    return f


def _ref_polar_coeffs(model, theta, r, lengths):
    """(c1, c2) at one point from its lengths L, dL/dr, L(theta), dL(theta)/dr."""
    L, dL, Lrt, dLrt = lengths
    pt, _, pr = _ref_polar_slopes(model, theta, r)
    n1 = math.sqrt(1.0 + (pt / r) ** 2)
    n2 = math.sqrt(1.0 + (pt / r) ** 2 + pr ** 2)
    Y = (L * dLrt - Lrt * dL) / (L * L)
    return 1.0 / L, -(pt / r) * pr / (L * n2) + Y * n1 / n2


def test_polar_rows_and_form_match_per_point_reference(cyl):
    rng = np.random.default_rng(21)
    rs = np.concatenate([rng.uniform(cyl._ladder[k + 1], cyl._ladder[k], 2) for k in range(10)])
    # the outer circles of the annuli, where the blend starts
    rs = np.concatenate([rs, cyl._ladder[1:5]])
    thetas = rng.uniform(0.0, 2.0 * math.pi, len(rs))
    speed, dr_speed = _ref_polar_integrand(cyl, False), _ref_polar_integrand(cyl, True)
    two_pi = 2.0 * math.pi
    ref = np.array([(_ref_row(cyl, speed, r, two_pi, scale=2), _ref_row(cyl, dr_speed, r, two_pi),
                     _ref_row(cyl, speed, r, t), _ref_row(cyl, dr_speed, r, t))
                    for t, r in zip(thetas, rs)])
    np.testing.assert_allclose(np.stack(cyl._lengths_at(thetas, rs), axis=1), ref,
                               rtol=REL, atol=0.0)
    ref_c = np.array([_ref_polar_coeffs(cyl, t, r, row) for t, r, row in zip(thetas, rs, ref)])
    c = np.stack(cyl.omega_surface_coeffs(rs, thetas), axis=1)
    # relative to the size of each covector: c2 can cancel to ~0
    assert np.all(np.abs(c - ref_c) <= REL * np.abs(ref_c).max(axis=1, keepdims=True))


def test_polar_dl_dr_is_the_derivative_of_the_section_length(cyl):
    # mid-annulus, where the blend moves fastest.  Within one annulus the rule
    # keeps its theta nodes, so the r-derivative of the rule's L is the rule
    # applied to the exact d/dr of the speed, up to the difference error.
    for k in range(1, 7):
        r = 0.5 * (cyl._ladder[k] + cyl._ladder[k + 1])
        step = 1e-7 * r
        _, dL, _, _ = cyl._lengths_at(np.array([0.0]), np.array([r]))
        L_hi, L_lo = cyl._row_integrals(cyl._speed, [r + step, r - step], 2.0 * math.pi)
        assert dL[0] == pytest.approx((L_hi - L_lo) / (2.0 * step), rel=1e-8)


# The {"cylindrical": true, "n_strips": 8} report before the polar surface
# moved onto the shared strip model.  Circulation and areas are unchanged to
# rounding.  sup_omega is taken on the circles r = r_k, which the old code
# put in annulus k-1 and integrated on that annulus's 4x coarser theta rule:
# off by up to 7.6e-7 against a rule with 8x the panels, where the values now
# are within 1.4e-8 of it.
CYLINDRICAL_AREAS = [3.9948916909876067, 1.4002711914304256, 0.5532687149967898,
                     0.2427271840547356, 0.10775837118975787, 0.04788838740260828,
                     0.021283587260145925, 0.009459367695267836]
CYLINDRICAL_SUP_OMEGA = [0.17052786963992964, 0.1393628370989052, 0.10539101754995372,
                         0.07909713809527717, 0.059325951560492966, 0.04449461852198992,
                         0.0333709711927357]


def test_cylindrical_report_is_pinned(tmp_path):
    cfg = tmp_path / "cyl.json"
    cfg.write_text(json.dumps({"cylindrical": True, "n_strips": 8}))
    assert main(["counterexample", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["circulation"] - 1.0) <= 1e-12
    areas = [row["area"] for row in report["annulus_areas"]]
    sups = [row["sup_omega"] for row in report["sup_omega_per_circle"]]
    np.testing.assert_allclose(areas, CYLINDRICAL_AREAS, rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(sups, CYLINDRICAL_SUP_OMEGA, rtol=1e-6, atol=0.0)


def test_cylindrical_sup_omega_is_converged_on_its_circle(cyl):
    finer = CylindricalModel(PARAMS, panels_per_osc=32)
    for k in range(1, 8):
        assert cyl.sup_omega_on_circle(k) == pytest.approx(finer.sup_omega_on_circle(k), rel=1e-7)


def test_lifted_tangent_and_tangent_plane_make_one_blend_with_the_bits_of_the_partials(
        monkeypatch):
    from stokeslab.currents import ChartCurrent, Rect, _lifted_tangent

    model = SurfaceModel(PARAMS)
    chart = model.strip_chart(3)
    base = np.array([0.1, model._ladder[3]])
    direction = np.array([2.5, model._ladder[4] - model._ladder[3]])
    t = np.linspace(0.0, 1.0, 97)
    out = []
    assert _blends(monkeypatch, lambda: out.append(_lifted_tangent(chart, base, direction, t))) == 1
    u = base + t[:, None] * direction
    px, py = chart.dpsi_dx(u[:, 0], u[:, 1]), chart.dpsi_dy(u[:, 0], u[:, 1])
    assert np.array_equal(out[0][:, 2], px * direction[0] + py * direction[1])
    piece = ChartCurrent(Rect(0.0, 1.0, model._ladder[3], model._ladder[4]), chart)
    points = chart.point(u[:, 0], u[:, 1])
    assert _blends(monkeypatch, lambda: out.append(piece.tangent_plane(points))) == 1
    for got, expected in zip(out[1], graph_tangent(px, py)):
        assert np.array_equal(got, expected)
