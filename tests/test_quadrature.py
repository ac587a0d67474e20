import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslab.quadrature import (QuadratureError, QuadResult, gauss_rule, integrate_1d,
                                  integrate_2d)


def test_polynomial_exact():
    res = integrate_1d(lambda x: 3 * x ** 2, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.error <= 1e-10


def test_reversed_bounds_flip_sign():
    res = integrate_1d(lambda x: np.ones_like(x), 1.0, 0.0)
    assert res.value == pytest.approx(-1.0, abs=1e-14)


def test_oscillatory_integrand_certified():
    res = integrate_1d(lambda x: np.sin(40.0 * x), 0.0, math.pi, tol=1e-12)
    exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
    assert res.value == pytest.approx(exact, abs=1e-11)
    assert abs(res.value - exact) <= max(res.error, 1e-11)


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError):
        integrate_1d(lambda x: np.sin(1e4 * x) * np.abs(x - 0.3) ** 0.1,
                     0.0, 1.0, tol=1e-14, max_panels=4)


def test_2d_separable():
    res = integrate_2d(lambda x, y: x * y, 0.0, 1.0, 0.0, 2.0)
    assert res.value == pytest.approx(1.0, abs=1e-13)


def test_2d_area_element():
    # graph z = x over the unit square has area sqrt(2)
    res = integrate_2d(lambda x, y: np.full_like(x, math.sqrt(2.0)), 0.0, 1.0, 0.0, 1.0)
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-13)


def test_empty_interval():
    assert integrate_1d(lambda x: x, 0.7, 0.7).value == 0.0
    assert integrate_2d(lambda x, y: x, 0.0, 0.0, 0.0, 1.0).value == 0.0


def test_each_panel_is_evaluated_once():
    # a split reuses the children's values as their coarse values, so a run
    # ending with P panels after s = (P - 1) / (2^d - 1) splits makes
    # 1 + 2^d (1 + 2^d s) integrand calls
    calls = []

    def kinked_1d(x):
        calls.append(x.size)
        return np.abs(x - 0.3)

    def kinked_2d(x, y):
        calls.append(x.size)
        return np.abs(x - 0.3) * (1.0 + y)

    for d, run in ((1, lambda: integrate_1d(kinked_1d, 0.0, 1.0, tol=1e-8)),
                   (2, lambda: integrate_2d(kinked_2d, 0.0, 1.0, 0.0, 1.0, tol=1e-6))):
        calls.clear()
        res = run()
        splits, rest = divmod(res.panels - 1, 2 ** d - 1)
        assert rest == 0 and splits > 0
        assert len(calls) == 1 + 2 ** d * (1 + 2 ** d * splits)
        assert set(calls) == {12 ** d}


# -- the two heap loops the kernel replaced, kept as a bitwise reference ---------


def _panel_1d(f, a, b, nodes, weights):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(weights, f(mid + half * nodes)))


def _reference_1d(f, a: float, b: float, tol: float = 1e-10, order: int = 12,
                  max_panels: int = 4096, min_panels: int = 1) -> QuadResult:
    """Adaptive integral of a vectorized scalar function over [a, b]."""
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    nodes, weights = gauss_rule(order)

    def refine(lo, hi):
        mid = 0.5 * (lo + hi)
        coarse = _panel_1d(f, lo, hi, nodes, weights)
        left = _panel_1d(f, lo, mid, nodes, weights)
        right = _panel_1d(f, mid, hi, nodes, weights)
        fine = left + right
        return fine, abs(fine - coarse)

    heap = []
    count = 0
    width = (b - a) / min_panels
    for i in range(min_panels):
        lo = a + i * width
        hi = b if i == min_panels - 1 else lo + width
        val, err = refine(lo, hi)
        heapq.heappush(heap, (-err, count, lo, hi, val))
        count += 1

    while True:
        total_err = -sum(item[0] for item in heap)
        if total_err <= tol:
            value = sign * sum(item[4] for item in heap)
            return QuadResult(value, total_err, len(heap))
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"1-D quadrature stalled at {len(heap)} panels with error {total_err:.3e} > tol {tol:.3e}"
            )
        _, _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for (l2, h2) in ((lo, mid), (mid, hi)):
            val, err = refine(l2, h2)
            heapq.heappush(heap, (-err, count, l2, h2, val))
            count += 1


def _panel_2d(f, x0, x1, y0, y1, nodes, weights):
    mx, hx = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    my, hy = 0.5 * (y0 + y1), 0.5 * (y1 - y0)
    xs = mx + hx * nodes
    ys = my + hy * nodes
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = f(X.ravel(), Y.ravel()).reshape(X.shape)
    return hx * hy * float(weights @ vals @ weights)


def _reference_2d(f, x0: float, x1: float, y0: float, y1: float, tol: float = 1e-10,
                  order: int = 12, max_panels: int = 4096,
                  min_cells: tuple[int, int] = (1, 1)) -> QuadResult:
    """Adaptive tensor-product integral of f(x, y) over a rectangle.

    ``f`` maps flat coordinate arrays to a flat array of values.
    """
    if x0 == x1 or y0 == y1:
        return QuadResult(0.0, 0.0, 0)
    nodes, weights = gauss_rule(order)

    def refine(a, b, c, d):
        coarse = _panel_2d(f, a, b, c, d, nodes, weights)
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        fine = 0.0
        for (p, q) in ((a, mx), (mx, b)):
            for (r, s) in ((c, my), (my, d)):
                fine += _panel_2d(f, p, q, r, s, nodes, weights)
        return fine, abs(fine - coarse)

    heap = []
    count = 0
    nx, ny = min_cells
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    for i in range(nx):
        for j in range(ny):
            val, err = refine(xs[i], xs[i + 1], ys[j], ys[j + 1])
            heapq.heappush(heap, (-err, count, xs[i], xs[i + 1], ys[j], ys[j + 1], val))
            count += 1

    while True:
        total_err = -sum(item[0] for item in heap)
        if total_err <= tol:
            return QuadResult(sum(item[6] for item in heap), total_err, len(heap))
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"2-D quadrature stalled at {len(heap)} panels with error {total_err:.3e} > tol {tol:.3e}"
            )
        _, _, a, b, c, d, _ = heapq.heappop(heap)
        mx, my = 0.5 * (a + b), 0.5 * (c + d)
        for (p, q) in ((a, mx), (mx, b)):
            for (r, s) in ((c, my), (my, d)):
                val, err = refine(p, q, r, s)
                heapq.heappush(heap, (-err, count, p, q, r, s, val))
                count += 1


def _outcome(run):
    """(value, error, panels) as exact bits and types, or the stall message."""
    try:
        res = run()
    except QuadratureError as exc:
        return str(exc)
    # the types matter too: Python 3.12's sum() compensates built-in floats
    # but not numpy floats, so equal types keep the heap sums equal there
    return (float(res.value).hex(), type(res.value), float(res.error).hex(), type(res.error),
            res.panels)


_lower = st.floats(-2.0, 0.0).map(lambda v: round(v, 3))
_width = st.floats(1.0, 3.0).map(lambda v: round(v, 3))


@st.composite
def _integrands(draw, lo, width):
    """A polynomial, kinked or oscillatory integrand whose features lie in [lo, lo + width]."""
    kind = draw(st.sampled_from(["polynomial", "kinked", "oscillatory"]))
    inside = lo + width * draw(st.floats(0.05, 0.95))
    if kind == "polynomial":
        # degrees past 2 * order - 1 are not exact on one panel
        coeffs = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
        degree = draw(st.sampled_from([3, 19, 20, 27, 35]))
        return lambda t: (np.polynomial.polynomial.polyval(t, coeffs)
                          + ((t - inside) / width) ** degree)
    if kind == "kinked":
        return lambda t: np.abs(t - inside)
    w = draw(st.floats(1.0, 60.0))
    return lambda t: np.sin(w * (t - inside))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), order=st.sampled_from([10, 12]),
       box=st.tuples(_lower, _width, _lower, _width), reverse=st.booleans(),
       tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
       max_panels=st.sampled_from([1, 2, 3, 7, 16, 64, 200]))
def test_kernel_matches_reference_bitwise(data, d, order, box, reverse, tol, max_panels):
    x0, wx, y0, wy = box
    x1, y1 = x0 + wx, y0 + wy
    g = data.draw(_integrands(x0, wx))
    options = {"tol": tol, "order": order, "max_panels": max_panels}
    if d == 1:
        a, b = (x1, x0) if reverse else (x0, x1)
        new = _outcome(lambda: integrate_1d(g, a, b, **options))
        ref = _outcome(lambda: _reference_1d(g, a, b, **options))
    else:
        def f(x, y):
            return g(x + 0.1 * y) * (1.0 + y * y)

        new = _outcome(lambda: integrate_2d(f, x0, x1, y0, y1, **options))
        ref = _outcome(lambda: _reference_2d(f, x0, x1, y0, y1, **options))
    assert new == ref
