import heapq
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslab.quadrature import (QuadratureError, QuadResult, gauss_rule, integrate_1d,
                                  integrate_2d, ragged_panels)


# The composite Gauss rule that ragged_panels replaced, moved here verbatim from
# stokeslab.quadrature: the bit reference of the ragged rows.
def composite_nodes(lo, hi, panels: int, order: int = 12):
    """Nodes and panel half-widths of the composite Gauss rule on [lo, hi].

    [lo, hi] is cut into ``panels`` equal panels; lo and hi may be arrays of
    a common shape S, giving nodes of shape S + (panels, order) and
    half-widths of shape S + (panels,).  The integral of f is the sum over
    panels of half-width times the weights of :func:`gauss_rule` dotted
    with f at the panel's nodes.
    """
    nodes, _ = gauss_rule(order)
    edges = np.linspace(lo, hi, panels + 1, axis=-1)
    mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
    halves = 0.5 * np.diff(edges, axis=-1)
    return mids[..., None] + halves[..., None] * nodes, halves


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
    # the first call evaluates the box with its 2^d children; each later call
    # splits one panel, whose children were evaluated with it, and evaluates
    # their 2^d children each, so a run with s splits makes 1 + s calls of
    # 12^d (1 + 2^d (1 + 2^d s)) points in all
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
        assert len(calls) == 1 + splits
        assert sum(calls) == 12 ** d * (1 + 2 ** d * (1 + 2 ** d * splits))


# -- the two heap loops the kernel replaced, kept as its reference --------------


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


def _lifted(g, d):
    """g on intervals; on rectangles, g along x + 0.1 y times a smooth weight in y."""
    if d == 1:
        return g
    return lambda x, y: g(x + 0.1 * y) * (1.0 + y * y)


def _scale(f, lo, hi):
    """Volume times the largest |f| on a fine Gauss grid: the size of the integral."""
    axes = [composite_nodes(a, b, 32)[0].ravel() for a, b in zip(lo, hi)]
    grid = [u.ravel() for u in np.meshgrid(*axes, indexing="ij")]
    return math.prod(b - a for a, b in zip(lo, hi)) * float(np.abs(f(*grid)).max())


def _run(integrate, *args, **options):
    """integrate(*args, **options), or its stall message."""
    try:
        return integrate(*args, **options)
    except QuadratureError as exc:
        return str(exc)


_STALL = re.compile(r"(.*) error (\S+) (> tol .*)")


def _assert_matches_reference(new, ref, f, lo, hi):
    """The same panels or stall message as the reference; values and errors
    within 1e-14 of the integral's size."""
    if isinstance(ref, str):
        # the same message, save that rounding may move the last printed
        # digit of the error (4.185e-12 against 4.186e-12)
        assert isinstance(new, str)
        new, ref = _STALL.fullmatch(new), _STALL.fullmatch(ref)
        assert new.group(1, 3) == ref.group(1, 3)
        assert float(new[2]) == pytest.approx(float(ref[2]), rel=2e-3)
        return
    assert new.panels == ref.panels
    scale = _scale(f, lo, hi)
    assert abs(new.value - ref.value) <= 1e-14 * scale
    assert abs(new.error - ref.error) <= 1e-14 * scale


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), order=st.sampled_from([10, 12]),
       box=st.tuples(_lower, _width, _lower, _width), reverse=st.booleans(),
       tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
       max_panels=st.sampled_from([1, 2, 3, 7, 16, 64, 200]))
def test_kernel_matches_the_reference_loops(data, d, order, box, reverse, tol, max_panels):
    # the same panels and stall messages; values and errors up to rounding,
    # since the reference reduces a panel with BLAS dot products
    x0, wx, y0, wy = box
    lo, hi = [x0, y0][:d], [x0 + wx, y0 + wy][:d]
    f = _lifted(data.draw(_integrands(x0, wx)), d)
    options = {"tol": tol, "order": order, "max_panels": max_panels}
    if d == 1:
        limits = (hi[0], lo[0]) if reverse else (lo[0], hi[0])
        new = _run(integrate_1d, f, *limits, **options)
        ref = _run(_reference_1d, f, *limits, **options)
    else:
        limits = (lo[0], hi[0], lo[1], hi[1])
        new = _run(integrate_2d, f, *limits, **options)
        ref = _run(_reference_2d, f, *limits, **options)
    _assert_matches_reference(new, ref, f, lo, hi)


# -- the ragged rule ----------------------------------------------------------------


@st.composite
def _ragged_rows(draw):
    """lo (0.0 or one per row), hi and panel counts of 1 to 8 rows, all equal or mixed."""
    n = draw(st.integers(1, 8))
    ends = st.floats(-1e3, 1e3)
    lo = draw(st.one_of(st.just(0.0), st.lists(ends, min_size=n, max_size=n).map(np.array)))
    lengths = np.array(draw(st.lists(st.floats(1e-9, 1e3), min_size=n, max_size=n)))
    counts = st.integers(1, 300)
    if draw(st.booleans()):
        panels = np.full(n, draw(counts))
    else:
        panels = np.array(draw(st.lists(counts, min_size=n, max_size=n)))
    return lo, lo + lengths, panels


@given(_ragged_rows(), st.sampled_from([8, 12]))
@settings(max_examples=300, deadline=None)
def test_ragged_panels_have_the_bits_of_composite_nodes_row_by_row(rows, order):
    lo, hi, panels = rows
    mids, halves = ragged_panels(lo, hi, panels)
    nodes = mids[:, None] + halves[:, None] * gauss_rule(order)[0]
    assert nodes.shape == (panels.sum(), order)
    rows_nodes = np.split(nodes, np.cumsum(panels)[:-1])
    rows_halves = np.split(halves, np.cumsum(panels)[:-1])
    for a, b, p, x, h in zip(np.broadcast_to(lo, hi.shape), hi, panels, rows_nodes, rows_halves):
        ref_x, ref_h = composite_nodes(a, b, int(p), order)
        assert np.array_equal(x, ref_x) and np.array_equal(h, ref_h)
    if np.all(panels == panels[0]):
        # equal counts: one composite_nodes call on array endpoints
        ref_x, ref_h = composite_nodes(lo, hi, int(panels[0]), order)
        assert np.array_equal(nodes, ref_x.reshape(-1, order))
        assert np.array_equal(halves, ref_h.ravel())
