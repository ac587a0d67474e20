import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_quadrature import (_assert_matches_reference, _integrands, _lifted, _lower,
                             _reference_1d, _reference_2d, _run, _width)

from stokeslab import quadrature
from stokeslab.quadrature import QuadratureError, integrate_1d, integrate_2d, integrate_boxes


def _alone(f, lo, hi, tol):
    """The reference loop's integral of f over one box, or the stall message."""
    if len(lo) == 1:
        return _run(_reference_1d, f, lo[0], hi[0], tol=tol)
    return _run(_reference_2d, f, lo[0], hi[0], lo[1], hi[1], tol=tol)


def _batched(fs, lo, hi, tol):
    """integrate_boxes of box i against fs[i], or the stall message."""
    def f(box, *coords):
        out = np.empty_like(coords[0])
        for i in np.unique(box):
            rows = box == i
            out[rows] = fs[i](*(c[rows] for c in coords))
        return out

    try:
        return integrate_boxes(f, lo, hi, tol)
    except QuadratureError as exc:
        return str(exc)


def _tol(tol, d):
    """tol on intervals, 1e4 tol on rectangles: a kink line needs some 2,300 rectangle
    panels at 1e-8, and a stall would take the whole 4,096-panel budget."""
    return tol * 1e4 ** (d - 1)


def _outcome(res):
    """A result as exact bits."""
    return res.value.hex(), res.error.hex(), res.panels


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]), box=st.tuples(_lower, _width, _lower, _width),
       tol=st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_each_box_matches_the_single_box_kernel(data, d, box, tol):
    # the single-box kernel is the reference loop; unlike
    # test_kernel_matches_the_reference_loops, this runs the default order and
    # the whole 4,096-panel budget
    x0, wx, y0, wy = box
    lo, hi = [x0, y0][:d], [x0 + wx, y0 + wy][:d]
    f = _lifted(data.draw(_integrands(x0, wx)), d)
    tol = _tol(tol, d)
    new = _batched([f], [lo], [hi], [tol])
    _assert_matches_reference(new if isinstance(new, str) else new[0], _alone(f, lo, hi, tol),
                              f, lo, hi)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]),
       boxes=st.lists(st.tuples(_lower, _width, _lower, _width), min_size=1, max_size=4),
       tols=st.lists(st.sampled_from([1e-6, 1e-8, 1e-10]), min_size=4, max_size=4),
       block=st.sampled_from(["one panel", "one panel less one point", "three panels and some",
                              "default"]))
def test_a_box_gives_the_same_bits_alone_in_any_batch_and_any_block(data, d, boxes, tols, block):
    fs = [_lifted(data.draw(_integrands(x0, wx)), d) for x0, wx, _, _ in boxes]
    lo = [[x0, y0][:d] for x0, _, y0, _ in boxes]
    hi = [[x0 + wx, y0 + wy][:d] for x0, wx, y0, wy in boxes]
    order_perm = data.draw(st.permutations(range(len(boxes))))
    n = 12 ** d
    points = {"one panel": n, "one panel less one point": n - 1,
              "three panels and some": 3 * n + 5, "default": quadrature.BLOCK_POINTS}[block]
    tols = [_tol(t, d) for t in tols]
    alone = [_batched([f], [a], [b], [t]) for f, a, b, t in zip(fs, lo, hi, tols)]
    with mock.patch.object(quadrature, "BLOCK_POINTS", points):
        batch = _batched(*([xs[i] for i in order_perm] for xs in (fs, lo, hi, tols)))
    stalls = [res for res in alone if isinstance(res, str)]
    if stalls:
        assert batch in stalls
        return
    assert [_outcome(batch[order_perm.index(i)]) for i in range(len(boxes))] == \
        [_outcome(res) for (res,) in alone]


def test_zero_errors_are_positive_zero():
    def zeros(box, *coords):
        return np.zeros_like(coords[0])

    results = [integrate_boxes(zeros, [lo], [hi], [1e-10])[0]
               for lo, hi in (([0.0], [1.0]), ([0.0, 0.0], [1.0, 2.0]))]
    assert [(res.value, res.panels) for res in results] == [(0.0, 1)] * 2
    # a constant's estimate is exact, over reversed limits too
    results += [integrate_1d(np.ones_like, 1.0, 0.0),
                integrate_2d(lambda x, y: np.ones_like(x), 0.0, 1.0, 0.0, 1.0)]
    for res in results:
        assert res.error == 0.0 and math.copysign(1.0, res.error) == 1.0


def test_empty_boxes_and_empty_batches():
    out = integrate_boxes(lambda box, x: x, [[0.5], [0.0]], [[0.5], [1.0]], [1e-10] * 2)
    assert out[0] == quadrature.QuadResult(0.0, 0.0, 0)
    assert out[1].value == pytest.approx(0.5, abs=1e-15)
    # an empty batch is a result of empty columns
    empty = integrate_boxes(lambda box, x, y: x, np.empty((0, 2)), np.empty((0, 2)), [])
    assert [column.shape for column in (empty.value, empty.error, empty.panels)] == [(0,)] * 3


def test_panels_go_to_the_integrand_in_point_blocks():
    calls = []

    def f(box, x):
        calls.append(x.shape)
        return np.ones_like(x)

    integrate_boxes(f, np.zeros((3000, 1)), np.ones((3000, 1)), [1e-10] * 3000)
    # 3000 roots and their 6000 halves go together, 12 points each
    per_block = quadrature.BLOCK_POINTS // 12
    assert sum(rows for rows, _ in calls) == 9000
    assert len(calls) == math.ceil(9000 / per_block)
    assert all(rows <= per_block and points == 12 for rows, points in calls)


@pytest.mark.parametrize("d", [1, 2])
def test_a_stalled_box_raises_the_single_box_message(d):
    # too oscillatory for 4096 panels at this tol, next to a box that converges
    if d == 1:
        def f(t):
            return np.sin(3e4 * t * (1 + t))
    else:
        def f(x, y):
            return np.sin(300 * (x + 0.3 * y) * (1 + x)) * (1 + y * y)
    lo, hi = [-0.5, 0.1][:d], [1.7, 1.3][:d]
    ref = _alone(f, lo, hi, 1e-12)
    assert "stalled at 4096 panels" in ref
    assert _batched([lambda *c: np.cos(c[0]), f], [[0.0] * d, lo], [[1.0] * d, hi], [1e-10, 1e-12]) == ref


def test_values_and_errors_are_numpy_floats():
    # a heap of numpy floats sums left to right on every Python version, so a
    # multi-panel box has the same bits wherever it runs
    for d in (1, 2):
        (res,) = integrate_boxes(lambda box, *coords: coords[0] ** 30, [[0.0] * d],
                                 [[1.0] * d], [1e-12])
        assert res.panels > 1
        assert type(res.value) is np.float64 and type(res.error) is np.float64
