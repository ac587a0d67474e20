"""The column results of integrate_boxes against the kernel they replaced, bit for bit.

``_listed_boxes`` is the lockstep kernel as it was when it returned one
QuadResult per box and contracted each panel by running sums; ``_stacked_speed``
is the lifted edge speed of ``chart_masses`` as it was, the length of the
stacked tangents of ``_lifted_tangent``.  Both are kept verbatim as references.
"""

import heapq
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslab import quadrature
from stokeslab.currents import _lifted_tangent, chart_masses
from stokeslab.quadrature import QuadratureError, QuadResult, _split, gauss_rule, integrate_boxes


@lru_cache(maxsize=None)
def _unit_nodes(order: int, d: int):
    """The order**d tensor Gauss nodes on [-1, 1]^d, one flat array per axis, x-major."""
    nodes, _ = gauss_rule(order)
    return tuple(u.ravel() for u in np.meshgrid(*[nodes] * d, indexing="ij"))


def _listed_boxes(f, lo, hi, tol, order: int = 12,
                  max_panels: int = 4096) -> list[QuadResult]:
    """The lockstep kernel before its results became columns, verbatim: one QuadResult
    per box, and each axis of a panel contracted by np.cumsum(vals * w)[:, -1]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n_boxes, d = lo.shape
    unit = _unit_nodes(order, d)
    _, weights = gauss_rule(order)
    step = max(1, quadrature.BLOCK_POINTS // order ** d)
    n_kids = 2 ** d

    def gauss(boxes, panels):
        """Gauss values of panels (P, d, 2) of the given boxes (P,), in point blocks."""
        mids = 0.5 * (panels[..., 0] + panels[..., 1])
        halves = 0.5 * (panels[..., 1] - panels[..., 0])
        sums = np.empty(len(panels))
        for start in range(0, len(panels), step):
            rows = slice(start, start + step)
            coords = [mids[rows, a, None] + halves[rows, a, None] * unit[a] for a in range(d)]
            vals = np.asarray(f(boxes[rows], *coords), dtype=float)
            vals = vals.reshape((len(coords[0]),) + (order,) * d)
            # contract x, then y, by running sums along each panel's own
            # nodes: no panel's bits depend on the others, and exact products
            # (a constant integrand) add up left to right
            for _ in range(d):
                w = weights.reshape((order,) + (1,) * (vals.ndim - 2))
                vals = np.cumsum(vals * w, axis=1)[:, -1]
            sums[rows] = vals
        return halves.prod(axis=-1) * sums

    def estimate(boxes, panels, coarse=None):
        """Kids, kid values, fine values and errors of panels.

        Without coarse values, the panels are evaluated with their kids.
        """
        kids = _split(panels)
        todo = kids if coarse is not None else np.concatenate([panels[:, None], kids], axis=1)
        vals = gauss(np.repeat(boxes, todo.shape[1]), todo.reshape(-1, d, 2))
        vals = vals.reshape(todo.shape[:2])
        if coarse is None:
            coarse, vals = vals[:, 0], vals[:, 1:]
        fine = vals[:, 0].copy()
        for c in range(1, n_kids):
            fine += vals[:, c]
        return kids, vals, fine, np.abs(fine - coarse)

    results = [QuadResult(0.0, 0.0, 0)] * n_boxes
    owners = np.flatnonzero((lo != hi).all(axis=1))
    # the kids of each new panel, evaluated for its estimate, are the panels
    # its split makes, with their coarse values
    kids, kid_vals, fine, err = estimate(owners, np.stack([lo[owners], hi[owners]], axis=-1))
    # a box whose first estimate meets its tol finishes without a heap, with
    # the bits of a one-panel heap, whose value sum starts from 0 (-0.0 + 0 is +0.0)
    first = err <= np.asarray(tol, dtype=float)[owners]
    for box, value, error in zip(owners[first].tolist(), fine[first] + 0.0, err[first]):
        results[box] = QuadResult(value, error, 1)
    owners, kids, kid_vals, fine, err = (a[~first] for a in (owners, kids, kid_vals, fine, err))
    heaps = {box: [] for box in owners.tolist()}
    tick = itertools.count()
    while heaps:
        for j, box in enumerate(owners.tolist()):
            heapq.heappush(heaps[box], (-err[j], next(tick), fine[j], kids[j], kid_vals[j]))
        worst = []
        for box in list(heaps):
            # the heap holds numpy floats, whose sum() is a plain left-to-right
            # sum on every Python version (3.12 compensates built-in floats)
            heap = heaps[box]
            total_err = sum(-item[0] for item in heap)
            if total_err <= tol[box]:
                results[box] = QuadResult(sum(item[2] for item in heap), total_err, len(heap))
                del heaps[box]
            elif len(heap) >= max_panels:
                raise QuadratureError(
                    f"{d}-D quadrature stalled at {len(heap)} panels with error "
                    f"{total_err:.3e} > tol {tol[box]:.3e}"
                )
            else:
                worst.append((box, heapq.heappop(heap)))
        # every box above its tol splits its worst panel in the next round
        if worst:
            owners = np.repeat([box for box, _ in worst], n_kids)
            kids, kid_vals, fine, err = estimate(
                owners, np.concatenate([entry[3] for _, entry in worst]),
                np.concatenate([entry[4] for _, entry in worst]))
    return results


def _stacked_speed(chart, lo, direction):
    """The lifted edge speed of chart_masses before it was summed directly, verbatim."""
    def speed(box, t):
        tangent = _lifted_tangent(chart, lo[box, None], direction[box, None], t)
        return np.sqrt((tangent ** 2).sum(axis=-1))
    return speed


def _outcome(run):
    """run()'s (B,) columns, or its stall message."""
    try:
        res = run()
    except QuadratureError as exc:
        return str(exc)
    return res if isinstance(res, QuadResult) else QuadResult(
        *(np.array([getattr(r, part) for r in res]) for part in ("value", "error", "panels")))


def _assert_same_bits(new, ref):
    if isinstance(ref, str):
        assert new == ref
        return
    assert not isinstance(new, str)
    for part in ("value", "error", "panels"):
        assert np.array_equal(getattr(new, part), getattr(ref, part)), part
    # +0.0 stays +0.0: array_equal does not tell the zeros apart
    assert np.array_equal(np.signbit(new.value), np.signbit(ref.value))
    assert np.array_equal(np.signbit(new.error), np.signbit(ref.error))


# points in a block: one panel, one point less, and a block that ends inside a panel
_BLOCKS = st.sampled_from(["one panel", "one panel less one point", "three panels and some",
                           "default"])


def _block_points(block, n):
    return {"one panel": n, "one panel less one point": n - 1, "three panels and some": 3 * n + 5,
            "default": quadrature.BLOCK_POINTS}[block]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]), order=st.sampled_from([10, 12]),
       block=_BLOCKS)
def test_columns_have_the_bits_of_the_listed_kernel(data, d, order, block):
    # each box has a kink at c inside it, an oscillation of frequency w and,
    # on some boxes, an empty axis; a tol of 1 finishes on the first
    # estimate, and the smaller ones take the heap
    n = data.draw(st.integers(1, 6))
    lo = np.array(data.draw(st.lists(st.lists(st.floats(-2.0, 0.0), min_size=d, max_size=d),
                                     min_size=n, max_size=n)))
    width = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.5, 2.5]),
                                                 min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
    hi = lo + width
    c = lo[:, 0] + width[:, 0] * np.array(data.draw(st.lists(st.floats(0.05, 0.95),
                                                             min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(st.floats(0.0, 20.0 / d ** 2), min_size=n, max_size=n)))
    tols = {1: [1.0, 1e-7, 1e-10], 2: [1.0, 1e-4, 1e-6], 3: [1.0, 1e-3, 3e-4]}[d]
    tol = np.array(data.draw(st.lists(st.sampled_from(tols), min_size=n, max_size=n)))
    max_panels = {1: 512, 2: 256, 3: 64}[d]

    def f(box, *coords):
        out = np.abs(coords[0] - c[box, None]) + np.sin(w[box, None] * sum(coords))
        for u in coords[1:]:
            out *= 1.0 + u * u
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "BLOCK_POINTS", _block_points(block, order ** d))
        new = _outcome(lambda: integrate_boxes(f, lo, hi, tol, order, max_panels))
        ref = _outcome(lambda: _listed_boxes(f, lo, hi, tol, order, max_panels))
    _assert_same_bits(new, ref)


def _charts():
    from stokeslab.cli import _build_current
    from stokeslab.counterexample import build_surface_current

    model = build_surface_current().model
    windows = {k: (model.x_lo, model.x_hi, y0, y1)
               for k, y0, y1 in model.strip_windows(0.0, model.y_infinity) if k <= 2}
    parabolic = _build_current({"kind": "parabolic_graph"}).chart
    return [(parabolic, (0.0, 1.0, 0.0, 1.0))] + [(model.strip_chart(k), box)
                                                   for k, box in windows.items()]


CHARTS = _charts()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), which=st.integers(0, len(CHARTS) - 1), n=st.integers(1, 24),
       tol=st.sampled_from([1e-6, 1e-11, 1e-13]), block=_BLOCKS)
def test_edge_speeds_have_the_bits_of_the_stacked_tangents(data, which, n, tol, block):
    chart, (x0, x1, y0, y1) = CHARTS[which]
    unit = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
    ends = np.array(data.draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n)))
    ends = np.array([x0, y0]) + ends * np.array([x1 - x0, y1 - y0])
    start, end = ends[:, 0], ends[:, 1]
    tols = np.full(n, tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "BLOCK_POINTS", _block_points(block, 12))
        new = _outcome(lambda: chart_masses(chart, start, end, tols, boundary=True))
        ref = _outcome(lambda: integrate_boxes(_stacked_speed(chart, start, end - start),
                                               np.zeros((n, 1)), np.ones((n, 1)), tols))
    _assert_same_bits(new, ref)


def test_a_first_estimate_batch_builds_one_result_of_columns(monkeypatch):
    # 5,000 boxes that finish on their first estimate are filled by one masked
    # assignment, with no QuadResult per box
    built = []

    def counted(*args):
        built.append(args)
        return QuadResult(*args)

    monkeypatch.setattr(quadrature, "QuadResult", counted)
    res = integrate_boxes(lambda box, x: np.ones_like(x), np.zeros((5000, 1)),
                          np.ones((5000, 1)), np.full(5000, 1e-10))
    assert len(built) == 1
    assert res.panels.tolist() == [1] * 5000 and len(set(res.value.tolist())) == 1


def test_a_box_of_the_columns_is_the_scalar_result():
    res = integrate_boxes(lambda box, x: x ** 30, [[0.0], [0.0], [0.5]], [[1.0], [0.0], [1.0]],
                          [1e-12, 1e-12, 1e-12])
    boxes = list(res)
    assert [r.panels for r in boxes] == res.panels.tolist() and type(boxes[0].panels) is int
    assert [r.value for r in boxes] == res.value.tolist() and boxes[1] == QuadResult(0.0, 0.0, 0)
    assert quadrature.integrate_1d(lambda x: x ** 30, 0.0, 1.0, tol=1e-12) == boxes[0]


def test_a_negative_zero_first_estimate_reads_positive_zero():
    # the masked assignment keeps the listed kernel's +0.0 for an integrand of -0.0
    def f(box, *coords):
        return np.full_like(coords[0], -0.0)

    for d in (1, 2):
        lo, hi = np.zeros((3, d)), np.ones((3, d))
        new = integrate_boxes(f, lo, hi, [1e-10] * 3)
        _assert_same_bits(new, _outcome(lambda: _listed_boxes(f, lo, hi, [1e-10] * 3)))
        assert not np.signbit(new.value).any() and new.panels.tolist() == [1] * 3


def _kinked(box, *coords):
    """A kink in x, an oscillation along the diagonal and a weight in the later axes."""
    out = np.abs(coords[0] - 0.3 * box[:, None]) + np.sin(7.0 * sum(coords))
    for u in coords[1:]:
        out *= 1.0 + u * u
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_bits_do_not_depend_on_the_layout_the_integrand_returns(d):
    # the values come back in the layout of the coordinates, node-major, or as
    # a C-ordered (N, order**d) copy; a tol of 1 finishes on the first estimate
    c_ordered = []

    def own(box, *coords):
        out = _kinked(box, *coords)
        c_ordered.append(out.flags.c_contiguous and len(out) > 1)
        return out

    def copied(box, *coords):
        return np.ascontiguousarray(_kinked(box, *coords))

    lo = np.array([[-0.5] * d, [0.0] * d, [0.25] * d])
    hi = lo + np.array([[1.5] * d, [1.0] * d, [0.5] * d])
    tol = {1: [1e-10, 1.0, 1e-12], 2: [1e-5, 1.0, 1e-6], 3: [1e-3, 1.0, 1e-3]}[d]
    new = integrate_boxes(own, lo, hi, tol, max_panels=256)
    assert new.panels.max() > 1 and not any(c_ordered)
    _assert_same_bits(new, integrate_boxes(copied, lo, hi, tol, max_panels=256))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_integrand_gets_the_nodes_of_each_panel_x_major(monkeypatch, d):
    # a first-estimate run evaluates each box and its 2**d halves, in blocks
    # of two panels and a point
    order = 4
    monkeypatch.setattr(quadrature, "BLOCK_POINTS", 2 * order ** d + 1)
    got = []

    def f(box, *coords):
        got.append(coords)
        return np.zeros_like(coords[0])

    lo = np.array([[-0.5, 0.0, 0.25][:d], [0.125, -1.0, 2.0][:d]])
    hi = lo + np.array([[1.5, 0.75, 0.5][:d], [0.25, 3.0, 1.0][:d]])
    integrate_boxes(f, lo, hi, [1.0, 1.0], order)
    roots = np.stack([lo, hi], axis=-1)
    panels = np.concatenate([roots[:, None], _split(roots)], axis=1).reshape(-1, d, 2)
    mids = 0.5 * (panels[..., 0] + panels[..., 1])
    halves = 0.5 * (panels[..., 1] - panels[..., 0])
    assert all(len(coords[0]) <= 2 for coords in got)
    for a in range(d):
        seen = np.concatenate([coords[a] for coords in got])
        expected = mids[:, a, None] + halves[:, a, None] * _unit_nodes(order, d)[a]
        assert seen.shape == expected.shape and seen.tobytes() == expected.tobytes()
