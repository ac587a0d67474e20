"""Adaptive Gauss-Legendre quadrature with estimated absolute errors.

Integrands receive numpy arrays of sample points and must return arrays of
values.  One kernel, :func:`integrate_boxes`, serves boxes of any dimension
d, many at a time.  A panel's error is estimated as |fine - coarse|: its
Gauss value against the sum of those of its 2**d children, which halve it
along every axis.  Panels with the largest estimated error are split
first.  Each panel is evaluated once: a split reuses the children's
values, taken for the estimate, as their coarse values.

The boxes run in lockstep, in the manner of DCUHRE (Berntsen, Espelid &
Genz, ACM TOMS 17, 1991).  Each box keeps its own heap and estimate, and in
each round every box above its tolerance splits its worst panel.  The new
panels of all boxes go to the integrand together, in blocks of at most
``BLOCK_POINTS`` points, and each panel is reduced on its own row.  So a
box's result does not depend on the other boxes, on its position in the
batch or on where a block ends.  It returns (B,) columns; :func:`integrate_1d`
and :func:`integrate_2d` are its one-box entry points, returning box 0 alone.

A block is node-major.  Each axis's Gauss nodes are built once per panel,
as an (order, n) array, and spread over a C-ordered (order,)*d + (n,)
grid; the integrand gets its transpose, one (n, order**d) array per axis
in x-major node order.  The values are read back in that node-major
layout, and each axis is contracted by one multiply by the weight column
and then a sum of contiguous node rows, left to right.  The sums stay
sequential: a numpy reduce over an axis may add pairwise, which would give
a panel other bits than the sum along its own nodes in order.

The fixed-panel composites of the package take their panels from one ragged
rule, :func:`ragged_panels`: rows of their own intervals and panel counts,
built in one vectorized pass with the bits of :func:`composite_nodes` row by
row.  A caller expands the panels it needs into Gauss nodes and reduces a
row by its (panels, order) @ weights and a sum of half-widths times panel
sums.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "integrate_1d", "integrate_2d", "integrate_boxes",
           "gauss_rule", "composite_nodes", "ragged_panels"]

BLOCK_POINTS = 1 << 14  # most integrand points in one call of integrate_boxes


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met."""


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with an estimate of its absolute error.

    The error is |fine - coarse| summed over the panels: an a-posteriori
    estimate, not a rigorous bound.  ``result[i]`` is box i of a result of columns.
    """

    value: float
    error: float
    panels: int

    def __float__(self):
        return self.value

    def __getitem__(self, box) -> "QuadResult":
        return QuadResult(self.value[box], self.error[box], int(self.panels[box]))

    def scaled(self, factor: float) -> "QuadResult":
        """This result times factor: the value scales by factor, the error by |factor|."""
        return QuadResult(factor * self.value, abs(factor) * self.error, self.panels)


@lru_cache(maxsize=None)
def gauss_rule(order: int):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


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


def ragged_panels(lo, hi, panels):
    """Midpoints and half-widths (T,) of the equal panels of ragged rows, end to end.

    Row i is [lo[i], hi[i]] cut into panels[i] >= 1 panels; lo, hi and panels
    broadcast to one row axis, and all T = sum(panels) panels are built in
    one pass.  Edge j of a row is j * ((hi - lo) / panels) + lo and its last
    edge is hi, as in ``np.linspace``, so the Gauss nodes of panel t,
    ``mids[t] + halves[t] * gauss_rule(order)[0]``, have the bits of
    :func:`composite_nodes` on the row alone.
    """
    lo, hi, panels = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                         np.asarray(hi, dtype=float), np.atleast_1d(panels))
    ends = np.cumsum(panels)
    # in place: one call may hold the panels of thousands of rows
    left = np.arange(panels.sum(), dtype=float) - np.repeat(ends - panels, panels)
    right = left + 1.0
    for edge in (left, right):
        edge *= np.repeat((hi - lo) / panels, panels)
        edge += np.repeat(lo, panels)
    right[ends - 1] = hi
    mids = left + right
    halves = np.subtract(right, left, out=right)
    mids *= 0.5
    halves *= 0.5
    return mids, halves


def _split(panels):
    """The 2**d halves of panels (..., d, 2), x-major, as (..., 2**d, d, 2)."""
    lo, hi = panels[..., 0], panels[..., 1]
    ends = np.stack([lo, 0.5 * (lo + hi), hi], axis=-1)
    d = panels.shape[-2]
    # on axis k, child c spans ends[k, b:b + 2], where b is bit k of c
    bits = np.array(list(itertools.product((0, 1), repeat=d)))
    return ends[..., np.arange(d)[:, None], bits[..., None] + [0, 1]]


def integrate_boxes(f, lo, hi, tol, order: int = 12, max_panels: int = 4096) -> QuadResult:
    """Adaptive integrals of f over B boxes at once, as one result of (B,) columns.

    ``lo`` and ``hi`` are the (B, d) corners of the boxes, any d >= 1, with
    lo <= hi, and ``tol`` holds one tolerance per box.  The integrand is
    called as ``f(box, *coords)``: ``box`` holds the box index of each of N
    panels, and ``coords`` one (N, order**d) array of node coordinates per
    axis.  It returns the (N, order**d) values.  Each box splits its panels
    until its summed estimate is at most its tol, and reports a zero error
    as +0.0; a box whose first estimate meets its tol finishes in the first
    round, with no heap.  A box that reaches ``max_panels`` first raises a
    :class:`QuadratureError`.
    """
    lo, hi, tol = (np.asarray(a, dtype=float) for a in (lo, hi, tol))
    n_boxes, d = lo.shape
    nodes, weights = gauss_rule(order)
    step = max(1, BLOCK_POINTS // order ** d)
    n_kids = 2 ** d

    def gauss(boxes, panels):
        """Gauss values of panels (P, d, 2) of the given boxes (P,), in point blocks."""
        mids = 0.5 * (panels[..., 0] + panels[..., 1])
        halves = 0.5 * (panels[..., 1] - panels[..., 0])
        sums = np.empty(len(panels))
        for start in range(0, len(panels), step):
            rows = slice(start, start + step)
            n = min(step, len(panels) - start)
            coords = []
            for a in range(d):
                # the (order, n) nodes of axis a, spread over the node-major
                # (order,)*d + (n,) grid of the block
                axis = mids[rows, a] + halves[rows, a] * nodes[:, None]
                if d > 1:
                    grid = np.empty((order,) * d + (n,))
                    grid[...] = axis.reshape((1,) * a + (order,) + (1,) * (d - 1 - a) + (n,))
                    axis = grid
                coords.append(axis.reshape(-1, n).T)
            vals = np.asarray(f(boxes[rows], *coords), dtype=float)
            vals = vals.reshape(n, -1).T.reshape((order,) * d + (n,))
            # contract x, then y, along contiguous node rows: each panel's
            # products added left to right, as sums along its own nodes
            for _ in range(d):
                prods = vals * weights.reshape((order,) + (1,) * (vals.ndim - 1))
                vals = prods[0]
                for i in range(1, order):
                    vals += prods[i]
            sums[rows] = vals
        return halves.prod(axis=-1) * sums

    def estimate(boxes, panels, coarse=None):
        """Kids, kid values, fine values and errors of panels.

        Without coarse values, the panels are evaluated with their kids.
        """
        kids = _split(panels)
        todo = kids if coarse is not None else np.concatenate([panels[:, None], kids], axis=1)
        vals = gauss(np.repeat(boxes, todo.shape[1]), todo.reshape(-1, d, 2)).reshape(todo.shape[:2])
        if coarse is None:
            coarse, vals = vals[:, 0], vals[:, 1:]
        fine = vals[:, 0].copy()
        for c in range(1, n_kids):
            fine += vals[:, c]
        return kids, vals, fine, np.abs(fine - coarse)

    value, error, panels = np.zeros(n_boxes), np.zeros(n_boxes), np.zeros(n_boxes, dtype=int)
    owners = np.flatnonzero((lo != hi).all(axis=1))
    # the kids of each new panel, evaluated for its estimate, are the panels
    # its split makes, with their coarse values
    kids, kid_vals, fine, err = estimate(owners, np.stack([lo[owners], hi[owners]], axis=-1))
    # a box whose first estimate meets its tol finishes without a heap, with
    # the bits of a one-panel heap, whose value sum starts from 0 (-0.0 + 0 is +0.0)
    first = err <= tol[owners]
    done = owners[first]
    value[done], error[done], panels[done] = fine[first] + 0.0, err[first], 1
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
                value[box], error[box], panels[box] = sum(e[2] for e in heap), total_err, len(heap)
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
    return QuadResult(value, error, panels)


def integrate_1d(f, a: float, b: float, tol: float = 1e-10, order: int = 12,
                 max_panels: int = 4096) -> QuadResult:
    """Adaptive integral of a vectorized scalar function over [a, b]."""
    if b < a:
        return integrate_1d(f, b, a, tol, order, max_panels).scaled(-1.0)
    return _one_box(f, [a], [b], tol, order, max_panels)


def integrate_2d(f, x0: float, x1: float, y0: float, y1: float, tol: float = 1e-10,
                 order: int = 12, max_panels: int = 4096) -> QuadResult:
    """Adaptive tensor-product integral of f(x, y) over a rectangle.

    ``f`` maps flat coordinate arrays to a flat array of values.
    """
    return _one_box(f, [x0, y0], [x1, y1], tol, order, max_panels)


def _one_box(f, lo, hi, tol, order, max_panels) -> QuadResult:
    """integrate_boxes of f over one box, f taking flat coordinate arrays."""
    def flat(box, *coords):
        return np.reshape(f(*(c.ravel() for c in coords)), coords[0].shape)

    return integrate_boxes(flat, [lo], [hi], [tol], order, max_panels)[0]
