"""Adaptive Gauss-Legendre quadrature with estimated absolute errors.

Integrands receive numpy arrays of sample points and must return arrays of
values.  One kernel serves intervals and rectangles.  A panel's error is
estimated as |fine - coarse|: its Gauss value against the sum of those of its
2**d children, the halves (1-D) or quadrants (2-D).  Panels with the largest
estimated error are split first.  Each panel is evaluated once: a split
reuses the children's values, taken for the estimate, as their coarse values.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "integrate_1d", "integrate_2d", "gauss_rule",
           "composite_nodes"]


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met."""


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with an estimate of its absolute error.

    The error is |fine - coarse| summed over the panels: an a-posteriori
    estimate, not a rigorous bound.
    """

    value: float
    error: float
    panels: int

    def __float__(self):
        return self.value

    def scaled(self, factor: float) -> "QuadResult":
        """This result times factor: the value scales by factor, the error by |factor|."""
        return QuadResult(factor * self.value, abs(factor) * self.error, self.panels)


@lru_cache(maxsize=None)
def gauss_rule(order: int):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


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


@lru_cache(maxsize=None)
def _unit_nodes(order: int, d: int):
    """The order**d tensor Gauss nodes on [-1, 1]^d, one flat array per axis, x-major."""
    nodes, _ = gauss_rule(order)
    return tuple(u.ravel() for u in np.meshgrid(*[nodes] * d, indexing="ij"))


def _children(box):
    """The 2**d halves of a box, x-major."""
    halves = []
    for lo, hi in box:
        mid = 0.5 * (lo + hi)
        halves.append(((lo, mid), (mid, hi)))
    return itertools.product(*halves)


def _adaptive(f, box, tol: float, order: int, max_panels: int) -> QuadResult:
    """Adaptive integral of f over a box ((lo, hi),) or ((x0, x1), (y0, y1))."""
    d = len(box)
    if any(lo == hi for lo, hi in box):
        return QuadResult(0.0, 0.0, 0)
    unit = _unit_nodes(order, d)
    _, weights = gauss_rule(order)
    shape = (order,) * d

    def gauss(panel):
        points, scale = [], 1
        for (lo, hi), u in zip(panel, unit):
            half = 0.5 * (hi - lo)
            points.append(0.5 * (lo + hi) + half * u)
            scale *= half
        vals = np.asarray(f(*points)).reshape(shape)
        for _ in range(d):
            vals = weights @ vals
        return scale * float(vals)

    heap, tick = [], itertools.count()

    def push(panel, coarse):
        # the children's values give this panel's estimate now and serve as
        # their own coarse values once it is split
        kids = [(child, gauss(child)) for child in _children(panel)]
        fine = kids[0][1]
        for _, value in kids[1:]:
            fine += value
        heapq.heappush(heap, (-abs(fine - coarse), next(tick), fine, kids))

    push(box, gauss(box))
    while True:
        total_err = -sum(item[0] for item in heap)
        if total_err <= tol:
            return QuadResult(sum(item[2] for item in heap), total_err, len(heap))
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"{d}-D quadrature stalled at {len(heap)} panels with error {total_err:.3e} > tol {tol:.3e}"
            )
        for child, coarse in heapq.heappop(heap)[3]:
            push(child, coarse)


def integrate_1d(f, a: float, b: float, tol: float = 1e-10, order: int = 12,
                 max_panels: int = 4096) -> QuadResult:
    """Adaptive integral of a vectorized scalar function over [a, b]."""
    if b < a:
        return _adaptive(f, ((b, a),), tol, order, max_panels).scaled(-1.0)
    return _adaptive(f, ((a, b),), tol, order, max_panels)


def integrate_2d(f, x0: float, x1: float, y0: float, y1: float, tol: float = 1e-10,
                 order: int = 12, max_panels: int = 4096) -> QuadResult:
    """Adaptive tensor-product integral of f(x, y) over a rectangle.

    ``f`` maps flat coordinate arrays to a flat array of values.
    """
    # numpy corners keep every 2-D panel value a numpy float, so the heap
    # sums stay plain left-to-right sums on every Python version (3.12's
    # sum() compensates built-in floats only)
    box = ((np.float64(x0), np.float64(x1)), (np.float64(y0), np.float64(y1)))
    return _adaptive(f, box, tol, order, max_panels)
