"""Adaptive Gauss-Legendre quadrature with certified absolute errors.

Integrands receive numpy arrays of sample points and must return arrays of
values.  Panel errors are estimated by comparing each panel against its
refinement into halves (1-D) or quadrants (2-D); panels with the largest
estimated error are split first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "integrate_1d", "integrate_2d", "gauss_rule"]


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met."""


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with a certified absolute error bound."""

    value: float
    error: float
    panels: int

    def __float__(self):
        return self.value


@lru_cache(maxsize=None)
def gauss_rule(order: int):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_1d(f, a, b, nodes, weights):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(weights, f(mid + half * nodes)))


def integrate_1d(f, a: float, b: float, tol: float = 1e-10, order: int = 12,
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


def integrate_2d(f, x0: float, x1: float, y0: float, y1: float, tol: float = 1e-10,
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

