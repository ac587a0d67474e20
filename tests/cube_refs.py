"""Cube routines that only the tests call, moved out of ``stokeslab.dyadic`` verbatim.

``center``, ``corners``, ``diameter`` and ``subdivide`` were methods of
``DyadicCube``, ``cube_min_distance`` and ``cube_max_distance_bound`` methods
of ``ExceptionalSet``, and ``gauge_at`` was ``Gauge.__call__`` of
``stokeslab.cousin``; each keeps its body, with its object as the first
argument ``self``.  ``neighborhood_indicator`` was a function of the module.
The package works on cube and point arrays (``dyadic.refine``,
``ExceptionalSet.cube_distances``, ``Gauge.many``), and the tests use these
one-object versions as references.
"""

import math

import numpy as np

from stokeslab.cousin import Gauge
from stokeslab.dyadic import MAX_GENERATION, DepthError, DyadicCube, ExceptionalSet


def center(self: DyadicCube) -> np.ndarray:
    lo, hi = self.bounds()
    return 0.5 * (lo + hi)


def corners(self: DyadicCube) -> np.ndarray:
    lo, hi = self.bounds()
    m = self.m
    pts = np.empty((1 << m, m))
    for mask in range(1 << m):
        for d in range(m):
            pts[mask, d] = hi[d] if (mask >> d) & 1 else lo[d]
    return pts


def diameter(self: DyadicCube) -> float:
    return self.side * math.sqrt(self.m)


def subdivide(self: DyadicCube, max_generation: int = MAX_GENERATION) -> list[DyadicCube]:
    """The 2^m children, one generation deeper."""
    if self.generation + 1 > max_generation:
        raise DepthError(
            f"cube at generation {self.generation} (index {self.index}) cannot be "
            f"subdivided past generation {max_generation}"
        )
    children = []
    base = tuple(2 * i for i in self.index)
    for mask in range(1 << self.m):
        idx = tuple(base[d] + ((mask >> d) & 1) for d in range(self.m))
        children.append(DyadicCube(self.root, self.generation + 1, idx))
    return children


def cube_min_distance(self: ExceptionalSet, cube: DyadicCube) -> float:
    """Exact min over the closed cube of the distance to the set."""
    return float(self.cube_distances(*(b[None] for b in cube.bounds()))[0][0])


def cube_max_distance_bound(self: ExceptionalSet, cube: DyadicCube) -> float:
    """Upper bound for max over the cube of the distance (min over elements)."""
    return float(self.cube_distances(*(b[None] for b in cube.bounds()))[1][0])


def neighborhood_indicator(E: ExceptionalSet, r: float, x) -> bool:
    """True iff x lies in the open r-neighbourhood of E."""
    if r <= 0:
        raise ValueError("neighbourhood radius must be positive")
    return E.distance(x) < r


def gauge_at(self: Gauge, x) -> float:
    return float(self.many(np.asarray(x, dtype=float)[None])[0])
