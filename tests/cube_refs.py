"""Cube routines that only the tests call, moved out of the package verbatim.

``DyadicCube`` was the one-cube class of ``stokeslab.dyadic``, and
``cube_set`` and ``cubes_of`` were the object constructor ``CubeSet(root,
cubes)`` and the ``CubeSet.cubes`` view there.  ``center``, ``corners``,
``diameter`` and ``subdivide`` were methods of ``DyadicCube``,
``cube_min_distance`` and ``cube_max_distance_bound`` methods of
``ExceptionalSet``, and ``gauge_at`` was ``Gauge.__call__`` of
``stokeslab.cousin``; each keeps its body, with its object as the first
argument ``self``.  ``neighborhood_indicator`` was a function of the module,
and ``cousin_decompose`` the one-cube twin of ``cousin.gauge_decompose``.
The package works on cube and point arrays (``CubeSet.of``, ``dyadic.refine``,
``ExceptionalSet.cube_distances``, ``Gauge.many``), and the tests use these
one-object versions as references.
"""

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from stokeslab.cousin import MAX_PIECES, Gauge, RegularityFn, TaggedFamily, _cube_table
from stokeslab.currents import TopDimCurrent
from stokeslab.dyadic import (MAX_GENERATION, CubeSet, DepthError, ExceptionalSet, GridError,
                              RootBox, _canonicalize)


@dataclass(frozen=True)
class DyadicCube:
    """Cube of side root.side * 2^-generation at integer corner coordinates."""

    root: RootBox
    generation: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.generation < 0:
            raise ValueError("generation must be nonnegative")
        object.__setattr__(self, "index", tuple(int(i) for i in self.index))
        if len(self.index) != self.root.m:
            raise ValueError("index arity does not match the root dimension")
        top = 1 << self.generation
        if any(not 0 <= i < top for i in self.index):
            raise ValueError(f"index {self.index} outside the root box at generation {self.generation}")

    @property
    def m(self) -> int:
        return self.root.m

    @property
    def side(self) -> float:
        return self.root.side * 2.0 ** (-self.generation)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        s = self.side
        lo = np.asarray(self.root.corner) + s * np.asarray(self.index, dtype=float)
        return lo, lo + s

    def measure(self) -> float:
        return self.side ** self.m

    def ancestor_key(self, generation: int) -> tuple:
        shift = self.generation - generation
        return (generation, tuple(i >> shift for i in self.index))

    def key(self) -> tuple:
        return (self.generation, self.index)


def cube_set(root: RootBox, cubes: Iterable[DyadicCube] = ()) -> CubeSet:
    """The set of DyadicCube objects: the object constructor ``CubeSet(root, cubes)``."""
    self = CubeSet.__new__(CubeSet)
    cubes = tuple(cubes)
    if any(q.root != root for q in cubes):
        raise GridError("all cubes of a CubeSet must share the root box")
    object.__setattr__(self, "root", root)
    object.__setattr__(self, "arrays", _canonicalize(
        root.m, [q.generation for q in cubes], [q.index for q in cubes]))
    return self


def cubes_of(self: CubeSet) -> tuple[DyadicCube, ...]:
    """The cubes as DyadicCube objects, in canonical order: the ``CubeSet.cubes`` view."""
    return tuple(DyadicCube(self.root, g, tuple(i))
                 for g, i in zip(*(a.tolist() for a in self.arrays)))


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


def cousin_decompose(domain: DyadicCube, delta: Gauge, eta: float,
                     max_generation: int = 40, theta: int = 1) -> TaggedFamily:
    """Tagged dyadic tiling of a cube: every piece is delta-fine at its tag.

    The gauge must be positive on the closed cube; eta must stay below the
    cube regularity 0.5 * m^(-3/2).  The family tiles the cube exactly, so
    the remainder is zero for every functional.
    """
    region = CubeSet.of(domain.root, [domain.generation], [domain.index])
    table = _cube_table(domain.root, *region.arrays, delta, RegularityFn.constant(eta), theta,
                        max_generation, MAX_PIECES)
    parent = TopDimCurrent(region, theta)
    return TaggedFamily(parent, table, (), 0.0, "mass", 0.0)
