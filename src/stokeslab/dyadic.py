"""Dyadic cubes and finite cube complexes in R^m (m = 1, 2, 3).

A CubeSet is the computable stand-in for a bounded set of finite perimeter:
measure, perimeter and diameter are exact, every set is closed, and set
operations (union, difference, intersection, half-space cuts) stay inside
the class because two dyadic cubes on a common root box are either nested
or have disjoint interiors.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RootBox",
    "DyadicCube",
    "CubeSet",
    "ExceptionalSet",
    "DepthError",
    "GridError",
    "MAX_GENERATION",
    "refine",
]

MAX_GENERATION = 40


class DepthError(RuntimeError):
    """Subdivision descended past the configured maximum generation."""


class GridError(ValueError):
    """Operands do not live on a common dyadic grid."""


@dataclass(frozen=True)
class RootBox:
    """The reference cube: corner plus positive side length."""

    corner: tuple[float, ...]
    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("root box side must be positive")
        object.__setattr__(self, "corner", tuple(float(c) for c in self.corner))

    @property
    def m(self) -> int:
        return len(self.corner)


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

    def center(self) -> np.ndarray:
        lo, hi = self.bounds()
        return 0.5 * (lo + hi)

    def corners(self) -> np.ndarray:
        lo, hi = self.bounds()
        m = self.m
        pts = np.empty((1 << m, m))
        for mask in range(1 << m):
            for d in range(m):
                pts[mask, d] = hi[d] if (mask >> d) & 1 else lo[d]
        return pts

    def diameter(self) -> float:
        return self.side * math.sqrt(self.m)

    def measure(self) -> float:
        return self.side ** self.m

    def subdivide(self, max_generation: int = MAX_GENERATION) -> list["DyadicCube"]:
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

    def ancestor_key(self, generation: int) -> tuple:
        shift = self.generation - generation
        return (generation, tuple(i >> shift for i in self.index))

    def key(self) -> tuple:
        return (self.generation, self.index)


def _canonicalize(root: RootBox, cubes: Iterable[DyadicCube]) -> tuple[DyadicCube, ...]:
    seen: dict[tuple, DyadicCube] = {}
    for q in cubes:
        if q.root != root:
            raise GridError("all cubes of a CubeSet must share the root box")
        seen[q.key()] = q
    if len(seen) == 1:
        return tuple(seen.values())
    # drop any cube covered by an ancestor already in the set
    gens = sorted({g for g, _ in seen})
    kept: dict[tuple, DyadicCube] = {}
    for key in sorted(seen):
        q = seen[key]
        covered = any(
            g < q.generation and q.ancestor_key(g) in kept for g in gens if g < q.generation
        )
        if not covered:
            kept[key] = q
    # merge complete sibling groups into parents, deepest first
    changed = True
    while changed:
        changed = False
        by_parent: dict[tuple, list[DyadicCube]] = {}
        for q in kept.values():
            if q.generation == 0:
                continue
            by_parent.setdefault(q.ancestor_key(q.generation - 1), []).append(q)
        for pkey, group in by_parent.items():
            if len(group) == (1 << root.m):
                for q in group:
                    del kept[q.key()]
                g, idx = pkey
                kept[pkey] = DyadicCube(root, g, idx)
                changed = True
    return tuple(kept[k] for k in sorted(kept))


def refine(cubes: Iterable[DyadicCube], side, done, max_generation: int):
    """File each cube as kept, dropped or straddling, and split the straddlers.

    ``side(q)`` is 1 to keep q, -1 to drop it and 0 when it straddles.  Each
    round splits every straddler into its children, until no straddler is
    left, ``done(straddlers)`` holds or a straddler has reached
    ``max_generation``.  Returns ``(kept, straddlers)``: the cubes kept in
    every round, in the order filed, and the straddlers of the last round;
    the caller decides what a cap means.
    """
    kept: list[DyadicCube] = []
    pending = list(cubes)
    while True:
        straddlers = []
        for q in pending:
            s = side(q)
            if s > 0:
                kept.append(q)
            elif s == 0:
                straddlers.append(q)
        if (not straddlers or done(straddlers)
                or max(q.generation for q in straddlers) >= max_generation):
            return kept, straddlers
        pending = [c for q in straddlers for c in q.subdivide(max_generation)]


@dataclass(frozen=True)
class CubeSet:
    """Finite union of pairwise nonoverlapping dyadic cubes, in canonical form."""

    root: RootBox
    cubes: tuple[DyadicCube, ...]

    def __post_init__(self):
        object.__setattr__(self, "cubes", _canonicalize(self.root, self.cubes))

    @classmethod
    def whole(cls, root: RootBox) -> "CubeSet":
        return cls(root, (DyadicCube(root, 0, (0,) * root.m),))

    @classmethod
    def empty(cls, root: RootBox) -> "CubeSet":
        return cls(root, ())

    @property
    def m(self) -> int:
        return self.root.m

    def is_empty(self) -> bool:
        return not self.cubes

    # -- exact scalar geometry ------------------------------------------------

    def measure(self) -> float:
        return math.fsum(q.measure() for q in self.cubes)

    def diameter(self) -> float:
        if not self.cubes:
            raise ValueError("diameter of the empty set is undefined")
        if len(self.cubes) == 1:  # the pairwise maximum below, at opposite corners
            lo, hi = self.cubes[0].bounds()
            return float(np.sqrt(((hi - lo) ** 2).sum()))
        pts = np.unique(np.vstack([q.corners() for q in self.cubes]), axis=0)
        if self.m == 1:
            # sqrt(d * d) == |d| in IEEE arithmetic: the pairwise maximum below
            return float(np.ptp(pts))
        if len(pts) > 1500:
            from scipy.spatial import ConvexHull, QhullError

            try:
                pts = pts[ConvexHull(pts).vertices]
            except QhullError:
                pass
        diff = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((diff ** 2).sum(axis=2)).max())

    def _finest_generation(self) -> int:
        return max((q.generation for q in self.cubes), default=0)

    def _boundary_cells(self):
        """Uncancelled oriented facet pieces at integer coordinates of the finest generation.

        Yields (axis, coord, orientation, lo_tuple, hi_tuple) where the lo/hi
        tuples span the remaining m-1 axes; a facet shared by two cubes of the
        set cancels, and pieces of opposite orientation never overlap.
        """
        G = self._finest_generation()
        rests = [tuple(d for d in range(self.m) if d != axis) for axis in range(self.m)]
        groups: dict[tuple, tuple[list, list]] = {}
        for q in self.cubes:
            scale = 1 << (G - q.generation)
            lo = tuple(i * scale for i in q.index)
            hi = tuple(l + scale for l in lo)
            for axis, rest in enumerate(rests):
                facet = (q.generation, tuple(lo[d] for d in rest), tuple(hi[d] for d in rest))
                groups.setdefault((axis, lo[axis]), ([], []))[1].append(facet)
                groups.setdefault((axis, hi[axis]), ([], []))[0].append(facet)
        for (axis, coord), (plus, minus) in groups.items():
            for orient, own, other in ((+1, plus, minus), (-1, minus, plus)):
                if not (own and other):
                    # a line with one orientation only needs no index
                    for _, blo, bhi in own:
                        yield axis, coord, orient, blo, bhi
                    continue
                for (_, blo, bhi), boxes in zip(own, _overlapping_facets(own, other, G)):
                    pieces = _box_difference(blo, bhi, boxes) if boxes else ((blo, bhi),)
                    for piece_lo, piece_hi in pieces:
                        yield axis, coord, orient, piece_lo, piece_hi

    def perimeter(self) -> float:
        """Total boundary measure with shared facets cancelled; exact."""
        unit = self.root.side * 2.0 ** (-self._finest_generation())
        cells = sum(math.prod(b - a for a, b in zip(lo, hi))
                    for _, _, _, lo, hi in self._boundary_cells())
        return cells * unit ** (self.m - 1)

    def boundary_segments(self):
        """Uncancelled oriented boundary facets in real coordinates.

        Returns a list of (axis, coordinate, orientation, lo, hi) pieces where
        lo/hi bound the facet on the remaining axes; pieces from opposite
        orientations never overlap.  Only meaningful for m <= 2.
        """
        unit = self.root.side * 2.0 ** (-self._finest_generation())
        corner = np.asarray(self.root.corner)
        out = []
        for axis, coord, orient, piece_lo, piece_hi in self._boundary_cells():
            rest = [d for d in range(self.m) if d != axis]
            lo = [0.0] * self.m
            hi = [0.0] * self.m
            lo[axis] = hi[axis] = corner[axis] + coord * unit
            for j, d in enumerate(rest):
                lo[d] = corner[d] + piece_lo[j] * unit
                hi[d] = corner[d] + piece_hi[j] * unit
            out.append((axis, lo[axis], orient, tuple(lo), tuple(hi)))
        return out

    # -- membership and line queries -------------------------------------------

    def contains(self, point) -> bool:
        x = np.asarray(point, dtype=float)
        for q in self.cubes:
            lo, hi = q.bounds()
            if np.all(lo <= x) and np.all(x <= hi):
                return True
        return False

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(len(pts), dtype=bool)
        for q in self.cubes:
            lo, hi = q.bounds()
            out |= np.all((pts >= lo) & (pts <= hi), axis=1)
        return out

    def line_intersection_length(self, axis: int, coordinate: float, t0: float, t1: float) -> float:
        """Length of the axis-parallel segment portion inside the set (m = 2)."""
        if self.m != 2:
            raise GridError("line queries are only supported in the plane")
        other = 1 - axis
        intervals = []
        for q in self.cubes:
            lo, hi = q.bounds()
            if lo[other] <= coordinate <= hi[other]:
                a, b = max(t0, lo[axis]), min(t1, hi[axis])
                if a < b:
                    intervals.append((a, b))
        return _merged_length(intervals)

    # -- set algebra ------------------------------------------------------------

    def union(self, other: "CubeSet") -> "CubeSet":
        self._check_grid(other)
        return CubeSet(self.root, self.cubes + other.cubes)

    def intersection(self, other: "CubeSet") -> "CubeSet":
        self._check_grid(other)
        mine = {q.key() for q in self.cubes}
        theirs = {q.key() for q in other.cubes}
        picked = []
        for q in other.cubes:
            if any(q.ancestor_key(g) in mine for g in range(q.generation + 1)):
                picked.append(q)
        for q in self.cubes:
            if any(q.ancestor_key(g) in theirs for g in range(q.generation + 1)):
                picked.append(q)
        return CubeSet(self.root, tuple(picked))

    def difference(self, other: "CubeSet") -> "CubeSet":
        """Set difference in O((|self| + 2^m |other|) * G), G the finest generation."""
        self._check_grid(other)
        removed = {q.key() for q in other.cubes}
        # a kept cube must split iff some removed cube lies strictly inside it
        split = {q.ancestor_key(g) for q in other.cubes for g in range(q.generation)}

        def side(q: DyadicCube) -> int:
            key = q.key()
            return -1 if key in removed else 0 if key in split else 1

        # a straddler has a removed cube strictly inside, so it never reaches the cap
        kept, _ = refine(
            (q for q in self.cubes
             if not any(q.ancestor_key(g) in removed for g in range(q.generation))),
            side, lambda straddlers: False, MAX_GENERATION)
        return CubeSet(self.root, tuple(kept))

    def restrict_half_space(self, axis: int, threshold: float, keep_below: bool,
                            max_generation: int = MAX_GENERATION) -> "CubeSet":
        """Intersection with {x_axis <= threshold} (or >=); threshold must be dyadic."""
        sign = 1 if keep_below else -1

        def cut(a: int):
            def side(q: DyadicCube) -> int:
                lo, hi = q.bounds()
                return sign if hi[a] <= threshold else -sign if lo[a] >= threshold else 0
            return side

        # Whether a cube straddles depends on its extent along the axis alone, so
        # the shadows of the cubes on that axis reach the cap iff the cubes do;
        # they do so in O(|self| * max_generation) work, where the cubes would
        # multiply by 2^(m-1) a generation before an off-grid threshold is found.
        line = RootBox((self.root.corner[axis],), self.root.side)
        shadows = {DyadicCube(line, q.generation, (q.index[axis],)) for q in self.cubes}
        _, off_grid = refine(shadows, cut(0), lambda straddlers: False, max_generation)
        if off_grid:
            raise GridError(
                f"threshold {threshold} is not aligned with the dyadic grid "
                f"within generation {max_generation}"
            )
        kept, _ = refine(self.cubes, cut(axis), lambda straddlers: False, max_generation)
        return CubeSet(self.root, tuple(kept))

    def _check_grid(self, other: "CubeSet"):
        if self.root != other.root:
            raise GridError("cube sets live on different root boxes")

    # -- serialization ----------------------------------------------------------

    def payload(self) -> dict:
        """The set as plain JSON values: what to_json writes and descriptors embed."""
        return {
            "root": {"corner": list(self.root.corner), "side": self.root.side},
            "cubes": [{"generation": q.generation, "corner": list(q.index)} for q in self.cubes],
        }

    def to_json(self) -> str:
        return json.dumps(self.payload())

    @classmethod
    def from_json(cls, text: str) -> "CubeSet":
        payload = json.loads(text)
        root = RootBox(tuple(payload["root"]["corner"]), payload["root"]["side"])
        cubes = tuple(
            DyadicCube(root, entry["generation"], tuple(entry["corner"]))
            for entry in payload["cubes"]
        )
        return cls(root, cubes)


def _merged_length(intervals: Sequence[tuple[float, float]]) -> float:
    if not intervals:
        return 0.0
    ordered = sorted(intervals)
    total = 0.0
    cur_a, cur_b = ordered[0]
    for a, b in ordered[1:]:
        if a > cur_b:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    return total + (cur_b - cur_a)


def _overlapping_facets(own, other, G: int) -> list[list[tuple]]:
    """For each facet of ``own``, the boxes of the facets of ``other`` that overlap it.

    Facets are (generation, lo, hi) dyadic cells of one line, at the integer
    coordinates of generation G.  Cells are nested or disjoint, so the facets
    overlapping a cell are the one cell of ``other`` that equals or contains
    it, found by exact-cell lookups of its ancestors, or the cells of
    ``other`` inside it, filed under their ancestor at each generation of
    ``own``.  The boxes come in the order of ``other``.
    """
    def cell(h: int, lo: tuple) -> tuple:
        return h, tuple(l >> (G - h) for l in lo)

    cells = {cell(g, lo): j for j, (g, lo, _) in enumerate(other)}
    other_gens = {g for g, _, _ in other}
    own_gens = {g for g, _, _ in own}
    inside: dict[tuple, list[int]] = {}
    for j, (g, lo, _) in enumerate(other):
        for h in own_gens:
            if h < g:
                inside.setdefault(cell(h, lo), []).append(j)
    out = []
    for g, lo, _ in own:
        hits = [j for j in (cells.get(cell(h, lo)) for h in other_gens if h <= g)
                if j is not None]
        out.append([other[j][1:] for j in sorted(hits + inside.get(cell(g, lo), []))])
    return out


def _box_difference(lo, hi, others):
    """Integer box minus a list of integer boxes, as a list of disjoint boxes."""
    pieces = [(tuple(lo), tuple(hi))]
    for olo, ohi in others:
        nxt = []
        for plo, phi in pieces:
            if not (all(map(operator.lt, olo, phi)) and all(map(operator.lt, plo, ohi))):
                nxt.append((plo, phi))
                continue
            cur_lo, cur_hi = list(plo), list(phi)
            for d in range(len(plo)):
                if cur_lo[d] < olo[d]:
                    a, b = list(cur_lo), list(cur_hi)
                    b[d] = olo[d]
                    nxt.append((tuple(a), tuple(b)))
                    cur_lo[d] = olo[d]
                if cur_hi[d] > ohi[d]:
                    a, b = list(cur_lo), list(cur_hi)
                    a[d] = ohi[d]
                    nxt.append((tuple(a), tuple(b)))
                    cur_hi[d] = ohi[d]
        pieces = nxt
    return [(lo_, hi_) for lo_, hi_ in pieces if all(a < b for a, b in zip(lo_, hi_))]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceptionalSet:
    """Finite union of points and axis-aligned boxes with exact distances.

    Each element is a pair (lo, hi) of equal-length tuples; degenerate axes
    (lo == hi) give points and segments.  The distance evaluator is
    1-Lipschitz, and by construction the set is H^{m-1} sigma-finite for the
    element shapes used throughout (points, segments, thin boxes).
    """

    elements: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]

    def __post_init__(self):
        elems = []
        for lo, hi in self.elements:
            lo = tuple(float(v) for v in lo)
            hi = tuple(float(v) for v in hi)
            if len(lo) != len(hi):
                raise ValueError("element lo/hi arity mismatch")
            if any(a > b for a, b in zip(lo, hi)):
                raise ValueError("element has lo > hi")
            elems.append((lo, hi))
        object.__setattr__(self, "elements", tuple(elems))

    @classmethod
    def empty(cls) -> "ExceptionalSet":
        return cls(())

    @classmethod
    def points(cls, pts) -> "ExceptionalSet":
        return cls(tuple((tuple(p), tuple(p)) for p in pts))

    @classmethod
    def segment(cls, p0, p1) -> "ExceptionalSet":
        p0, p1 = tuple(map(float, p0)), tuple(map(float, p1))
        moving = [d for d in range(len(p0)) if p0[d] != p1[d]]
        if len(moving) > 1:
            raise ValueError("segments must be axis-aligned")
        lo = tuple(min(a, b) for a, b in zip(p0, p1))
        hi = tuple(max(a, b) for a, b in zip(p0, p1))
        return cls(((lo, hi),))

    @classmethod
    def box(cls, lo, hi) -> "ExceptionalSet":
        return cls(((tuple(lo), tuple(hi)),))

    def union(self, other: "ExceptionalSet") -> "ExceptionalSet":
        return ExceptionalSet(self.elements + other.elements)

    def is_empty(self) -> bool:
        return not self.elements

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper element corners as (k, 1, m) arrays, against rows of points."""
        lo = np.array([lo for lo, _ in self.elements], dtype=float)
        hi = np.array([hi for _, hi in self.elements], dtype=float)
        return lo[:, None, :], hi[:, None, :]

    def _nearest(self, n: int, dev) -> np.ndarray:
        """Row-wise min over the elements of |dev(lo, hi)|, where dev gives n rows.

        The one distance evaluator of the set: sqrt(vecdot) reproduces the bits
        of np.linalg.norm on each row, so a point gets the same distance alone
        and in a batch.
        """
        if not self.elements:
            return np.full(n, np.inf)
        d = dev(*self._bounds)
        return np.sqrt(np.vecdot(d, d)).min(axis=0)

    def distance(self, point) -> float:
        return float(self.distance_many(np.asarray(point, dtype=float)[None])[0])

    def distance_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self._nearest(
            len(pts), lambda lo, hi: np.maximum(lo - pts, 0.0) + np.maximum(pts - hi, 0.0))

    def cube_min_distance(self, cube: DyadicCube) -> float:
        """Exact min over the closed cube of the distance to the set."""
        lo, hi = cube.bounds()
        return float(self._nearest(
            1, lambda elo, ehi: np.maximum(elo - hi, 0.0) + np.maximum(lo - ehi, 0.0))[0])

    def cube_max_distance_bound(self, cube: DyadicCube) -> float:
        """Upper bound for max over the cube of the distance (min over elements)."""
        lo, hi = cube.bounds()
        return float(self._nearest(
            1, lambda elo, ehi: np.maximum(np.maximum(elo - lo, hi - ehi), 0.0))[0])


def neighborhood_indicator(E: ExceptionalSet, r: float, x) -> bool:
    """True iff x lies in the open r-neighbourhood of E."""
    if r <= 0:
        raise ValueError("neighbourhood radius must be positive")
    return E.distance(x) < r
