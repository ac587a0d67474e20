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
    "MAX_REFINE_CUBES",
    "cubes_payload",
    "refine",
]

MAX_GENERATION = 40
# cubes one round of ``refine`` may hold: more than 100 times any round that a
# workload, demo or test builds (13,096 cubes), and a few hundred MiB of arrays
MAX_REFINE_CUBES = 1 << 21


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

    def bounds(self, gen: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners (n, m) of cubes (generation, index): DyadicCube.bounds."""
        side = np.ldexp(self.side, -gen)[:, None]
        lo = np.asarray(self.corner) + side * index
        return lo, lo + side

    def measures(self, gen: np.ndarray) -> list[float]:
        """DyadicCube.measure of each cube of these generations, as Python floats."""
        table = [(self.side * 2.0 ** (-g)) ** self.m for g in range(int(gen.max(initial=0)) + 1)]
        return [table[g] for g in gen.tolist()]


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


def cubes_payload(corner, side, gens: list[int], indices: list[list[int]]) -> dict:
    """The cubes (generation, index) of a root box as plain JSON values: CubeSet.payload."""
    return {
        "root": {"corner": list(corner), "side": side},
        "cubes": [{"generation": g, "corner": i} for g, i in zip(gens, indices)],
    }


def _canonicalize(root: RootBox, cubes: Iterable[DyadicCube]) -> tuple[DyadicCube, ...]:
    cubes = tuple(cubes)
    if any(q.root != root for q in cubes):
        raise GridError("all cubes of a CubeSet must share the root box")
    if len(cubes) < 2:
        return cubes
    gen = np.array([q.generation for q in cubes], dtype=np.int64)
    index = np.array([q.index for q in cubes], dtype=np.int64)
    # one cube per key, and none covered by an ancestor in the set
    keys, first = np.unique(_keys(gen, index), return_index=True)
    rows = first[~_inside(gen[first], index[first], keys)]
    cubes, gen, index = [cubes[i] for i in rows.tolist()], gen[rows], index[rows]
    # merge complete sibling groups into their parents, until none is left
    while True:
        _, group, size = np.unique(_keys(gen - 1, index >> 1), return_inverse=True,
                                   return_counts=True)
        full = size[group] == 1 << root.m
        if not full.any():
            break
        lead = full & ~(index & 1).any(axis=1)  # the first child stands for the parent
        gen[lead], index[lead] = gen[lead] - 1, index[lead] >> 1
        for k in np.flatnonzero(lead).tolist():
            cubes[k] = DyadicCube(root, int(gen[k]), tuple(index[k].tolist()))
        keep = np.flatnonzero(~full | lead)
        cubes, gen, index = [cubes[i] for i in keep.tolist()], gen[keep], index[keep]
    return tuple(cubes[i] for i in np.lexsort((*index.T[::-1], gen)).tolist())


def refine(root: RootBox, gen: np.ndarray, index: np.ndarray, side, done,
           max_generation: int):
    """File cubes of ``root`` as kept, dropped or straddling, and split the straddlers.

    Cubes go in and come out as a pair of arrays, generations (n,) and
    indices (n, m).  ``side(gen, index)`` is 1 for each cube to keep,
    -1 for each to drop and 0 for each that straddles.  Each round splits
    every straddler into its 2^m children, until no straddler is left,
    ``done(gen, index)`` holds for the straddlers or one of them has reached
    ``max_generation``.  Returns ``(kept_gen, kept_index, gen, index)``: the
    cubes kept in every round and the straddlers of the last round; the caller
    decides what a cap means.  A round that would hold more than
    ``MAX_REFINE_CUBES`` cubes raises ``DepthError`` before it is built.
    """
    m = root.m
    masks = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    kept = [(gen[:0], index[:0])]
    while True:
        s = side(gen, index)
        kept.append((gen[s > 0], index[s > 0]))
        gen, index = gen[s == 0], index[s == 0]
        if not len(gen) or (done is not None and done(gen, index)) \
                or gen.max() >= max_generation:
            return (*(np.concatenate(part) for part in zip(*kept)), gen, index)
        if len(gen) << m > MAX_REFINE_CUBES:
            raise DepthError(
                f"refinement needs {len(gen) << m} cubes at generation {int(gen.max()) + 1}, "
                f"over the cap of {MAX_REFINE_CUBES}"
            )
        gen = np.repeat(gen + 1, 1 << m)
        index = (2 * index[:, None, :] + masks).reshape(-1, m)


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

    @classmethod
    def of(cls, root: RootBox, gen: np.ndarray, index: np.ndarray) -> "CubeSet":
        """The set of the cubes (generation, index) of root."""
        return cls(root, tuple(DyadicCube(root, g, tuple(i))
                               for g, i in zip(gen.tolist(), index.tolist())))

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Generations (n,) and indices (n, m) of the cubes, as int64 arrays."""
        return (np.array([q.generation for q in self.cubes], dtype=np.int64),
                np.array([q.index for q in self.cubes], dtype=np.int64).reshape(-1, self.m))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners (n, m) of the cubes, the bits of DyadicCube.bounds."""
        return self.root.bounds(*self.arrays)

    @property
    def m(self) -> int:
        return self.root.m

    def is_empty(self) -> bool:
        return not self.cubes

    # -- exact scalar geometry ------------------------------------------------

    def measure(self) -> float:
        """The exact fsum of the cubes' DyadicCube.measure, from the generation table."""
        return math.fsum(self.root.measures(self.arrays[0]))

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
        return bool(self.contains_many(np.asarray(point, dtype=float)[None])[0])

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
        # the cubes of each set inside a cube of the other, in this order
        picked = (q for cubes, keys in ((other.cubes, mine), (self.cubes, theirs)) for q in cubes
                  if any(q.ancestor_key(g) in keys for g in range(q.generation + 1)))
        return CubeSet(self.root, tuple(picked))

    def difference(self, other: "CubeSet") -> "CubeSet":
        """Set difference in O((|self| + 2^m |other|) * G), G the finest generation."""
        self._check_grid(other)
        removed = _keys(*other.arrays)
        # a kept cube must split iff some removed cube lies strictly inside it
        split = np.unique(_ancestors(*other.arrays)[1])

        def side(gen, index):
            key = _keys(gen, index)
            return np.where(np.isin(key, removed), -1, np.where(np.isin(key, split), 0, 1))

        gen, index = self.arrays
        free = ~_inside(gen, index, removed)  # the cubes no removed cube contains
        # a straddler has a removed cube strictly inside, so it never reaches the cap
        kept = refine(self.root, gen[free], index[free], side, None, MAX_GENERATION)
        return CubeSet.of(self.root, *kept[:2])

    def restrict_half_space(self, axis: int, threshold: float, keep_below: bool,
                            max_generation: int = MAX_GENERATION) -> "CubeSet":
        """Intersection with {x_axis <= threshold} (or >=); threshold must be dyadic."""
        sign = 1 if keep_below else -1

        def cut(root: RootBox, a: int):
            def side(gen, index):
                lo, hi = root.bounds(gen, index)
                return np.where(hi[:, a] <= threshold, sign,
                                np.where(lo[:, a] >= threshold, -sign, 0))
            return side

        # Whether a cube straddles depends on its extent along the axis alone, so
        # the shadows of the cubes on that axis reach the cap iff the cubes do;
        # they do so in O(|self| * max_generation) work, where the cubes would
        # multiply by 2^(m-1) a generation before an off-grid threshold is found.
        line = RootBox((self.root.corner[axis],), self.root.side)
        gen, index = self.arrays
        shadows = np.unique(np.column_stack([gen, index[:, axis]]), axis=0)
        off_grid = refine(line, shadows[:, 0], shadows[:, 1:], cut(line, 0), None,
                          max_generation)[2]
        if len(off_grid):
            raise GridError(
                f"threshold {threshold} is not aligned with the dyadic grid "
                f"within generation {max_generation}"
            )
        kept = refine(self.root, gen, index, cut(self.root, axis), None, max_generation)
        return CubeSet.of(self.root, *kept[:2])

    def _check_grid(self, other: "CubeSet"):
        if self.root != other.root:
            raise GridError("cube sets live on different root boxes")

    # -- serialization ----------------------------------------------------------

    def payload(self) -> dict:
        """The set as plain JSON values: what to_json writes and descriptors embed."""
        return cubes_payload(self.root.corner, self.root.side, *(a.tolist() for a in self.arrays))

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


def _keys(gen: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Each cube (generation, index) as one opaque value, equal iff the cubes are."""
    rows = np.ascontiguousarray(np.column_stack([gen, index]), dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _ancestors(gen: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cube and the key of every proper ancestor of each cube (generation, index)."""
    owner = np.repeat(np.arange(len(gen)), gen)
    up = np.arange(len(owner)) - np.repeat(np.cumsum(gen) - gen, gen)
    return owner, _keys(up, index[owner] >> (gen[owner] - up)[:, None])


def _inside(gen: np.ndarray, index: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each cube (generation, index) has a proper ancestor among the keys."""
    owner, up = _ancestors(gen, index)
    return np.bincount(owner[np.isin(up, keys)], minlength=len(gen)) > 0


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

    def cube_distances(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distances of n closed boxes (lo, hi), each (n, m), to the set.

        Returns the exact min over each box of the distance, and an upper
        bound for its max (the min over the elements of each element's
        farthest distance); every row has the bits of a one-box call.
        """
        nearest = self._nearest(
            len(lo), lambda elo, ehi: np.maximum(elo - hi, 0.0) + np.maximum(lo - ehi, 0.0))
        farthest = self._nearest(
            len(lo), lambda elo, ehi: np.maximum(np.maximum(elo - lo, hi - ehi), 0.0))
        return nearest, farthest

    def cube_min_distance(self, cube: DyadicCube) -> float:
        """Exact min over the closed cube of the distance to the set."""
        return float(self.cube_distances(*(b[None] for b in cube.bounds()))[0][0])

    def cube_max_distance_bound(self, cube: DyadicCube) -> float:
        """Upper bound for max over the cube of the distance (min over elements)."""
        return float(self.cube_distances(*(b[None] for b in cube.bounds()))[1][0])


def neighborhood_indicator(E: ExceptionalSet, r: float, x) -> bool:
    """True iff x lies in the open r-neighbourhood of E."""
    if r <= 0:
        raise ValueError("neighbourhood radius must be positive")
    return E.distance(x) < r
