"""Dyadic cubes and finite cube complexes in R^m (m = 1, 2, 3).

A CubeSet is the computable stand-in for a bounded set of finite perimeter:
measure, perimeter and diameter are exact, every set is closed, and set
operations (union, difference, intersection, half-space cuts) stay inside
the class because two dyadic cubes on a common root box are either nested
or have disjoint interiors.

A CubeSet is its root box and canonical arrays: int64 generations (n,) and
indices (n, m), without repeats, covered cubes or full sibling groups, sorted
by generation, then index.  The boundary comes from them by one refinement
over facets, and ``CubeSet.cubes`` is a DyadicCube view built when first read.
"""

from __future__ import annotations

import json
import math
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

    def measure(self) -> float:
        return self.side ** self.m

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


def _canonicalize(m: int, gen: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical arrays of the cubes (generation, index) of a root box of dimension m."""
    gen = np.array(gen, dtype=np.int64).reshape(-1)
    index = np.array(index, dtype=np.int64).reshape(len(gen), m)
    if len(gen) > 1:
        # one cube per key, and none covered by an ancestor in the set
        keys, first = np.unique(_keys(gen, index), return_index=True)
        rows = first[~_inside(gen[first], index[first], keys)]
        gen, index = gen[rows], index[rows]
        # merge complete sibling groups into their parents, until none is left
        while True:
            _, group, size = np.unique(_keys(gen - 1, index >> 1), return_inverse=True,
                                       return_counts=True)
            full = size[group] == 1 << m
            if not full.any():
                break
            lead = full & ~(index & 1).any(axis=1)  # the first child stands for the parent
            gen[lead], index[lead] = gen[lead] - 1, index[lead] >> 1
            keep = np.flatnonzero(~full | lead)
            gen, index = gen[keep], index[keep]
        order = np.lexsort((*index.T[::-1], gen))
        gen, index = gen[order], index[order]
    gen.flags.writeable = index.flags.writeable = False
    return gen, index


def _check_cubes(m: int, gen: np.ndarray, index: np.ndarray):
    """Raise DyadicCube's ValueError for the first cube (generation, index) it would refuse."""
    negative, arity = gen < 0, index.shape[1] == m
    outside = (index < 0).any(axis=1) | (index >> np.maximum(gen, 0)[:, None] != 0).any(axis=1)
    for k in np.flatnonzero(negative | (not arity) | outside)[:1].tolist():
        if negative[k] or not arity:
            raise ValueError("generation must be nonnegative" if negative[k]
                             else "index arity does not match the root dimension")
        raise ValueError(f"index {tuple(index[k].tolist())} outside the root box "
                         f"at generation {int(gen[k])}")


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


@dataclass(frozen=True, init=False, eq=False)
class CubeSet:
    """Finite union of pairwise nonoverlapping dyadic cubes, held as its canonical arrays.

    Built from DyadicCube objects, ``CubeSet(root, cubes)``, or from arrays,
    ``CubeSet.of(root, gen, index)``; equal iff the roots and canonical cubes are.
    """

    root: RootBox
    arrays: tuple[np.ndarray, np.ndarray]

    def __init__(self, root: RootBox, cubes: Iterable[DyadicCube] = ()):
        cubes = tuple(cubes)
        if any(q.root != root for q in cubes):
            raise GridError("all cubes of a CubeSet must share the root box")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "arrays", _canonicalize(
            root.m, [q.generation for q in cubes], [q.index for q in cubes]))

    @classmethod
    def whole(cls, root: RootBox) -> "CubeSet":
        return cls.of(root, [0], [(0,) * root.m])

    @classmethod
    def empty(cls, root: RootBox) -> "CubeSet":
        return cls(root)

    @classmethod
    def of(cls, root: RootBox, gen: np.ndarray, index: np.ndarray) -> "CubeSet":
        """The set of the cubes (generation, index) of root, checked as DyadicCube checks one."""
        try:
            gen = np.asarray(gen, dtype=np.int64).reshape(-1)
            index = np.asarray(index, dtype=np.int64).reshape(len(gen), -1 if len(gen) else root.m)
        except OverflowError:
            big = max((v for a in (gen, index) for v in np.array(a, dtype=object).flat), key=abs)
            raise ValueError(f"cube generation or index {big} does not fit in int64") from None
        _check_cubes(root.m, gen, index)
        out = cls.__new__(cls)
        object.__setattr__(out, "root", root)
        object.__setattr__(out, "arrays", _canonicalize(root.m, gen, index))
        return out

    def __eq__(self, other):
        if not isinstance(other, CubeSet):
            return NotImplemented
        return self.root == other.root and all(
            np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays))

    def __hash__(self):
        return hash((self.root, *(a.tobytes() for a in self.arrays)))

    @cached_property
    def cubes(self) -> tuple[DyadicCube, ...]:
        """The cubes as DyadicCube objects, in canonical order: a view built when first read."""
        return tuple(DyadicCube(self.root, g, tuple(i))
                     for g, i in zip(*(a.tolist() for a in self.arrays)))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners (n, m) of the cubes, the bits of DyadicCube.bounds."""
        return self.root.bounds(*self.arrays)

    @property
    def m(self) -> int:
        return self.root.m

    def is_empty(self) -> bool:
        return not len(self.arrays[0])

    # -- exact scalar geometry ------------------------------------------------

    def measure(self) -> float:
        """The exact fsum of the cubes' DyadicCube.measure, from the generation table."""
        return math.fsum(self.root.measures(self.arrays[0]))

    def diameter(self) -> float:
        if self.is_empty():
            raise ValueError("diameter of the empty set is undefined")
        lo, hi = self.bounds()
        if len(lo) == 1:  # the pairwise maximum below, at opposite corners
            return float(np.sqrt(((hi[0] - lo[0]) ** 2).sum()))
        pts = np.unique(_corners(lo, hi).reshape(-1, self.m), axis=0)
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

    def _boundary_facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The uncancelled facet pieces (axis, orientation, generation, index) as arrays.

        A piece is the face of the cube (generation, index) on its high
        (orientation +1) or low (-1) side along the axis; each cube of the set
        starts with its 2m faces, low then high, axis by axis.  The cell across
        a piece decides it: a piece is dropped when that cell is in the set or
        inside a set cube, kept when it lies outside the root box or holds no
        set cube, and otherwise split into its 2^(m-1) children on the face.
        The pieces are pairwise disjoint and come in rounds of generation.
        """
        m, (gen, index) = self.m, self.arrays
        keys, split = _keys(gen, index), np.unique(_ancestors(gen, index)[1])
        masks = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        # faces[axis, high]: the masks of the children on that face
        faces = np.array([[masks[masks[:, a] == h] for h in (0, 1)] for a in range(m)])
        axis = np.tile(np.repeat(np.arange(m), 2), len(gen))
        orient = np.tile([-1, 1], m * len(gen))
        gen, index = np.repeat(gen, 2 * m), np.repeat(index, 2 * m, axis=0)
        kept = []
        while True:
            across = index.copy()
            across[np.arange(len(gen)), axis] += orient
            key = _keys(gen, across)
            # a split cell holds a set cube, so no set cube holds its children: only
            # a cell across a face of a set cube itself can lie inside one
            drop = np.isin(key, keys) | (not kept and _inside(gen, across, keys))
            # a cell outside the root box matches no key of the set
            go = ~drop & np.isin(key, split)
            keep = ~drop & ~go
            kept.append((axis[keep], orient[keep], gen[keep], index[keep]))
            if not go.any():
                return tuple(np.concatenate(part) for part in zip(*kept))
            children = faces[axis[go], (orient[go] > 0).astype(int)]
            index = (2 * index[go, None, :] + children).reshape(-1, m)
            axis, orient, gen = (np.repeat(a[go], 1 << (m - 1)) for a in (axis, orient, gen + 1))

    def perimeter(self) -> float:
        """Total boundary measure with shared facets cancelled; exact."""
        m, G = self.m, int(self.arrays[0].max(initial=0))
        gens, counts = np.unique(self._boundary_facets()[2], return_counts=True)
        cells = sum(c << ((G - g) * (m - 1)) for g, c in zip(gens.tolist(), counts.tolist()))
        return cells * (self.root.side * 2.0 ** (-G)) ** (m - 1)

    def boundary_facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The uncancelled boundary facets as arrays (axis, orientation, lo, hi), pairwise disjoint.

        Facet k is the box [lo[k], hi[k]] (E, m) flat on its axis, with outward
        normal orientation[k] = +1 or -1 along it, in ``_boundary_facets`` order.
        """
        axis, orient, gen, index = self._boundary_facets()
        rows, hi = np.arange(len(gen)), index + 1
        # on the axis both corners take the face's coordinate, the cell's high side
        # on a high face and its low side on a low one
        index[rows, axis] = hi[rows, axis] = index[rows, axis] + (orient > 0)
        return axis, orient, self.root.bounds(gen, index)[0], self.root.bounds(gen, hi)[0]

    # -- membership and line queries -------------------------------------------

    def contains(self, point) -> bool:
        return bool(self.contains_many(np.asarray(point, dtype=float)[None])[0])

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(len(pts), dtype=bool)
        for lo, hi in zip(*self.bounds()):
            out |= np.all((pts >= lo) & (pts <= hi), axis=1)
        return out

    def line_intersection_length(self, axis: int, coordinate: float, t0: float, t1: float) -> float:
        """Length of the axis-parallel segment portion inside the set (m = 2)."""
        if self.m != 2:
            raise GridError("line queries are only supported in the plane")
        other = 1 - axis
        intervals = []
        for lo, hi in zip(*self.bounds()):
            if lo[other] <= coordinate <= hi[other]:
                a, b = max(t0, lo[axis]), min(t1, hi[axis])
                if a < b:
                    intervals.append((a, b))
        return _merged_length(intervals)

    # -- set algebra ------------------------------------------------------------

    def union(self, other: "CubeSet") -> "CubeSet":
        self._check_grid(other)
        return CubeSet.of(self.root, *map(np.concatenate, zip(self.arrays, other.arrays)))

    def intersection(self, other: "CubeSet") -> "CubeSet":
        self._check_grid(other)
        # the cubes of each set equal to or inside a cube of the other
        picked = []
        for (gen, index), (g, i) in ((other.arrays, self.arrays), (self.arrays, other.arrays)):
            keys = _keys(g, i)
            within = np.isin(_keys(gen, index), keys) | _inside(gen, index, keys)
            picked.append((gen[within], index[within]))
        return CubeSet.of(self.root, *map(np.concatenate, zip(*picked)))

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
        if not all(map(math.isfinite, (*root.corner, root.side))):
            raise ValueError(f"root box corner {root.corner} and side {root.side} must be finite")
        cubes = payload["cubes"]
        return cls.of(root, [entry["generation"] for entry in cubes],
                      [entry["corner"] for entry in cubes])


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


def _corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The corners (n, 2^m, m) of boxes (lo, hi): bit d of a corner's number picks hi on axis d."""
    masks = ((np.arange(1 << lo.shape[1])[:, None] >> np.arange(lo.shape[1])) & 1).astype(bool)
    return np.where(masks, hi[:, None], lo[:, None])


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
            if not all(-math.inf < a <= b < math.inf for a, b in zip(lo, hi)):
                raise ValueError(f"element {lo}, {hi} needs finite coordinates with lo <= hi")
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
        if not all(map(math.isfinite, p0 + p1)):  # min and max below would drop a nan
            raise ValueError(f"element {p0}, {p1} needs finite coordinates")
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
