"""Gauges, tagged families, Cousin subdivision and gauge decomposition.

The engine decomposes a current into a finite family of tagged pieces that
is fine for a gauge, regular above a threshold, and whose body exhausts the
current up to a small remainder of a chosen subadditive functional.  The
route through a singular set is excision: remove a thin neighbourhood whose
mass is small and whose cut has controlled length, then decompose the rest
chart by chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Callable, Optional

import numpy as np

from .currents import (
    ChartCurrent,
    Current,
    Rect,
    SurfaceCurrent,
    TopDimCurrent,
    boundary_form_integral,
    chart_masses,
    complement_within,
    rect_edges,
    slice_current,
)
from .dyadic import CubeSet, DepthError, ExceptionalSet, RootBox
from .minkowski import ExcisabilityEvidence, excisability_evidence, neighborhood_mass
from .quadrature import QuadratureError

__all__ = [
    "Gauge",
    "RegularityFn",
    "SubadditiveFn",
    "TaggedPair",
    "TaggedFamily",
    "regularity",
    "excise",
    "gauge_decompose",
    "DecompositionRefusal",
    "ResourceBudgetError",
    "CUBE_REGULARITY",
]


MAX_PIECES = 50_000  # default piece budget of a decomposition


def CUBE_REGULARITY(m: int) -> float:
    """Regularity of any cube of dimension m: 0.5 * m^(-3/2)."""
    return 0.5 * m ** (-1.5)


class DecompositionRefusal(RuntimeError):
    """The engine declines to decompose (missing or negative excisability evidence)."""


class ResourceBudgetError(RuntimeError):
    """The decomposition would exceed the configured piece budget."""


@dataclass(frozen=True)
class Gauge:
    """Nonnegative fineness control: min of constants and scaled distances.

    Terms are ("const", c, 0.0, None) or ("dist", scale, offset, anchor)
    with each distance term carrying its own anchor set; the gauge vanishes
    exactly on the anchors of zero-offset distance terms.
    """

    terms: tuple[tuple, ...]

    @classmethod
    def constant(cls, c: float) -> "Gauge":
        if not 0 < c < math.inf:
            raise ValueError(f"constant gauges must be positive and finite, not {c!r}")
        return cls((("const", c, 0.0, None),))

    @classmethod
    def distance_to(cls, E: ExceptionalSet, scale: float = 1.0,
                    offset: float = 0.0) -> "Gauge":
        if not (0 < scale < math.inf and 0 <= offset < math.inf):
            raise ValueError(f"distance gauges need a finite scale > 0 and offset >= 0, "
                             f"not scale {scale!r} and offset {offset!r}")
        return cls((("dist", scale, offset, E),))

    def min_with(self, other: "Gauge") -> "Gauge":
        return Gauge(self.terms + other.terms)

    def scaled(self, factor: float) -> "Gauge":
        terms = tuple((kind, s * factor, o * factor, E) for kind, s, o, E in self.terms)
        return Gauge(terms)

    def many(self, points) -> np.ndarray:
        """The gauge at each row of an (n, m) array of points."""
        pts = np.asarray(points, dtype=float)
        best = np.full(len(pts), np.inf)
        for kind, s, o, E in self.terms:
            best = np.minimum(best, s if kind == "const" else s * E.distance_many(pts) + o)
        return best

    @property
    def zero_set(self) -> ExceptionalSet:
        out = ExceptionalSet.empty()
        for kind, _, o, E in self.terms:
            if kind == "dist" and o == 0.0 and E is not None:
                out = out.union(E)
        return out


@dataclass(frozen=True)
class RegularityFn:
    """Regularity threshold: a constant, or ``fn`` from an (N, m) array of points to N values."""

    value: Optional[float] = None
    fn: Optional[Callable] = None

    @classmethod
    def constant(cls, value: float) -> "RegularityFn":
        if not 0 <= value < math.inf:
            raise ValueError(f"regularity thresholds are finite and nonnegative, not {value!r}")
        return cls(value=value)

    def many(self, points) -> np.ndarray:
        """The threshold at each row of an (n, m) array of points."""
        if self.fn is not None:
            return np.asarray(self.fn(np.asarray(points, dtype=float)), dtype=float)
        return np.full(len(points), float(self.value))


class SubadditiveFn:
    """Nonnegative subadditive functional on subcurrents: mass, |circulation|, max."""

    def __init__(self, kind: str, omega=None, parts: Optional[Sequence["SubadditiveFn"]] = None,
                 name: str = ""):
        if kind not in ("mass", "abs_circulation", "max_of"):
            raise ValueError(f"unknown subadditive functional kind {kind!r}")
        self.kind = kind
        self.omega = omega
        self.parts = tuple(parts) if parts else ()
        self.name = name or kind

    @classmethod
    def mass(cls) -> "SubadditiveFn":
        return cls("mass")

    @classmethod
    def abs_circulation(cls, omega) -> "SubadditiveFn":
        return cls("abs_circulation", omega=omega)

    @classmethod
    def max_of(cls, *parts: "SubadditiveFn") -> "SubadditiveFn":
        return cls("max_of", parts=parts)

    def of_current(self, S: Current) -> float:
        """Upper estimate of the functional on S (certificates folded in)."""
        if self.kind == "mass":
            res = S.mass()
            return res.value + res.error
        if self.kind == "abs_circulation":
            res = boundary_form_integral(S, self.omega, tol=1e-8)
            return abs(res.value) + res.error
        return max(p.of_current(S) for p in self.parts)

    def of_pieces(self, pieces: Sequence[Current]) -> float:
        """Upper bound for the functional of the sum of nonoverlapping pieces."""
        if not pieces:
            return 0.0
        if self.kind == "max_of":
            return max(p.of_pieces(pieces) for p in self.parts)
        return sum(self.of_current(S) for S in pieces)


def regularity(S: Current) -> float:
    """mass / (boundary mass * support diameter); inf when the boundary vanishes."""
    mres = S.mass()
    if mres.value <= 0:
        raise ValueError("regularity of the zero current is undefined")
    bres = S.boundary_mass()
    if bres.value == 0.0:
        return math.inf
    return mres.value / (bres.value * S.support_diameter())


@dataclass(frozen=True)
class TaggedPair:
    tag: tuple
    piece: Current
    # builder-recorded data; the independent checker recomputes everything
    diam: float
    mass: float
    boundary_mass: float
    reg: float
    gauge_at_tag: float
    eta_at_tag: float
    meta: dict = field(default_factory=dict)


_COLUMNS = ("diam", "mass", "boundary_mass", "reg", "gauge_at_tag", "eta_at_tag")


@dataclass(frozen=True, eq=False)
class PieceTable(Sequence):
    """The tagged pieces of a family as columns, one row per piece.

    Per piece: ``tags`` (n, N), the engine-recorded columns of TaggedPair,
    ``theta``, ``chart``, an index into ``charts`` (-1 for cube pieces), and
    ``root``, an index into ``roots`` of the root box of a piece over a cube
    set, a cube piece's region or a chart piece's domain (-1 for other
    pieces).  The cells, tuples of arrays led by the owner piece, in piece order:
    ``cubes`` (owner, root corner, root side, generation, index) of cube
    pieces, ``rects`` (owner, lo, hi) and ``edges`` (owner, start, end), the
    ``boundary_edges``, of chart pieces.  As a sequence the table holds TaggedPair
    views, which ``view(table, k)`` builds only when one is read.
    """

    tags: np.ndarray
    diam: np.ndarray
    mass: np.ndarray
    boundary_mass: np.ndarray
    reg: np.ndarray
    gauge_at_tag: np.ndarray
    eta_at_tag: np.ndarray
    theta: np.ndarray
    chart: np.ndarray
    root: np.ndarray
    charts: tuple
    roots: tuple
    cubes: tuple
    rects: tuple
    edges: tuple
    view: Callable

    def __len__(self) -> int:
        return len(self.mass)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(len(self))[k])
        return self.pair(range(len(self))[k])

    def __add__(self, other) -> tuple:
        return tuple(self) + tuple(other)

    def pair(self, k: int) -> TaggedPair:
        """The TaggedPair view of piece k."""
        return self.view(self, k)

    def _pair(self, k: int, piece: Current, meta: dict) -> TaggedPair:
        """The view of piece k with the given piece and meta."""
        return TaggedPair(tuple(self.tags[k].tolist()), piece,
                          *(float(getattr(self, name)[k]) for name in _COLUMNS), meta)

    @classmethod
    def gather(cls, pairs: Sequence[TaggedPair]) -> "PieceTable":
        """The table of a sequence of pairs, gathered once; its views are the pairs."""
        pairs = tuple(pairs)
        charts: dict = {}  # id -> (index, chart)
        roots: dict = {}  # id -> (index, root box)
        cubes, rects, chart, root = [], [], [], []
        edges = [(np.empty(0, np.int64), np.empty((0, 2)), np.empty((0, 2)))]
        for k, piece in enumerate(p.piece for p in pairs):
            region = getattr(piece, "region", getattr(piece, "domain", None))
            box = region.root if isinstance(region, CubeSet) else None
            root.append(-1 if box is None else roots.setdefault(id(box), (len(roots), box))[0])
            if isinstance(piece, ChartCurrent):
                chart.append(charts.setdefault(id(piece.chart), (len(charts), piece.chart))[0])
                rects += [(k, (r.x0, r.y0), (r.x1, r.y1)) for r in piece.domain_rects()]
                _, start, end, _, _ = piece.boundary_edges()
                edges.append((np.full(len(start), k), start, end))
                continue
            chart.append(-1)
            if isinstance(piece, TopDimCurrent):
                cubes += [(k, box.corner, box.side, g, i)
                          for g, i in zip(*(a.tolist() for a in piece.region.arrays))]
        tags = np.array([p.tag for p in pairs], dtype=float).reshape(len(pairs), -1 if pairs else 2)
        m = tags.shape[1]
        return cls(tags, *(np.array([getattr(p, c) for p in pairs], dtype=float) for c in _COLUMNS),
                   np.array([getattr(p.piece, "theta", 1) for p in pairs], dtype=np.int64),
                   np.array(chart, dtype=np.int64), np.array(root, dtype=np.int64),
                   tuple(c for _, c in charts.values()), tuple(b for _, b in roots.values()),
                   _cells(cubes, (float, m), (float,), (np.int64,), (np.int64, m)),
                   _cells(rects, (float, 2), (float, 2)), tuple(map(np.concatenate, zip(*edges))),
                   lambda table, k: pairs[k])


def _cells(rows, *specs) -> tuple:
    """Cell rows (owner, *fields) as arrays, one per field of spec (dtype, *shape)."""
    columns = list(zip(*rows)) or [()] * (1 + len(specs))
    return tuple(np.array(values, dtype=dtype).reshape((-1, *shape))
                 for values, (dtype, *shape) in zip(columns, ((np.int64,),) + specs))


_EMPTY = PieceTable.gather(())


@dataclass(frozen=True)
class TaggedFamily:
    """A tagged family; ``pairs`` given as a sequence of TaggedPairs is gathered into a table."""

    parent: Current
    pairs: PieceTable
    remainder_pieces: tuple[Current, ...]
    remainder_value: float
    functional_name: str
    epsilon: float

    def __post_init__(self):
        if not isinstance(self.pairs, PieceTable):
            object.__setattr__(self, "pairs", PieceTable.gather(self.pairs))

    def body_mass(self) -> float:
        return math.fsum(self.pairs.mass.tolist())

    def min_regularity(self) -> float:
        return min(self.pairs.reg.tolist(), default=math.inf)

    def max_diameter(self) -> float:
        return max(self.pairs.diam.tolist(), default=0.0)

    def summary(self) -> dict:
        return {
            "pieces": len(self.pairs),
            "body_mass": self.body_mass(),
            "min_regularity": self.min_regularity(),
            "max_diameter": self.max_diameter(),
            "remainder_value": self.remainder_value,
            "functional": self.functional_name,
            "epsilon": self.epsilon,
        }

    def rows(self):
        names = ("diam", "mass", "boundary_mass", "reg", "delta_at_tag", "eta_at_tag")
        columns = (getattr(self.pairs, name).tolist() for name in _COLUMNS)
        for i, (tag, *values) in enumerate(zip(self.pairs.tags.tolist(), *columns)):
            yield {"piece_id": i, "tag": tag, **dict(zip(names, values))}


# ---------------------------------------------------------------------------


def _test_points(corner: np.ndarray, side: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Centre, then corners in mask order, of each cube: an (n, 1 + 2^m, m) array."""
    lo = corner + side[:, None] * index
    hi = lo + side[:, None]
    m = index.shape[1]
    # filled in place: a generation's broadcast temporaries would each be as
    # large as the result, and freeing them raises glibc's mmap threshold
    pts = np.empty((len(lo), 1 + (1 << m), m))
    pts[:, 0] = 0.5 * (lo + hi)
    for mask in range(1 << m):
        for d in range(m):
            pts[:, 1 + mask, d] = hi[:, d] if (mask >> d) & 1 else lo[:, d]
    return pts


def _depth_first_order(rid: np.ndarray, gen: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Permutation putting disjoint cubes root by root in depth-first order.

    A stack that pushes the children of a cube in mask order pops them in
    descending Morton order of their lower corners at the deepest generation,
    the bit of axis m-1 above that of axis 0.  The Morton key is cut into
    chunks of at most 62 bits, most significant first.
    """
    m = index.shape[1]
    deepest = int(gen.max(initial=0))
    scaled = index << (deepest - gen)[:, None]
    keys = [np.zeros(len(gen), dtype=np.int64)]
    width = 0
    for bit in range(deepest - 1, -1, -1):
        for d in range(m - 1, -1, -1):
            if width == 62:
                keys.append(np.zeros(len(gen), dtype=np.int64))
                width = 0
            keys[-1] = (keys[-1] << 1) | ((scaled[:, d] >> bit) & 1)
            width += 1
    return np.lexsort([-k for k in reversed(keys)] + [rid])


def _fine_cubes(corner: np.ndarray, root_side: np.ndarray, gen: np.ndarray, idx: np.ndarray,
                fineness: Callable, max_generation: int, max_pieces: int) -> tuple[np.ndarray, ...]:
    """Cousin subdivision of every root, one generation at a time.

    The roots are cubes (``gen``, ``idx``) of root boxes with corners
    ``corner`` (n, m) and sides ``root_side`` (n,).  ``fineness`` maps an
    (n, m) array of points to their n values.  A cube is accepted at its
    first test point (centre, then corners) where fineness exceeds its
    diameter, and split into its 2^m children otherwise.  Returns
    the arrays (root, generation, index, diameter, tag, fineness at tag) of
    the accepted cubes, generation by generation; ``_depth_first_order``
    puts them in the order of a depth-first run.  A cube that still fails at
    ``max_generation`` raises ``DepthError``, for the cube a depth-first run
    over the roots in order would reach first; a generation that would take
    the accepted and pending cubes past ``max_pieces`` raises
    ``ResourceBudgetError`` before it is built.
    """
    m = idx.shape[1]
    if max_generation > 62:
        raise ValueError("Cousin subdivision holds indices in 64-bit integers: "
                         "max_generation must be at most 62")
    rid = np.arange(len(gen))
    masks = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    accepted = []
    n_accepted = 0
    stop, stop_bounds = len(gen), None  # first root that failed at the cap
    while len(rid):
        side = np.ldexp(root_side[rid], -gen)
        diam = side * math.sqrt(m)
        pts = _test_points(corner[rid], side, idx)
        vals = fineness(pts.reshape(-1, m)).reshape(len(rid), -1)
        fine = vals > diam[:, None]
        ok = fine.any(axis=1)
        rows, first = np.flatnonzero(ok), fine.argmax(axis=1)[ok]
        accepted.append((rid[ok], gen[ok], idx[ok], diam[ok], pts[rows, first],
                         vals[rows, first]))
        n_accepted += len(rows)
        capped = ~ok & (gen >= max_generation)
        if capped.any():
            # every cube of one root in this generation is at the cap; roots after
            # the first failing one would never be reached depth-first
            stop = int(rid[capped].min())
            mine = np.flatnonzero(capped & (rid == stop))
            at = mine[_depth_first_order(rid[mine], gen[mine], idx[mine])[0]]
            # the bounds of the cube, as RootBox.bounds
            lo = corner[stop] + side[at] * idx[at].astype(float)
            stop_bounds = lo, lo + side[at]
        split = ~ok & (rid < stop)
        if n_accepted + (int(split.sum()) << m) > max_pieces:
            raise ResourceBudgetError(
                f"decomposition exceeded the piece budget ({max_pieces})"
            )
        rid = np.repeat(rid[split], 1 << m)
        gen = np.repeat(gen[split] + 1, 1 << m)
        idx = (2 * idx[split][:, None, :] + masks).reshape(-1, m)
    if stop_bounds is not None:
        lo, hi = stop_bounds
        raise DepthError(
            f"gauge forces subdivision past generation {max_generation} "
            f"near the region [{lo.tolist()}, {hi.tolist()}]"
        )
    return tuple(np.concatenate(parts) for parts in zip(*accepted))


def _check_roots(corner: np.ndarray, root_side: np.ndarray, gen: np.ndarray, idx: np.ndarray,
                 delta: Gauge, eta: RegularityFn):
    """Refuse the first root whose eta reaches the cube regularity or that meets the gauge's zeros.

    The roots are given as to _fine_cubes.  eta is taken at its largest at
    the root's _test_points, whose first and last corner are its bounds.
    """
    m = idx.shape[1]
    pts = _test_points(corner, np.ldexp(root_side, -gen), idx)
    top = eta.many(pts.reshape(-1, m)).reshape(len(pts), -1).max(axis=1)
    touches = delta.zero_set.cube_distances(pts[:, 1], pts[:, -1])[0] <= 0.0
    high = top >= CUBE_REGULARITY(m)
    for k in np.flatnonzero(high | touches)[:1].tolist():
        if high[k]:
            raise ValueError(
                f"eta {float(top[k])} is not below the cube regularity {CUBE_REGULARITY(m)}"
            )
        raise ValueError("cousin subdivision needs a gauge positive on the domain; "
                         "excise the zero set first")


def _cube_masses(side: float, m: int, theta: int) -> tuple[float, float]:
    """Mass |theta| side^m and boundary mass |theta| 2m side^(m-1) of a one-cube piece.

    These are the bits of ``TopDimCurrent.mass()`` and ``boundary_mass()`` on
    a one-cube set: ``CubeSet.measure()`` is the fsum of the one term side^m,
    and ``perimeter()`` counts 2m unit facets at the cube's own generation.
    """
    return abs(theta) * side ** m, abs(theta) * (2 * m * side ** (m - 1))


def _cube_table(root: RootBox, gen: np.ndarray, index: np.ndarray, delta: Gauge,
                eta: RegularityFn, theta: int, max_generation: int,
                max_pieces: int) -> PieceTable:
    """Tagged Cousin pieces of the cubes (generation, index) of root, as _fine_cubes roots.

    The pieces come root by root in (generation, index) order.  Each root is
    checked first, with eta at its largest value at the root's test points.
    """
    if not len(gen):
        return _EMPTY
    m = root.m
    corner = np.broadcast_to(np.asarray(root.corner), (len(gen), m))
    root_side = np.full(len(gen), root.side)
    _check_roots(corner, root_side, gen, index, delta, eta)
    pieces = _fine_cubes(corner, root_side, gen, index, delta.many, max_generation, max_pieces)
    order = np.lexsort((*pieces[2].T[::-1], pieces[1], pieces[0]))  # by root, generation, index
    rid, gen, idx, diam, tags, vals = (a[order] for a in pieces)
    # a piece's side is one of few: one _cube_masses call per distinct side
    sides, which = np.unique(np.ldexp(root.side, -gen), return_inverse=True)
    masses = np.array([_cube_masses(s, m, theta) for s in sides.tolist()]).reshape(-1, 2)[which]

    def view(table, k):
        key = (int(gen[k]), tuple(idx[k].tolist()))
        return table._pair(k, TopDimCurrent(CubeSet.of(root, gen[k:k + 1], idx[k:k + 1]), theta),
                           {"cube": key})

    n = len(rid)
    return PieceTable(tags, diam, masses[:, 0], masses[:, 1], np.full(n, CUBE_REGULARITY(m)),
                      vals, eta.many(tags), np.full(n, theta), np.full(n, -1),
                      np.zeros(n, dtype=np.int64), (), (root,),
                      (np.arange(n), corner[rid], root_side[rid], gen, idx), _EMPTY.rects,
                      _EMPTY.edges, view)


# ---------------------------------------------------------------------------


def excise(T: Current, E: ExceptionalSet, eps: float, r0: float,
           radius_samples: int = 24) -> tuple[Current, float, dict]:
    """Remove a thin neighbourhood of E from T with a controlled cut.

    Picks r in (r0/2, r0) whose slice mass obeys the mean-value bound
    (2 / r0) * ||T||(B(E, r0)), then restricts T to the complement of the
    r-neighbourhood.  Fails if the neighbourhood mass at r0 is not below
    eps, or if no sampled radius passes the bound.
    """
    if E.is_empty():
        return T, 0.75 * r0, {"trivial": True, "removed_mass": 0.0}
    ball = neighborhood_mass(T, E, r0)
    ball_upper = ball.value + ball.error
    if ball_upper >= eps:
        raise ValueError(
            f"||T||(B(E, r0)) = {ball.value:.3e} is not below eps = {eps:.3e}; shrink r0"
        )
    far = T.support_clearance(E)
    if far is not None and far >= r0:
        return T, 0.75 * r0, {"trivial": True, "removed_mass": 0.0}
    bound = (2.0 / r0) * ball_upper
    layer_budget = 0.5 * (eps - ball_upper)
    best = (math.inf, None)
    for i in range(radius_samples):
        r = r0 / 2.0 + (r0 / 2.0) * (i + 0.5) / radius_samples
        s = slice_current(T, E, r)
        cut = s.mass.value + s.mass.error
        if cut < best[0]:
            best = (cut, (r, s))
        if cut <= bound:
            T_eps = T.restrict_outside(E, s.radius, layer_budget)
            removed = T.mass().value - T_eps.mass().value
            return T_eps, s.radius, {
                "radius": s.radius,
                "slice_mass": s.mass.value,
                "slice_bound": bound,
                "removed_mass": removed,
                "neighborhood_mass": ball.value,
            }
    raise ValueError(
        f"no radius in ({r0/2}, {r0}) met the slice bound {bound:.3e}; "
        f"minimum slice mass found was {best[0]:.3e}"
    )


# ---------------------------------------------------------------------------


def _tile_rect_with_squares(rect: Rect, min_fraction: float = 0.999,
                            max_rounds: int = 12) -> tuple[list[Rect], list[Rect]]:
    """Greedy tiling of a rectangle by squares; returns (squares, leftovers).

    Each round packs columns of side = current height along the long axis;
    the leftover strip is halved and repacked, so the untiled fraction
    decays geometrically.
    """
    squares: list[Rect] = []
    pending = [rect]
    for _ in range(max_rounds):
        if not pending:
            break
        nxt: list[Rect] = []
        for r in pending:
            w, h = r.x1 - r.x0, r.y1 - r.y0
            if abs(w - h) <= 1e-15 * max(w, h):
                squares.append(Rect(r.x0, r.x1, r.y0, r.y1))
                continue
            if w < h:
                n = int(h // w)
                squares += [Rect(r.x0, r.x1, r.y0 + j * w, r.y0 + (j + 1) * w) for j in range(n)]
                if h - n * w > 1e-14 * h:
                    nxt.append(Rect(r.x0, r.x1, r.y0 + n * w, r.y1))
            else:
                n = int(w // h)
                squares += [Rect(r.x0 + j * h, r.x0 + (j + 1) * h, r.y0, r.y1) for j in range(n)]
                if w - n * h > 1e-14 * w:
                    nxt.append(Rect(r.x0 + n * h, r.x1, r.y0, r.y1))
        pending = nxt
        done = sum(s.measure() for s in squares)
        if done >= min_fraction * rect.measure():
            break
    return squares, pending


def gauge_decompose(T: Current, E_T: ExceptionalSet, delta: Gauge,
                    eta: RegularityFn, G: SubadditiveFn, eps: float,
                    evidence: Optional[ExcisabilityEvidence] = None,
                    max_generation: int = 40, max_pieces: int = MAX_PIECES) -> TaggedFamily:
    """Fine, regular, G-full tagged family in T.

    The singular set is excised first (needs excisability evidence unless
    empty), the rest is covered by charts, each chart domain is tiled by
    squares and Cousin-decomposed with the pulled-back gauge, and the
    per-chart remainders are charged against the eps budget.
    """
    if not E_T.is_empty():
        if evidence is None:
            evidence = excisability_evidence(T, E_T)
        if not evidence.accepted:
            raise DecompositionRefusal(
                f"singular set lacks excisability evidence: {evidence.reason}"
            )
    # every gauge zero must be inside the excised set
    for lo, hi in delta.zero_set.elements:
        if not any(all(zl >= el and zh <= eh for zl, zh, el, eh in zip(lo, hi, elo, ehi))
                   for elo, ehi in E_T.elements):
            raise ValueError("gauge vanishes outside the declared singular set; "
                             "fineness cannot be certified there")

    remainder: list[Current] = []

    # step 1: excise the singular set with half the budget
    work = T
    if not E_T.is_empty() and _needs_excision(T, E_T):
        r0 = _initial_excision_radius(T, E_T)
        stopped: Optional[RuntimeError] = None
        for _ in range(40):
            try:
                candidate, _, _ = excise(T, E_T, eps, r0)
            except (DepthError, QuadratureError) as exc:
                # a smaller radius may fit its layer; if none does, this is
                # a resource stop rather than a refusal
                stopped = exc
                r0 *= 0.5
                continue
            except ValueError:
                r0 *= 0.5
                continue
            cap = complement_within(T, candidate)
            if G.of_pieces(cap) < eps / 2.0:
                work = candidate
                remainder.extend(cap)
                break
            r0 *= 0.5
        else:
            if stopped is not None:
                raise stopped
            raise DecompositionRefusal(
                "excision could not reach the functional budget eps/2"
            )

    # step 2 + 3: chart atlas and per-chart splitting
    charts, uncovered = _chart_atlas(work)
    remainder.extend(uncovered)
    p_count = max(len(charts), 1)
    per_chart_budget = eps / (2.0 * p_count)

    if isinstance(work, TopDimCurrent):
        table = _cube_table(work.region.root, *work.region.arrays, delta, eta, work.theta,
                            max_generation, max_pieces)
    else:
        # every chart piece is tiled before any piece's masses are swept
        cells = []
        for i, chart_piece in enumerate(charts):
            part, leftovers = _chart_cells(i, chart_piece, delta, G, per_chart_budget,
                                           max_generation,
                                           max_pieces - sum(len(c[0]) for c in cells))
            cells += part
            remainder.extend(leftovers)
        table = _chart_table(charts, cells, delta, eta)

    remainder_value = G.of_pieces(remainder)
    if remainder_value >= eps:
        raise DecompositionRefusal(
            f"remainder functional value {remainder_value:.3e} >= eps {eps:.3e}"
        )
    return TaggedFamily(T, table, tuple(remainder), remainder_value, G.name, eps)


def _needs_excision(T: Current, E: ExceptionalSet) -> bool:
    far = T.support_clearance(E)
    return far is None or far <= 0.0


def _initial_excision_radius(T: Current, E: ExceptionalSet) -> float:
    return min(0.25 * T.support_diameter(), 0.2)


def _chart_atlas(T: Current) -> tuple[list[Current], list[Current]]:
    """Cover T by graph charts; cube sets are their own (identity) chart.

    Returns (chart pieces, uncovered pieces to charge against the budget).
    """
    if not isinstance(T, SurfaceCurrent):
        return [T], []
    model = T.model
    if model.params.h == 0.0:
        # degenerate flat surface: one chart covers everything
        return [ChartCurrent(Rect(model.x_lo, model.x_hi, T.y_lo, T.y_hi),
                             model.strip_chart(0), T.theta)], []
    pieces: list[Current] = []
    for k, lo, hi in model.strip_windows(T.y_lo, T.y_hi):
        if k > model.k_cut:
            return pieces, [SurfaceCurrent(model, lo, T.y_hi, T.theta)]
        pieces.append(ChartCurrent(Rect(model.x_lo, model.x_hi, lo, hi),
                                   model.strip_chart(k), T.theta))
    return pieces, []


def _chart_fineness(chart, delta: Gauge) -> Callable:
    """The gauge pulled back to the chart domain, for an (n, 2) array of points.

    Fineness transfers through the chart: pieces of planar diameter below
    delta(image)/Lip push forward to delta-fine pieces.
    """
    lip = chart.lip_upper
    return lambda pts: delta.many(chart.point(pts[:, 0], pts[:, 1])) / lip


def _chart_cells(i: int, T: ChartCurrent, delta: Gauge, G: SubadditiveFn, budget: float,
                 max_generation: int, piece_budget: int) -> tuple[list, list[Current]]:
    """The Cousin cells of chart piece i, T, and the leftovers of its tiling.

    Each rectangle of the domain is tiled by squares until the functional of
    the leftovers is below ``budget``, and the squares are subdivided with
    the gauge pulled back through the chart.  Each rectangle gives one tuple
    of arrays (i, square corner, square side, generation, index, planar
    diameter, planar tag), its cells in depth-first order.
    """
    chart = T.chart
    cells: list = []
    leftovers: list[Current] = []
    for rect in T.domain_rects():
        squares, rest = _tile_rect_with_squares(rect)
        while True:
            rest_currents = [ChartCurrent(rr, chart, T.theta, tol=1e-9) for rr in rest]
            rest_value = G.of_pieces(rest_currents)
            if rest_value < budget or not rest:
                leftovers.extend(rest_currents)
                break
            deeper = []
            for rr in rest:
                sq, lv = _tile_rect_with_squares(rr, min_fraction=0.9999)
                squares.extend(sq)
                deeper.extend(lv)
            if not deeper:
                leftovers.extend(rest_currents)
                break
            rest = deeper
        if len(squares) > piece_budget:
            raise ResourceBudgetError(
                f"chart tiling needs {len(squares)} squares, over the piece budget "
                f"({piece_budget}); decompose a smaller window or raise the budget"
            )
        # each square is the cube of generation 0 of its own root box
        corner = np.array([(sq.x0, sq.y0) for sq in squares], dtype=float).reshape(-1, 2)
        side = np.array([sq.x1 - sq.x0 for sq in squares], dtype=float)
        rid, gen, idx, diam, pre_tags, _ = _fine_cubes(
            corner, side, np.zeros(len(side), dtype=np.int64), np.zeros_like(corner, np.int64),
            _chart_fineness(chart, delta), max_generation,
            piece_budget - sum(len(c[0]) for c in cells))
        k = _depth_first_order(rid, gen, idx)
        cells.append((np.full(len(k), i), corner[rid[k]], side[rid[k]], gen[k], idx[k], diam[k],
                      pre_tags[k]))
    return cells, leftovers


def _chart_table(pieces: Sequence[ChartCurrent], cells: list, delta: Gauge,
                 eta: RegularityFn) -> PieceTable:
    """The table of the Cousin cells of the chart pieces."""
    if not cells:
        return _EMPTY
    of, corner, side, gen, idx, diam, pre_tags = (np.concatenate(a) for a in zip(*cells))
    # the bounds of each cube: lo = corner + side * index, hi = lo + side
    cube_side = np.ldexp(side, -gen)[:, None]
    lo = corner + cube_side * idx
    hi = lo + cube_side
    start, end = rect_edges(lo, hi)
    n = len(lo)
    theta = np.array([T.theta for T in pieces])[of]
    mass, edge, tags = np.empty(n), np.empty((n, 4)), np.empty((n, 3))
    for i in np.unique(of).tolist():
        chart, k = pieces[i].chart, np.flatnonzero(of == i)
        # one quadrature sweep per kind of mass for all pieces of a chart piece
        mass[k] = chart_masses(chart, lo[k], hi[k], np.full(len(k), 1e-11)).value
        e = (4 * k[:, None] + np.arange(4)).ravel()
        edge[k] = chart_masses(chart, start[e], end[e], np.full(len(e), 1e-11),
                               boundary=True).value.reshape(-1, 4)
        tags[k] = chart.point(pre_tags[k, 0], pre_tags[k, 1])
    mass = np.abs(theta) * mass
    boundary_mass = np.abs(theta) * (((edge[:, 0] + edge[:, 1]) + edge[:, 2]) + edge[:, 3])
    # Lipschitz upper bound, certified
    diam = np.array([T.chart.lip_upper for T in pieces])[of] * diam

    def view(table, k):
        T = pieces[of[k]]
        piece = ChartCurrent(Rect(lo[k, 0], hi[k, 0], lo[k, 1], hi[k, 1]), T.chart, T.theta,
                             tol=1e-11)
        return table._pair(k, piece, {"pre_square": (*corner[k].tolist(), float(side[k])),
                                     "pre_cube": (int(gen[k]), tuple(idx[k].tolist())),
                                     "pre_tag": tuple(pre_tags[k].tolist())})

    return PieceTable(tags, diam, mass, boundary_mass, mass / (boundary_mass * diam),
                      delta.many(tags), eta.many(tags), theta, of, np.full(n, -1),
                      tuple(T.chart for T in pieces), (), _EMPTY.cubes, (np.arange(n), lo, hi),
                      (np.repeat(np.arange(n), 4), start, end), view)
