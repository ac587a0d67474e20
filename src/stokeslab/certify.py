"""Independent certificate checker for tagged families.

Everything is recomputed from the raw geometry: cube measures by direct
arithmetic, chart masses by a fresh quadrature at a different order than
the builder uses, diameters from certified upper bounds, nonoverlap from
parameter-domain footprints.  The checker intentionally shares no
computation with the decomposition engine.

:func:`check_family` makes one pass over the whole family: the cubes of
all cube pieces go into one set of arrays, the gauge is evaluated once for
all tags, and the footprints are searched for overlaps by sort and sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .currents import ChartCurrent, Rect, TopDimCurrent
from .quadrature import integrate_2d, integrate_boxes

__all__ = ["CertificateReport", "check_family"]

_CHECK_ORDER = 10  # builder integrates at order 12; the checker re-derives at 10
_SWEEP_CHUNK = 1 << 16  # candidate pairs of the overlap sweep tested at once
_MAX_OVERLAPS = 8  # ordered overlapping pairs examined before the check stops


@dataclass
class CertificateReport:
    passed: bool
    violations: list[str] = field(default_factory=list)
    pieces: int = 0
    checked_mass: float = 0.0

    def add(self, message: str):
        self.violations.append(message)
        self.passed = False


def _chart_mass(piece: ChartCurrent) -> tuple[float, float]:
    total, err = 0.0, 0.0
    for r in piece.domain_rects():
        res = integrate_2d(lambda x, y: piece.chart.area_element(x, y),
                           r.x0, r.x1, r.y0, r.y1, tol=1e-9, order=_CHECK_ORDER)
        total += res.value
        err += res.error
    return abs(piece.theta) * total, abs(piece.theta) * err


def _chart_boundary_mass(piece: ChartCurrent) -> tuple[float, float]:
    chart = piece.chart
    edges = np.asarray(piece.planar_edges(), dtype=float).reshape(-1, 2, 2)
    p, d = edges[:, 0], edges[:, 1] - edges[:, 0]
    length = np.linalg.norm(d, axis=1)

    def speed(edge, t):
        x = p[edge, 0, None] + t * d[edge, 0, None]
        y = p[edge, 1, None] + t * d[edge, 1, None]
        dz = chart.dpsi_dx(x, y) * d[edge, 0, None] + chart.dpsi_dy(x, y) * d[edge, 1, None]
        return np.sqrt(length[edge, None] ** 2 + dz ** 2)

    n = len(edges)
    total, err = 0.0, 0.0
    for res in integrate_boxes(speed, np.zeros((n, 1)), np.ones((n, 1)), [1e-9] * n,
                               order=_CHECK_ORDER):
        total += res.value
        err += res.error
    return abs(piece.theta) * total, abs(piece.theta) * err


def _chart_geometry(pieces, tags):
    """Tag test, diameter bound, masses with their errors and footprint of chart pieces.

    The diameter bound is the planar diameter of the footprint times the
    chart's Lipschitz constant; the footprint is the bounding box
    (x0, x1, y0, y1) of the planar domain.
    """
    rows = []
    for piece, tag in zip(pieces, tags):
        rects = piece.domain_rects()
        box = (min(r.x0 for r in rects), max(r.x1 for r in rects),
               min(r.y0 for r in rects), max(r.y1 for r in rects))
        x, y = float(tag[0]), float(tag[1])
        inside = (piece.domain.contains(x, y) if isinstance(piece.domain, Rect)
                  else piece.domain.contains((x, y)))
        inside = inside and abs(float(piece.chart.psi(x, y)) - float(tag[2])) <= 1e-9
        diam = piece.chart.lip_upper * math.hypot(box[1] - box[0], box[3] - box[2])
        rows.append((inside, diam, *_chart_mass(piece), *_chart_boundary_mass(piece), box))
    inside, *columns, boxes = zip(*rows)
    return (np.array(inside, dtype=bool), *(np.array(c, dtype=float) for c in columns),
            np.array(boxes, dtype=float))


def _cube_geometry(pieces, tags):
    """Tag test, diameter, masses with their errors and footprint of cube pieces.

    Every cube of every piece goes into one set of arrays, and its bounds are
    those of DyadicCube.bounds: lo = corner + side * index and hi = lo + side,
    with side = root side * 2**-generation.  The tag of a piece is in its
    support when it lies in one of its closed cubes.  A one-cube piece has
    diameter |hi - lo|, measure side**m and perimeter 2m side**(m-1); a piece
    of several cubes sums its cube measures with fsum and asks its region
    for perimeter and diameter.  The footprint is the m-dimensional bounding
    box (lo_0, hi_0, lo_1, hi_1, ...) of the piece's cubes.
    """
    regions = [p.region for p in pieces]
    m = regions[0].m
    counts = np.array([len(r.cubes) for r in regions])
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(regions)), counts)
    cubes = [q for r in regions for q in r.cubes]
    side = np.ldexp(np.array([r.root.side for r in regions], dtype=float)[owner],
                    -np.array([q.generation for q in cubes], dtype=np.int64))
    index = np.array([q.index for q in cubes], dtype=float).reshape(len(cubes), m)
    lo = np.array([r.root.corner for r in regions], dtype=float)[owner] + side[:, None] * index
    hi = lo + side[:, None]

    inside = np.zeros(len(regions), dtype=bool)
    inside[owner[np.all((lo <= tags[owner]) & (tags[owner] <= hi), axis=1)]] = True
    # Python's float power, as DyadicCube.measure and CubeSet.perimeter take it
    measure = np.array([s ** m for s in side.tolist()])
    mass = measure[first]
    perimeter = 2 * m * np.array([s ** (m - 1) for s in side[first].tolist()])
    diam = np.sqrt(((hi - lo) ** 2).sum(axis=1))[first]
    for k in np.flatnonzero(counts != 1).tolist():
        mass[k] = math.fsum(measure[first[k]:first[k] + counts[k]].tolist())
        perimeter[k] = regions[k].perimeter()
        diam[k] = regions[k].diameter()
    theta = np.array([abs(p.theta) for p in pieces], dtype=float)
    boxes = np.stack([np.minimum.reduceat(lo, first, axis=0),
                      np.maximum.reduceat(hi, first, axis=0)], axis=2).reshape(len(regions), 2 * m)
    zeros = np.zeros(len(regions))
    return inside, diam, theta * mass, zeros, theta * perimeter, zeros, boxes


def _sweep(lo: np.ndarray, hi: np.ndarray, a: int, b: int):
    """Candidate ranges of a sweep along axis a, with ties on a broken along axis b.

    The boxes are sorted by lower edge on a, then on b.  The candidates of
    box i are two runs of that order: the boxes after it whose lower edge on
    a equals its own and whose lower edge on b lies below its upper edge on
    b, then the boxes whose lower edge on a lies in (lo_a, hi_a).  Of two
    overlapping boxes the one sorted later is a candidate of the other, and
    no pair is a candidate both ways.  Returns the order and, for each box,
    the starts and lengths of its two runs, flattened box by box.
    """
    n = len(lo)
    order = np.lexsort((lo[:, b], lo[:, a]))
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    edges = lo[order, a]
    ahead = np.searchsorted(edges, lo[:, a], side="right")
    beyond = np.maximum(np.searchsorted(edges, hi[:, a]) - ahead, 0)
    # exact ranks make (lo_a, lo_b) and (lo_a, hi_b) comparable as one integer
    _, group = np.unique(lo[:, a], return_inverse=True)
    values, rank = np.unique(np.concatenate([lo[:, b], hi[:, b]]), return_inverse=True)
    key = group * len(values) + rank[:n]
    tied = np.maximum(np.searchsorted(key[order], group * len(values) + rank[n:]) - place - 1, 0)
    return (order, np.stack([place + 1, ahead], axis=1).ravel(),
            np.stack([tied, beyond], axis=1).ravel())


def _overlapping_pairs(boxes) -> list[tuple[int, int]]:
    """The first _MAX_OVERLAPS ordered pairs i != j of overlapping boxes, in row-major order.

    A box is a row (lo_0, hi_0, lo_1, hi_1, ...), and two boxes overlap when
    min(hi) - max(lo) > 1e-12 on every axis.  The candidate pairs come from
    the sort and sweep (:func:`_sweep`) along the axis with fewest of them,
    after I-COLLIDE (Cohen, Lin, Manocha & Ponamgi, 1995), and are tested
    _SWEEP_CHUNK at a time, so memory stays linear in the boxes.
    """
    arr = np.asarray(boxes, dtype=float)
    n = len(arr)
    if n < 2:
        return []
    lo, hi = arr[:, 0::2], arr[:, 1::2]
    m = lo.shape[1]
    order, start, count = min((_sweep(lo, hi, a, (a + 1) % m) for a in range(m)),
                              key=lambda sweep: sweep[2].sum())
    ends = np.cumsum(count)
    found = np.empty(0, dtype=np.int64)
    run = 0
    while run < len(count):
        done = ends[run - 1] if run else 0
        stop = max(run + 1, int(np.searchsorted(ends, done + _SWEEP_CHUNK, side="right")))
        c = count[run:stop]
        i = np.repeat(np.arange(run, stop) // 2, c)  # two runs per box
        j = order[np.arange(len(i)) + np.repeat(start[run:stop] - (ends[run:stop] - c - done), c)]
        hit = np.all(np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j]) > 1e-12, axis=1)
        i, j = i[hit], j[hit]
        keys = np.concatenate([found, i * n + j, j * n + i])  # distinct: one candidate per pair
        if len(keys) > _MAX_OVERLAPS:
            keys = np.partition(keys, _MAX_OVERLAPS - 1)[:_MAX_OVERLAPS]
        found = np.sort(keys)
        run = stop
    return [(int(i), int(j)) for i, j in zip(*np.divmod(found, n))]


def _check_pieces(pairs, delta, eta, report: CertificateReport) -> float:
    """Add the violations of each piece, then the overlaps; return the body mass."""
    n = len(pairs)
    tags = np.stack([np.asarray(pair.tag, dtype=float) for pair in pairs])
    rows, parts = [], []
    for kind, geometry in ((TopDimCurrent, _cube_geometry), (ChartCurrent, _chart_geometry)):
        ids = [i for i, pair in enumerate(pairs) if isinstance(pair.piece, kind)]
        if ids:
            rows += ids
            parts.append(geometry([pairs[i].piece for i in ids], tags[ids]))
    if len(rows) < n:
        other = next(p.piece for p in pairs if not isinstance(p.piece, (TopDimCurrent, ChartCurrent)))
        raise TypeError(f"cannot bound the diameter of {type(other).__name__}")
    order = np.argsort(rows)
    inside, diam, m_val, m_err, b_val, b_err, boxes = (
        np.concatenate(column)[order] for column in zip(*parts))

    dval = delta.many(tags)
    eta_val = np.array([float(eta(t)) for t in tags]) if callable(eta) else np.full(n, float(eta))
    with np.errstate(divide="ignore", invalid="ignore"):
        reg_lower = (m_val - m_err) / ((b_val + b_err) * diam)
    flagged = ~inside | (dval <= 0) | ~(diam < dval) | ~(reg_lower > eta_val)
    for i in np.flatnonzero(flagged).tolist():
        d, g, r, e = float(diam[i]), float(dval[i]), float(reg_lower[i]), float(eta_val[i])
        if not inside[i]:
            report.add(f"piece {i}: tag {tags[i].tolist()} is not in the support")
        if g <= 0:
            report.add(f"piece {i}: gauge vanishes at the tag")
        if not d < g:
            report.add(f"piece {i}: diameter bound {d:.6g} not below delta(tag) {g:.6g}")
        if not r > e:
            report.add(f"piece {i}: regularity lower bound {r:.6g} not above eta {e:.6g}")

    for i, j in _overlapping_pairs(boxes):
        if i < j:
            report.add(f"pieces {i} and {j}: interiors overlap")
    return float(np.cumsum(m_val)[-1])  # the running sum, in piece order


def check_family(family, delta, eta, G=None) -> CertificateReport:
    """Re-verify fineness, regularity, nonoverlap, tags, and fullness."""
    report = CertificateReport(passed=True, pieces=len(family.pairs))
    total_mass = _check_pieces(family.pairs, delta, eta, report) if family.pairs else 0.0

    # fullness re-check
    if G is not None:
        fresh = G.of_pieces(list(family.remainder_pieces))
        if family.epsilon > 0 and not fresh < family.epsilon:
            report.add(
                f"remainder functional {fresh:.6g} is not below epsilon {family.epsilon:.6g}"
            )

    parent_mass = family.parent.mass()
    if total_mass > parent_mass.value + parent_mass.error + 1e-9:
        report.add(
            f"body mass {total_mass:.9g} exceeds the parent mass {parent_mass.value:.9g}"
        )
    report.checked_mass = total_mass
    return report
