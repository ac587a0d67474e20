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

from .dyadic import CubeSet, RootBox
# integrate_2d is unused here, but perfbench/test_tracer.py checks that the tracer rebinds it
from .quadrature import integrate_2d, integrate_boxes  # noqa: F401

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


def _footprints(owner: np.ndarray, lo: np.ndarray, hi: np.ndarray, points: np.ndarray):
    """The pieces of cells (owner, box lo, box hi) and facts of each piece's boxes.

    Returns the pieces, the first cell and the cell count of each, whether
    its point lies in one of its closed boxes, and its footprint, the
    bounding box (lo_0, hi_0, lo_1, hi_1, ...) of its boxes.
    """
    ids, first, counts = np.unique(owner, return_index=True, return_counts=True)
    at = points[owner]
    inside = np.logical_or.reduceat(np.all((lo <= at) & (at <= hi), axis=1), first)
    boxes = np.stack([np.minimum.reduceat(lo, first), np.maximum.reduceat(hi, first)], axis=2)
    return ids, first, counts, inside, boxes.reshape(len(ids), -1)


def _runs(values: np.ndarray, first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each run values[first:first + count], left to right."""
    out = values[first].copy()
    for j in range(1, int(counts.max(initial=1))):
        more = counts > j
        out[more] += values[first[more] + j]
    return out


def _per_chart(charts, chart_of, f):
    """An integrand of integrate_boxes: f(chart, box, *coords) on the rows of each box's chart."""
    def integrand(box, *coords):
        out, of = np.empty(coords[0].shape), chart_of[box]
        for c in np.unique(of).tolist():
            rows = of == c
            out[rows] = f(charts[c], box[rows], *(u[rows] for u in coords))
        return out
    return integrand


def _chart_geometry(pairs, tags):
    """Tag test, diameter bound, masses with their errors and footprint of chart pieces.

    Reads the rectangle and edge cells.  One integrate_boxes run at order
    _CHECK_ORDER integrates the area element over every rectangle, and one
    the speed of every lifted edge, each to 1e-9; a piece's masses are the
    sums of its cells', left to right.  The tag must lie in one of the
    piece's closed rectangles and within 1e-9 of the graph there.  The
    diameter bound is the planar diameter of the footprint (x0, x1, y0, y1)
    times the chart's Lipschitz constant.
    """
    charts = pairs.charts
    owner, lo, hi = pairs.rects
    ids, first, counts, inside, boxes = _footprints(owner, lo, hi, tags[:, :2])
    which = pairs.chart[ids]
    for c in np.unique(which).tolist():
        rows = np.flatnonzero((which == c) & inside)
        x, y, z = tags[ids[rows]].T
        inside[rows] = np.abs(charts[c].psi(x, y) - z) <= 1e-9
    diam = np.array([charts[c].lip_upper * math.hypot(x1 - x0, y1 - y0)
                     for c, (x0, x1, y0, y1) in zip(which.tolist(), boxes.tolist())])

    areas = integrate_boxes(
        _per_chart(charts, pairs.chart[owner], lambda chart, box, x, y: chart.area_element(x, y)),
        lo, hi, np.full(len(lo), 1e-9), order=_CHECK_ORDER)
    edge_owner, start, end = pairs.edges
    d = end - start
    length = np.linalg.norm(d, axis=1)

    def speed(chart, edge, t):
        px, py = chart.gradient(start[edge, 0, None] + t * d[edge, 0, None],
                                start[edge, 1, None] + t * d[edge, 1, None])
        dz = px * d[edge, 0, None] + py * d[edge, 1, None]
        return np.sqrt(length[edge, None] ** 2 + dz ** 2)

    speeds = integrate_boxes(_per_chart(charts, pairs.chart[edge_owner], speed),
                             np.zeros((len(d), 1)), np.ones((len(d), 1)), np.full(len(d), 1e-9),
                             order=_CHECK_ORDER)
    _, edge_first, edge_counts = np.unique(edge_owner, return_index=True, return_counts=True)
    theta = np.abs(pairs.theta[ids]).astype(float)
    sums = [theta * _runs(column, *runs)
            for res, runs in ((areas, (first, counts)), (speeds, (edge_first, edge_counts)))
            for column in (res.value, res.error)]
    return ids, inside, diam, *sums, boxes


def _cube_geometry(pairs, tags):
    """Tag test, diameter, masses with their errors and footprint of cube pieces.

    Reads the cube cells.  The bounds of a cube are those of
    RootBox.bounds: lo = corner + side * index and hi = lo + side, with
    side = root side * 2**-generation.  A one-cube piece has diameter
    |hi - lo|, measure side**m and perimeter 2m side**(m-1); a piece of
    several cubes sums its cube measures with fsum and asks the CubeSet of
    its cubes for perimeter and diameter.
    """
    owner, corner, root_side, gen, index = pairs.cubes
    m = corner.shape[1]
    side = np.ldexp(root_side, -gen)
    lo = corner + side[:, None] * index
    hi = lo + side[:, None]
    ids, first, counts, inside, boxes = _footprints(owner, lo, hi, tags)
    # Python's float power, as RootBox.measures and CubeSet.perimeter take it
    measure = np.array([s ** m for s in side.tolist()])
    mass = measure[first]
    perimeter = 2 * m * np.array([s ** (m - 1) for s in side[first].tolist()])
    diam = np.sqrt(((hi - lo) ** 2).sum(axis=1))[first]
    for k in np.flatnonzero(counts != 1).tolist():
        run = slice(first[k], first[k] + counts[k])
        root = RootBox(tuple(corner[first[k]].tolist()), float(root_side[first[k]]))
        region = CubeSet.of(root, gen[run], index[run])
        mass[k] = math.fsum(measure[run].tolist())
        perimeter[k] = region.perimeter()
        diam[k] = region.diameter()
    theta = np.abs(pairs.theta[ids]).astype(float)
    zeros = np.zeros(len(ids))
    return ids, inside, diam, theta * mass, zeros, theta * perimeter, zeros, boxes


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
    _SWEEP_CHUNK at a time, box by box, so memory stays linear in the boxes.
    Once _MAX_OVERLAPS pairs are found, a pair whose boxes both lie past the
    row of the last of them cannot enter, so the boxes past that row keep only
    their candidates at or before it, and the sweep ends when none is left.
    """
    arr = np.asarray(boxes, dtype=float)
    n = len(arr)
    if n < 2:
        return []
    lo, hi = arr[:, 0::2], arr[:, 1::2]
    m = lo.shape[1]
    order, start, count = min((_sweep(lo, hi, a, (a + 1) % m) for a in range(m)),
                              key=lambda sweep: sweep[2].sum())
    box = np.arange(len(count)) // 2  # two runs per box
    found = np.empty(0, dtype=np.int64)
    row = n  # the boxes past this row keep only their candidates at or before it
    run, ends = 0, np.cumsum(count)
    while run < len(count):
        last = int(found[-1]) // n if len(found) == _MAX_OVERLAPS else n
        if last < row and box[run] > last:
            row = last
            low = np.flatnonzero(order <= row)  # sweep positions of the boxes up to the row
            first = np.searchsorted(low, start[run:])
            count = np.searchsorted(low, start[run:] + count[run:]) - first
            keep = count > 0
            order, box, start, count = order[low], box[run:][keep], first[keep], count[keep]
            run, ends = 0, np.cumsum(count)
            continue
        done = ends[run - 1] if run else 0
        stop = max(run + 1, int(np.searchsorted(ends, done + _SWEEP_CHUNK, side="right")))
        c = count[run:stop]
        i = np.repeat(box[run:stop], c)
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
    tags = pairs.tags
    parts = [geometry(pairs, tags) for cells, geometry in
             ((pairs.cubes, _cube_geometry), (pairs.rects, _chart_geometry)) if len(cells[0])]
    rows = np.concatenate([part[0] for part in parts]) if parts else np.empty(0, dtype=int)
    if len(rows) < n:
        other = pairs[int(np.setdiff1d(np.arange(n), rows)[0])].piece
        raise TypeError(f"cannot bound the diameter of {type(other).__name__}")
    order = np.argsort(rows)
    inside, diam, m_val, m_err, b_val, b_err, boxes = (
        np.concatenate(column)[order] for column in list(zip(*parts))[1:])

    dval = delta.many(tags)
    eta_val = eta.many(tags)
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
    total_mass = _check_pieces(family.pairs, delta, eta, report) if len(family.pairs) else 0.0

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
