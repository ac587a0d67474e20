"""Independent certificate checker for tagged families.

Everything is recomputed from the raw geometry: cube measures by direct
arithmetic, chart masses by a fresh quadrature at a different order than
the builder uses, diameters from certified upper bounds, nonoverlap from
planar footprints.  The checker intentionally shares no computation with
the decomposition engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .currents import ChartCurrent, Rect, SurfaceCurrent, TopDimCurrent
from .quadrature import integrate_2d, integrate_boxes

__all__ = ["CertificateReport", "check_family"]

_CHECK_ORDER = 10  # builder integrates at order 12; the checker re-derives at 10
_OVERLAP_BLOCK_ROWS = 128  # footprint rows tested against all others at once
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


def _footprint(piece) -> tuple[float, float, float, float]:
    """Planar parameter-domain bounding box (x0, x1, y0, y1)."""
    if isinstance(piece, TopDimCurrent):
        los, his = [], []
        for q in piece.region.cubes:
            lo, hi = q.bounds()
            los.append(lo)
            his.append(hi)
        lo = np.min(los, axis=0)
        hi = np.max(his, axis=0)
        if piece.region.m == 1:
            return (lo[0], hi[0], 0.0, 1.0)
        return (lo[0], hi[0], lo[1], hi[1])
    if isinstance(piece, ChartCurrent):
        rects = piece.domain_rects()
        return (min(r.x0 for r in rects), max(r.x1 for r in rects),
                min(r.y0 for r in rects), max(r.y1 for r in rects))
    if isinstance(piece, SurfaceCurrent):
        return (piece.model.x_lo, piece.model.x_hi, piece.y_lo, piece.y_hi)
    raise TypeError(f"no footprint for {type(piece).__name__}")


def _chart_diam_upper(piece: ChartCurrent) -> float:
    """Certified diameter bound: planar diameter times the Lipschitz constant."""
    x0, x1, y0, y1 = _footprint(piece)
    return piece.chart.lip_upper * math.hypot(x1 - x0, y1 - y0)


def _piece_diam_upper(piece) -> float:
    if isinstance(piece, TopDimCurrent):
        return piece.region.diameter()
    if isinstance(piece, ChartCurrent):
        return _chart_diam_upper(piece)
    raise TypeError(f"cannot bound the diameter of {type(piece).__name__}")


def _tag_in_support(piece, tag: np.ndarray) -> bool:
    if isinstance(piece, TopDimCurrent):
        return piece.region.contains(tag)
    if isinstance(piece, ChartCurrent):
        x, y = float(tag[0]), float(tag[1])
        if isinstance(piece.domain, Rect):
            inside = piece.domain.contains(x, y)
        else:
            inside = piece.domain.contains((x, y))
        if not inside:
            return False
        return abs(float(piece.chart.psi(x, y)) - float(tag[2])) <= 1e-9
    return False


def _overlapping_pairs(boxes) -> list[tuple[int, int]]:
    """The first _MAX_OVERLAPS ordered pairs i != j of overlapping footprints.

    Pairs come in row-major order, both (i, j) and (j, i); the test runs
    _OVERLAP_BLOCK_ROWS rows at a time, so memory stays O(block * n).
    """
    arr = np.asarray(boxes, dtype=float).reshape(-1, 4)
    x0, x1, y0, y1 = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    pairs: list[tuple[int, int]] = []
    for r0 in range(0, len(arr), _OVERLAP_BLOCK_ROWS):
        rows = slice(r0, r0 + _OVERLAP_BLOCK_ROWS)
        ox = np.minimum(x1[rows, None], x1[None, :]) - np.maximum(x0[rows, None], x0[None, :])
        oy = np.minimum(y1[rows, None], y1[None, :]) - np.maximum(y0[rows, None], y0[None, :])
        overlap = (ox > 1e-12) & (oy > 1e-12)
        band = np.arange(len(overlap))
        overlap[band, r0 + band] = False
        pairs.extend((r0 + int(i), int(j)) for i, j in np.argwhere(overlap))
        if len(pairs) >= _MAX_OVERLAPS:
            break
    return pairs[:_MAX_OVERLAPS]


def check_family(family, delta, eta, G=None) -> CertificateReport:
    """Re-verify fineness, regularity, nonoverlap, tags, and fullness."""
    report = CertificateReport(passed=True, pieces=len(family.pairs))
    boxes = []
    total_mass = 0.0
    for i, pair in enumerate(family.pairs):
        piece = pair.piece
        tag = np.asarray(pair.tag, dtype=float)

        if not _tag_in_support(piece, tag):
            report.add(f"piece {i}: tag {tag.tolist()} is not in the support")

        dval = delta(tag)
        if dval <= 0:
            report.add(f"piece {i}: gauge vanishes at the tag")
        diam_upper = _piece_diam_upper(piece)
        if not diam_upper < dval:
            report.add(
                f"piece {i}: diameter bound {diam_upper:.6g} not below delta(tag) {dval:.6g}"
            )

        if isinstance(piece, TopDimCurrent):
            m_val = abs(piece.theta) * math.fsum(q.measure() for q in piece.region.cubes)
            m_err = 0.0
            b_val = abs(piece.theta) * piece.region.perimeter()
            b_err = 0.0
        else:
            m_val, m_err = _chart_mass(piece)
            b_val, b_err = _chart_boundary_mass(piece)
        total_mass += m_val

        eta_val = float(eta(tag)) if callable(eta) else float(eta)
        reg_lower = (m_val - m_err) / ((b_val + b_err) * diam_upper)
        if not reg_lower > eta_val:
            report.add(
                f"piece {i}: regularity lower bound {reg_lower:.6g} not above eta {eta_val:.6g}"
            )

        boxes.append(_footprint(piece))

    # pairwise nonoverlap of parameter-domain footprints
    for i, j in _overlapping_pairs(boxes):
        if i < j:
            report.add(f"pieces {i} and {j}: interiors overlap")

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
