import dataclasses
import math

import numpy as np
import pytest

from stokeslab import certify
from stokeslab.cousin import Gauge, RegularityFn, SubadditiveFn, cousin_decompose, gauge_decompose
from stokeslab.currents import ChartCurrent, ChartMap, Rect, TopDimCurrent
from stokeslab.dyadic import CubeSet, DyadicCube, ExceptionalSet, RootBox

ROOT = RootBox((0.0, 0.0), 1.0)
MASS = SubadditiveFn.mass()
ETA = RegularityFn.constant(0.1)
GAUGE = Gauge.constant(0.1)  # generation-4 cubes: 256 pieces


def _dense_overlap(boxes):
    """The n x n reference: every ordered pair of footprints at once."""
    arr = np.asarray(boxes)
    x0, x1, y0, y1 = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    ox = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
    oy = np.minimum(y1[:, None], y1[None, :]) - np.maximum(y0[:, None], y0[None, :])
    overlap = (ox > 1e-12) & (oy > 1e-12)
    np.fill_diagonal(overlap, False)
    return overlap


def _dense_overlap_messages(boxes):
    """The reference's messages: the first 8 ordered pairs, reported once each."""
    pairs = np.argwhere(_dense_overlap(boxes))[:8]
    return [f"pieces {i} and {j}: interiors overlap" for i, j in pairs if i < j]


def _overlap_messages(report):
    return [v for v in report.violations if v.endswith("interiors overlap")]


def _clean_cube_family():
    return cousin_decompose(DyadicCube(ROOT, 0, (0, 0)), GAUGE, 0.1)


def _square_piece(corner, side):
    return TopDimCurrent(CubeSet.whole(RootBox(corner, side)))


def _with_overlaps(family):
    """The clean family plus a duplicated, a shifted and a large piece."""
    pairs = list(family.pairs)
    template = pairs[0]
    shifted = dataclasses.replace(template, piece=_square_piece((0.53125, 0.28125), 0.0625),
                                  tag=(0.5625, 0.3125))
    large = dataclasses.replace(template, piece=_square_piece((0.0, 0.0), 0.5), tag=(0.25, 0.25))
    pairs.insert(5, pairs[200])  # duplicate
    pairs.insert(140, shifted)  # straddles four grid cubes
    pairs.insert(60, large)  # covers 64 grid cubes
    return dataclasses.replace(family, pairs=tuple(pairs))


def _layout(name):
    family = _clean_cube_family()
    if name == "appended":  # the only overlap lies beyond the first block of rows
        return dataclasses.replace(family, pairs=family.pairs + family.pairs[-1:])
    family = _with_overlaps(family)
    if name == "shuffled":
        order = np.random.default_rng(0).permutation(len(family.pairs))
        family = dataclasses.replace(family, pairs=tuple(family.pairs[k] for k in order))
    return family


@pytest.mark.parametrize("layout", ["inserted", "shuffled", "appended"])
def test_overlaps_match_the_dense_reference(layout):
    family = _layout(layout)
    assert len(family.pairs) > 256
    boxes = [certify._footprint(p.piece) for p in family.pairs]
    report = certify.check_family(family, GAUGE, ETA, MASS)
    expected = _dense_overlap_messages(boxes)
    assert expected
    assert _overlap_messages(report) == expected
    assert not report.passed
    if layout != "appended":
        assert _dense_overlap(boxes).sum() // 2 > 8  # more pairs than get reported


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_overlapping_pairs_equal_the_dense_argwhere_on_random_boxes(n):
    rng = np.random.default_rng(n)
    lo = rng.uniform(0.0, 1.0, size=(n, 2))
    side = rng.uniform(0.0, 0.02, size=(n, 2))
    boxes = [(a, a + w, b, b + h) for (a, b), (w, h) in zip(lo, side)]
    expected = [tuple(p) for p in np.argwhere(_dense_overlap(boxes))[:8].tolist()]
    assert certify._overlapping_pairs(boxes) == expected


def test_clean_cube_family_reports_no_violation():
    family = _clean_cube_family()
    assert len(family.pairs) == 256
    report = certify.check_family(family, GAUGE, ETA, MASS)
    assert report.passed and report.violations == []


def test_clean_chart_family_reports_no_violation():
    zeros = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    chart = ChartMap(psi=zeros, dpsi_dx=zeros, dpsi_dy=zeros, lip_upper=1.0)
    C = ChartCurrent(Rect(0.0, math.pi, 0.0, 0.5), chart)
    eta = RegularityFn.constant(0.05)
    family = gauge_decompose(C, ExceptionalSet.empty(), Gauge.constant(0.15), eta, MASS, 1e-3)
    assert len(family.pairs) > 256
    report = certify.check_family(family, Gauge.constant(0.15), eta, MASS)
    assert report.passed and report.violations == []


def _chart_pieces():
    """A parabolic rectangle, a parabolic staircase of several rectangles and a strip piece."""
    from stokeslab.cli import _build_current
    from stokeslab.counterexample import build_surface_current

    parabolic = _build_current({"kind": "parabolic_graph"})
    cubes = [DyadicCube(ROOT, 2, (0, j)) for j in range(4)] + \
        [DyadicCube(ROOT, 2, (1, j)) for j in range(3)] + [DyadicCube(ROOT, 3, (4, 0))]
    staircase = ChartCurrent(CubeSet(ROOT, tuple(cubes)), parabolic.chart)
    model = build_surface_current().model
    _, lo, hi = model.strip_windows(0.0, model.y_infinity)[1]
    strip = ChartCurrent(Rect(model.x_lo, model.x_lo + 0.1, lo, lo + 0.5 * (hi - lo)),
                         model.strip_chart(1))
    return {"parabolic": parabolic, "staircase": staircase, "strip": strip}


@pytest.mark.parametrize("name", ["parabolic", "staircase", "strip"])
def test_chart_masses_agree_with_the_engine(name):
    # within 1e-9 relative, or within the two error estimates: the checker
    # integrates to 1e-9 absolute, which is 1e-7 of the strip piece's mass
    piece = _chart_pieces()[name]
    if name == "staircase":
        assert len(piece.domain_rects()) > 4 and len(piece.planar_edges()) > 4
    for (value, error), ref in ((certify._chart_mass(piece), piece.mass()),
                                (certify._chart_boundary_mass(piece), piece.boundary_mass())):
        assert abs(value - ref.value) <= max(1e-9 * ref.value, error + ref.error)
