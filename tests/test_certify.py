import ast
import dataclasses
import math
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_refs import gauge_at
from model_refs import from_callable

from stokeslab import certify
from stokeslab.certify import _CHECK_ORDER, CertificateReport
from stokeslab.quadrature import integrate_2d, integrate_boxes
from stokeslab.cousin import (Gauge, PieceTable, RegularityFn, SubadditiveFn, TaggedPair,
                              cousin_decompose, gauge_decompose)
from stokeslab.currents import ChartCurrent, ChartMap, Rect, SurfaceCurrent, TopDimCurrent
from stokeslab.dyadic import CubeSet, DyadicCube, ExceptionalSet, RootBox

ROOT = RootBox((0.0, 0.0), 1.0)
MASS = SubadditiveFn.mass()
ETA = RegularityFn.constant(0.1)
GAUGE = Gauge.constant(0.1)  # generation-4 cubes: 256 pieces


def _dense_overlap(boxes):
    """The n x n reference: every ordered pair of boxes (lo_0, hi_0, lo_1, hi_1, ...) at once."""
    arr = np.asarray(boxes, dtype=float)
    overlap = np.ones((len(arr), len(arr)), dtype=bool)
    for lo, hi in zip(arr[:, 0::2].T, arr[:, 1::2].T):
        overlap &= np.minimum(hi[:, None], hi[None, :]) - np.maximum(lo[:, None], lo[None, :]) > 1e-12
    np.fill_diagonal(overlap, False)
    return overlap


def _dense_pairs(boxes):
    """The reference's first 8 ordered pairs, in row-major order."""
    return [tuple(p) for p in np.argwhere(_dense_overlap(boxes))[:8].tolist()]


def _dense_overlap_messages(boxes):
    """The reference's messages: the first 8 ordered pairs, reported once each."""
    return [f"pieces {i} and {j}: interiors overlap" for i, j in _dense_pairs(boxes) if i < j]


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
    boxes = [_footprint(p.piece) for p in family.pairs]
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
    assert certify._overlapping_pairs(boxes) == _dense_pairs(boxes)


def test_clean_cube_family_reports_no_violation():
    family = _clean_cube_family()
    assert len(family.pairs) == 256
    report = certify.check_family(family, GAUGE, ETA, MASS)
    assert report.passed and report.violations == []


def test_clean_chart_family_reports_no_violation():
    zeros = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    chart = ChartMap(psi=zeros, gradient=lambda x, y: (zeros(x, y), zeros(x, y)), lip_upper=1.0)
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
        assert len(piece.domain_rects()) > 4 and len(piece.boundary_edges()[1]) > 4
    for (value, error), ref in ((_chart_mass(piece), piece.mass()),
                                (_chart_boundary_mass(piece), piece.boundary_mass())):
        assert abs(value - ref.value) <= max(1e-9 * ref.value, error + ref.error)


def _tagged(piece):
    """A pair of the piece tagged at the lift of its first rectangle's lower corner."""
    r = piece.domain_rects()[0]
    return TaggedPair(tuple(piece.lift(np.array([r.x0, r.y0])).tolist()), piece,
                      0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("batch", [False, True])
def test_batched_chart_geometry_has_the_bits_of_the_per_piece_references(batch):
    # the parabolic, staircase and strip pieces one at a time, and all in one run
    pieces = list(_chart_pieces().values())
    for group in [pieces] if batch else [[piece] for piece in pieces]:
        table = PieceTable.gather([_tagged(piece) for piece in group])
        _, inside, _, *columns, _ = certify._chart_geometry(table, table.tags)
        assert inside.all()
        for k, piece in enumerate(group):
            expected = (*_chart_mass(piece), *_chart_boundary_mass(piece))
            assert [float(c[k]).hex() for c in columns] == [float(v).hex() for v in expected]


# -- the checker as it was before it made one pass over the family -----------
# check_family and _footprint below, with the helpers they called that are now
# gone from certify, are the per-piece loop verbatim; the one-pass checker must
# give the same violations in the same order and the same checked_mass bits.
# Their overlap search is the dense reference, which keeps the old planar
# footprints: a 3-D cube projects onto the xy-plane, so cubes stacked in z
# "overlap" there.


def _overlapping_pairs(boxes):
    return _dense_pairs(boxes)


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
    _, p, end, _, _ = piece.boundary_edges()
    d = end - p
    length = np.linalg.norm(d, axis=1)

    def speed(edge, t):
        x = p[edge, 0, None] + t * d[edge, 0, None]
        y = p[edge, 1, None] + t * d[edge, 1, None]
        px, py = chart.gradient(x, y)
        dz = px * d[edge, 0, None] + py * d[edge, 1, None]
        return np.sqrt(length[edge, None] ** 2 + dz ** 2)

    n = len(p)
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

        dval = gauge_at(delta, tag)
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

        eta_val = float(eta.many(np.asarray(tag, dtype=float)[None])[0])
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


# -- the one-pass checker against the reference ---------------------------------


def _cube_family(m, gauge):
    root = RootBox((0.0,) * m, 1.0)
    return cousin_decompose(DyadicCube(root, 0, (0,) * m), gauge, 0.01)


def _replace_pairs(family, pairs):
    return dataclasses.replace(family, pairs=tuple(pairs))


def _tag_moved_out(family):
    pairs = list(family.pairs)
    for k in (3, len(pairs) // 2):
        lo, hi = pairs[k].piece.region.cubes[0].bounds()
        pairs[k] = dataclasses.replace(pairs[k], tag=tuple(hi + 0.25 * (hi - lo)))
    return _replace_pairs(family, pairs)


def _duplicated_and_shifted(family):
    pairs = list(family.pairs)
    template = pairs[1]
    lo, hi = template.piece.region.cubes[0].bounds()
    shift = 0.5 * (hi - lo)
    moved = CubeSet.whole(RootBox(tuple(lo + shift), float(hi[0] - lo[0])))
    pairs.insert(4, pairs[-1])
    pairs.insert(len(pairs) // 2, dataclasses.replace(template, piece=TopDimCurrent(moved),
                                                      tag=tuple(lo + shift)))
    return _replace_pairs(family, pairs)


def _multi_cube(family):
    """Merge runs of 2, 3 and 4 neighbouring cube pieces, and two far apart, into one piece each."""
    pairs = list(family.pairs)
    merged = []
    for start, stop in ((0, 2), (4, 7), (8, 12)):
        cubes = [q for p in pairs[start:stop] for q in p.piece.region.cubes]
        merged.append(dataclasses.replace(pairs[start], piece=TopDimCurrent(CubeSet(cubes[0].root, cubes))))
    far = [pairs[13].piece.region.cubes[0], pairs[-1].piece.region.cubes[0]]
    merged.append(dataclasses.replace(pairs[13], piece=TopDimCurrent(CubeSet(far[0].root, far), theta=-2)))
    return _replace_pairs(family, [merged[0], *pairs[2:4], merged[1], merged[2],
                                   *pairs[12:13], merged[3], *pairs[14:-1]])


def _vanishing_gauge(family):
    """A gauge that vanishes at two tags and is 0.1 elsewhere."""
    tags = [family.pairs[2].tag, family.pairs[-3].tag]
    return Gauge.distance_to(ExceptionalSet.points(tags), 10.0).min_with(Gauge.constant(0.1))


def _family_cases(m):
    """(family, delta, eta): clean and corrupted cube families in m dimensions."""
    gauge = Gauge.constant({1: 0.1, 2: 0.15, 3: 0.5}[m])  # 16, 256 and 64 cubes
    clean = _cube_family(m, gauge)
    high_eta = from_callable(RegularityFn, lambda x: np.where(x[:, 0] > 0.5, 1.0, 0.01))
    eta = RegularityFn.constant(0.01)
    return {
        "clean": (clean, gauge, eta),
        "tag-moved-out": (_tag_moved_out(clean), gauge, eta),
        "gauge-zero": (clean, _vanishing_gauge(clean), eta),
        "diameter-too-large": (clean, Gauge.constant(0.05), eta),
        "low-regularity": (clean, gauge, high_eta),
        "constant-eta": (clean, gauge, RegularityFn.constant(0.6)),  # above every regularity
        "duplicated-and-shifted": (_duplicated_and_shifted(clean), gauge, eta),
        "multi-cube": (_multi_cube(clean), gauge, eta),
    }


def _assert_same_report(new, old):
    assert new.violations == old.violations
    assert new.passed == old.passed and new.pieces == old.pieces
    assert new.checked_mass.hex() == old.checked_mass.hex()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("case", ["clean", "tag-moved-out", "gauge-zero", "diameter-too-large",
                                  "low-regularity", "constant-eta", "duplicated-and-shifted",
                                  "multi-cube"])
def test_one_pass_checker_equals_the_per_piece_loop_on_cube_families(m, case):
    family, delta, eta = _family_cases(m)[case]
    new = certify.check_family(family, delta, eta, MASS)
    old = check_family(family, delta, eta, MASS)
    _assert_same_report(new, old)
    assert (case == "clean") == new.passed


def test_the_checker_builds_no_cube_object_for_multi_cube_pieces(monkeypatch):
    family, delta, eta = _family_cases(2)["multi-cube"]
    built = []
    init = DyadicCube.__post_init__
    monkeypatch.setattr(DyadicCube, "__post_init__", lambda self: built.append(self) or init(self))
    certify.check_family(family, delta, eta, MASS)
    assert built == []


def test_one_pass_checker_equals_the_per_piece_loop_on_a_chart_family():
    from stokeslab.cli import _build_current

    parabolic = _build_current({"kind": "parabolic_graph"})
    gauge, eta = Gauge.constant(0.3), RegularityFn.constant(0.05)
    family = gauge_decompose(parabolic, ExceptionalSet.empty(), gauge, eta, MASS, 1e-3)
    pairs = list(family.pairs)
    pairs[1] = dataclasses.replace(pairs[1], tag=tuple(np.asarray(pairs[1].tag) + (0.0, 0.0, 1e-3)))
    pairs.insert(3, pairs[5])
    corrupted = _replace_pairs(family, pairs)
    for fam, eta_used in ((family, eta), (corrupted, eta), (family, RegularityFn.constant(0.3))):
        new = certify.check_family(fam, gauge, eta_used, MASS)
        _assert_same_report(new, check_family(fam, gauge, eta_used, MASS))
    assert certify.check_family(family, gauge, eta, MASS).passed
    assert not certify.check_family(corrupted, gauge, eta, MASS).passed


@pytest.mark.parametrize("case", ["clean", "tag-moved-out", "low-regularity",
                                  "duplicated-and-shifted", "multi-cube"])
def test_three_dimensional_cubes_differ_from_the_reference_only_in_false_overlaps(case):
    family, delta, eta = _family_cases(3)[case]
    new = certify.check_family(family, delta, eta, MASS)
    old = check_family(family, delta, eta, MASS)
    kept = [v for v in old.violations if not v.endswith("interiors overlap")]
    assert [v for v in new.violations if not v.endswith("interiors overlap")] == kept
    assert set(_overlap_messages(old)) - set(_overlap_messages(new))  # stacked in z
    assert new.checked_mass.hex() == old.checked_mass.hex()
    boxes = [np.ravel(np.stack(
        [np.min([q.bounds()[0] for q in p.piece.region.cubes], axis=0),
         np.max([q.bounds()[1] for q in p.piece.region.cubes], axis=0)], axis=1))
        for p in family.pairs]
    assert _overlap_messages(new) == _dense_overlap_messages(boxes)
    assert bool(_overlap_messages(new)) == (case in ("duplicated-and-shifted", "multi-cube"))


def test_cubes_stacked_in_z_do_not_overlap():
    root = RootBox((0.0, 0.0, 0.0), 1.0)
    family = cousin_decompose(DyadicCube(root, 0, (0, 0, 0)), Gauge.constant(1.0), 0.01)
    assert len(family.pairs) == 8
    report = certify.check_family(family, Gauge.constant(1.0), RegularityFn.constant(0.01), MASS)
    assert report.passed and report.violations == []


def test_checker_imports_nothing_from_the_decomposition_engine():
    tree = ast.parse(Path(certify.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add("stokeslab." + module if node.level else module)
            imported |= {f"stokeslab.{module}.{alias.name}".replace("..", ".")
                         for alias in node.names if node.level}
    assert imported
    assert not any(name == "stokeslab.cousin" or name.startswith("stokeslab.cousin.")
                   for name in imported)


# -- the overlap sweep ---------------------------------------------------------

_EDGES = [0.0, 0.25, 0.5, 0.5 + 5e-13, 0.75, 1.0]
_WIDTHS = [0.0, 5e-13, 2e-12, 0.25, 0.5, 1.0]


@st.composite
def _box_lists(draw, axes):
    """Boxes on a coarse grid: ties, duplicates, nesting, touching and sub-1e-12 overlaps."""
    def box():
        if draw(st.booleans()):  # a dyadic cube of a column layout
            g = draw(st.integers(0, 3))
            idx = [draw(st.integers(0, (1 << g) - 1)) for _ in range(axes)]
            return [v for i in idx for v in (i / (1 << g), (i + 1) / (1 << g))]
        lo = [draw(st.sampled_from(_EDGES)) for _ in range(axes)]
        return [v for a in lo for v in (a, a + draw(st.sampled_from(_WIDTHS)))]
    pool = draw(st.lists(st.builds(box), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return [pool[k] for k in picks]


@pytest.mark.parametrize("axes", [1, 2, 3])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_overlapping_pairs_equal_the_dense_reference(axes, data):
    boxes = np.array(data.draw(_box_lists(axes)), dtype=float).reshape(-1, 2 * axes)
    chunk = data.draw(st.sampled_from([1, 3, 64, certify._SWEEP_CHUNK]))
    with mock.patch.object(certify, "_SWEEP_CHUNK", chunk):
        assert certify._overlapping_pairs(boxes) == _dense_pairs(boxes)


def test_overlap_sweep_scales_to_fifty_thousand_squares():
    # disjoint squares of the 2^-8 grid, row-major; every lower edge is shared
    # by a whole row or column, so a sweep on one axis alone is quadratic in it
    k = np.arange(50_000)
    x, y = (k // 256) / 256, (k % 256) / 256
    boxes = np.stack([x, x + 1 / 256, y, y + 1 / 256], axis=1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        pairs = certify._overlapping_pairs(boxes)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs == []
    assert elapsed < 1.0
    assert peak < 64 * len(boxes) * 8  # linear in n: 64 doubles per box; n x n would be 20 GB


@pytest.mark.parametrize("where", ["first", "last"])
def test_overlap_sweep_stops_once_its_pairs_are_fixed(where):
    # 8,000 identical boxes are 32M candidate pairs; the first eight ordered
    # pairs are fixed by the boxes of the first rows, after a few thousand
    n = 8_000
    boxes = np.tile([0.0, 1.0, 0.0, 1.0], (n, 1))
    if where == "last":
        # the others spread out: only the last two boxes overlap, each other
        boxes[:-2] += 2.0 * np.arange(1, n - 1)[:, None]
    start = time.perf_counter()
    pairs = certify._overlapping_pairs(boxes)
    elapsed = time.perf_counter() - start
    if where == "first":
        assert pairs == [(0, j) for j in range(1, 9)]
    else:
        assert pairs == [(n - 2, n - 1), (n - 1, n - 2)]
    assert elapsed < 1.0
