import itertools
import json
import math
import operator
import tracemalloc
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_refs import (DyadicCube, cube_max_distance_bound, cube_min_distance, cube_set, cubes_of,
                       corners, gauge_at, neighborhood_indicator, subdivide)

from stokeslab.cli import _cube_set
from stokeslab.cousin import Gauge
from stokeslab.currents import TopDimCurrent
from stokeslab.dyadic import (
    CubeSet,
    DepthError,
    ExceptionalSet,
    GridError,
    RootBox,
)

ROOT = RootBox((0.0, 0.0), 1.0)
UNIT = CubeSet.whole(ROOT)


def _cube(g, i, j, root=ROOT):
    return DyadicCube(root, g, (i, j))


def test_measure_unit_square():
    assert UNIT.measure() == 1.0


def test_measure_minus_generation2_cube():
    rest = UNIT.difference(CubeSet.of(ROOT, [2], [(0, 0)]))
    assert rest.measure() == 15.0 / 16.0


def test_measure_empty():
    assert CubeSet.empty(ROOT).measure() == 0.0


def test_perimeter_unit_square():
    assert UNIT.perimeter() == 4.0


def test_perimeter_adjacent_squares():
    root2 = RootBox((0.0, 0.0), 2.0)
    two = CubeSet.of(root2, [1, 1], [(0, 0), (0, 1)])
    assert two.perimeter() == 6.0
    assert two.measure() == 2.0


def test_perimeter_l_shape():
    # removing a corner quarter leaves the outer perimeter unchanged
    l_shape = UNIT.difference(CubeSet.of(ROOT, [1], [(1, 1)]))
    assert l_shape.perimeter() == 4.0


def test_perimeter_one_dimensional():
    root = RootBox((0.0,), 1.0)
    whole = CubeSet.whole(root)
    assert whole.perimeter() == 2.0
    halves = cube_set(root, tuple(subdivide(cubes_of(whole)[0])))
    assert halves.perimeter() == 2.0  # interior endpoint cancels


def test_diameter_unit_square():
    assert UNIT.diameter() == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_diameter_single_cube_scales():
    c = CubeSet.of(ROOT, [3], [(2, 5)])
    assert c.diameter() == pytest.approx((1 / 8) * math.sqrt(2.0), abs=1e-15)


def test_diameter_two_far_cubes():
    root4 = RootBox((0.0, 0.0), 4.0)
    pair = CubeSet.of(root4, [2, 2], [(0, 0), (3, 0)])
    assert pair.diameter() == pytest.approx(math.sqrt(17.0), abs=1e-14)


def test_diameter_empty_raises():
    with pytest.raises(ValueError):
        CubeSet.empty(ROOT).diameter()


def _pairwise_diameter(s: CubeSet) -> float:
    """CubeSet.diameter before its one-cube shortcut, verbatim."""
    pts = np.unique(np.vstack([corners(q) for q in cubes_of(s)]), axis=0)
    if s.m == 1:
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


@st.composite
def _one_cube_sets(draw):
    m = draw(st.integers(1, 3))
    corner = tuple(draw(st.floats(-1e3, 1e3)) for _ in range(m))
    root = RootBox(corner, draw(st.floats(1e-3, 1e3)))
    generation = draw(st.integers(0, 40))
    index = tuple(draw(st.integers(0, 2 ** generation - 1)) for _ in range(m))
    return CubeSet.of(root, [generation], [index])


@given(_one_cube_sets())
@settings(max_examples=400, deadline=None)
def test_one_cube_diameter_keeps_the_bits_of_the_pairwise_maximum(s):
    assert s.diameter().hex() == _pairwise_diameter(s).hex()


def test_subdivide_children():
    kids = subdivide(cubes_of(UNIT)[0])
    assert len(kids) == 4
    assert math.fsum(k.measure() for k in kids) == 1.0
    grandkid = subdivide(kids[0])[0]
    assert grandkid.side == 0.25


def test_subdivide_interval():
    root = RootBox((0.0,), 1.0)
    kids = subdivide(cubes_of(CubeSet.whole(root))[0])
    assert len(kids) == 2


def test_subdivide_depth_guard():
    with pytest.raises(DepthError):
        subdivide(_cube(2, 0, 0), max_generation=2)


def test_neighborhood_indicator_point():
    E = ExceptionalSet.points([(0.0, 0.0)])
    assert neighborhood_indicator(E, 1.0, (0.5, 0.0))
    assert not neighborhood_indicator(E, 1.0, (1.0, 0.0))  # open neighbourhood


def test_neighborhood_indicator_thin_box_clamps():
    y_inf = 0.5
    E = ExceptionalSet.box((0.0, y_inf, -1.0), (math.pi, y_inf, 1.0))
    assert E.distance((1.0, y_inf - 0.3, 0.0)) == pytest.approx(0.3, abs=1e-15)
    assert not neighborhood_indicator(E, 0.2, (1.0, y_inf - 0.3, 0.0))


def test_canonicalization_merges_and_dedups():
    kids = subdivide(cubes_of(UNIT)[0])
    redundant = cube_set(ROOT, tuple(kids) + (kids[0],) + tuple(subdivide(kids[1])))
    assert redundant == UNIT
    assert cube_set(ROOT, cubes_of(redundant)) == redundant


def test_union_intersection_difference():
    a = CubeSet.of(ROOT, [1, 1], [(0, 0), (1, 0)])
    b = CubeSet.of(ROOT, [1, 2], [(1, 0), (0, 3)])
    assert a.union(b).measure() == pytest.approx(0.5 + 1 / 16, abs=0)
    assert a.intersection(b).measure() == 0.25
    assert a.difference(b).measure() == 0.25
    assert b.difference(a).measure() == 1 / 16


def test_grid_mismatch_raises():
    other = CubeSet.whole(RootBox((0.0, 0.0), 2.0))
    with pytest.raises(GridError):
        UNIT.union(other)


def test_half_space_restriction():
    left = UNIT.restrict_half_space(0, 0.5, keep_below=True)
    assert left.measure() == 0.5
    assert left.perimeter() == 3.0
    with pytest.raises(GridError):
        UNIT.restrict_half_space(0, 1 / 3, keep_below=True, max_generation=8)


def test_json_round_trip_bit_exact():
    l_shape = UNIT.difference(CubeSet.of(ROOT, [1], [(1, 1)]))
    text = json.dumps(l_shape.payload())
    back = _cube_set(json.loads(text))
    assert back == l_shape
    assert json.dumps(back.payload()) == text


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_subdivision_preserves_measure_exactly(seed):
    rng = np.random.default_rng(seed)
    g = int(rng.integers(0, 5))
    idx = tuple(int(v) for v in rng.integers(0, 2 ** g, size=2))
    q = DyadicCube(ROOT, g, idx)
    assert math.fsum(c.measure() for c in subdivide(q)) == q.measure()


def _random_complex(rng, max_cubes=12):
    gens, indices = [], []
    for _ in range(int(rng.integers(1, max_cubes))):
        g = int(rng.integers(1, 5))
        indices.append(tuple(int(v) for v in rng.integers(0, 2 ** g, size=2)))
        gens.append(g)
    return CubeSet.of(ROOT, gens, indices)


def test_perimeter_subadditive_on_disjoint_complexes():
    rng = np.random.default_rng(42)
    done = 0
    while done < 500:
        a = _random_complex(rng)
        b = _random_complex(rng)
        inter = a.intersection(b)
        if not inter.is_empty():
            b = b.difference(a)
            if b.is_empty():
                continue
        u = a.union(b)
        assert u.perimeter() <= a.perimeter() + b.perimeter() + 1e-12
        done += 1


def test_perimeter_at_least_isoperimetric_on_rectangles():
    # squares give equality in perimeter >= 4 sqrt(measure)
    root = RootBox((0.0, 0.0), 1.0)
    for g, i, j in [(0, 0, 0), (1, 1, 0), (2, 3, 2), (3, 5, 1)]:
        c = CubeSet.of(root, [g], [(i, j)])
        assert c.perimeter() == pytest.approx(4.0 * math.sqrt(c.measure()), rel=1e-14)
    # 2 x 1 rectangle of two generation-1 cubes: 6 >= 4 sqrt(1/2)
    rect = CubeSet.of(root, [1, 1], [(0, 0), (1, 0)])
    assert rect.perimeter() >= 4.0 * math.sqrt(rect.measure())


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_distance_evaluator_is_1_lipschitz(seed):
    rng = np.random.default_rng(seed)
    E = ExceptionalSet((
        ((0.1, 0.2), (0.1, 0.8)),
        ((0.5, 0.5), (0.9, 0.5)),
        ((0.3, 0.3), (0.3, 0.3)),
    ))
    x = rng.uniform(-1, 2, 2)
    y = rng.uniform(-1, 2, 2)
    assert abs(E.distance(x) - E.distance(y)) <= float(np.linalg.norm(x - y)) + 1e-12


def test_exceptional_set_segment_validation():
    with pytest.raises(ValueError):
        ExceptionalSet.segment((0.0, 0.0), (1.0, 1.0))


def test_cube_min_max_distance():
    E = ExceptionalSet.points([(0.0, 0.0)])
    q = _cube(1, 1, 1)  # [0.5, 1]^2
    assert cube_min_distance(E, q) == pytest.approx(math.hypot(0.5, 0.5), abs=1e-15)
    assert cube_max_distance_bound(E, q) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def _difference_by_scan(a, b):
    """The per-cube scan reference: each pushed cube scans all of b's cubes."""
    removed = {q.key() for q in cubes_of(b)}
    max_gen = max((q.generation for q in cubes_of(b)), default=0)
    out = []

    def push(q):
        if any(q.ancestor_key(g) in removed for g in range(q.generation + 1)):
            return
        if q.generation >= max_gen or not any(
            o.generation > q.generation and o.ancestor_key(q.generation) == q.key()
            for o in cubes_of(b)
        ):
            out.append(q)
            return
        for child in subdivide(q):
            push(child)

    for q in cubes_of(a):
        push(q)
    return cube_set(a.root, tuple(out))


@st.composite
def _cube_set_pairs(draw, max_generation=6, max_cubes=8):
    m = draw(st.integers(1, 3))
    root = RootBox((0.0,) * m, 1.0)

    def cube_set():
        gens, indices = [], []
        for _ in range(draw(st.integers(0, max_cubes))):
            g = draw(st.integers(0, max_generation))
            indices.append(tuple(draw(st.integers(0, 2 ** g - 1)) for _ in range(m)))
            gens.append(g)
        return CubeSet.of(root, gens, indices)

    return cube_set(), cube_set()


@given(_cube_set_pairs())
@settings(max_examples=300, deadline=None)
def test_difference_matches_the_per_cube_scan(pair):
    a, b = pair
    rest = a.difference(b)
    assert rest == _difference_by_scan(a, b)
    # dyadic measures down to generation 6 add without rounding
    assert rest.measure() + a.intersection(b).measure() == a.measure()



def test_diameter_of_many_intervals_stays_small():
    # a 1-D set used to fall back from the hull to an n x n difference array
    # (572 MiB at 2,500 intervals)
    root = RootBox((0.0,), 1.0)
    intervals = CubeSet.of(root, [13] * 2500, [(2 * i,) for i in range(2500)])
    tracemalloc.start()
    try:
        diameter = intervals.diameter()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diameter == 4999 / 8192
    assert peak < 8 * 2 ** 20


SHALLOW = 4  # cell references enumerate 2^(m * SHALLOW) cells at most


def _cells(s: CubeSet) -> set:
    """Integer corners of the generation-SHALLOW cells covered by s."""
    cells = set()
    for q in cubes_of(s):
        scale = 1 << (SHALLOW - q.generation)
        cells.update(itertools.product(*(range(i * scale, (i + 1) * scale) for i in q.index)))
    return cells


def _unit_cell_perimeter(s: CubeSet) -> float:
    cells = _cells(s)
    facets = sum(
        tuple(c + (d == axis) * step for d, c in enumerate(cell)) not in cells
        for cell in cells for axis in range(s.m) for step in (-1, 1)
    )
    return facets * (2.0 ** -SHALLOW) ** (s.m - 1)


@given(_cube_set_pairs(max_generation=SHALLOW))
@settings(max_examples=200, deadline=None)
def test_perimeter_matches_the_unit_cell_count(pair):
    for s in pair:
        assert s.perimeter() == _unit_cell_perimeter(s)
        if s.m <= 2:
            lengths = [math.prod(b - a for d, (a, b) in enumerate(zip(lo, hi)) if d != axis)
                       for axis, _, lo, hi in zip(*(f.tolist() for f in s.boundary_facets()))]
            assert math.fsum(lengths) == s.perimeter()


@given(_cube_set_pairs(max_generation=SHALLOW), st.integers(0, 2), st.integers(-1, 2 ** SHALLOW + 1),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_half_space_cut_matches_the_cell_reference(pair, axis, k, keep_below):
    s = pair[0]
    axis %= s.m
    threshold = k * 2.0 ** -SHALLOW
    cut = s.restrict_half_space(axis, threshold, keep_below)
    below = {c for c in _cells(s) if (c[axis] < k) == keep_below}
    expected = cube_set(s.root, tuple(DyadicCube(s.root, SHALLOW, c) for c in below))
    assert cut == expected
    # an off-grid threshold raises iff some cube straddles it
    third = 1.0 / 3.0
    bounds = [(q, *q.bounds()) for q in cubes_of(s)]
    if any(lo[axis] < third < hi[axis] for _, lo, hi in bounds):
        with pytest.raises(GridError):
            s.restrict_half_space(axis, third, keep_below)
    else:
        whole = tuple(q for q, _, hi in bounds if (hi[axis] <= third) == keep_below)
        assert s.restrict_half_space(axis, third, keep_below) == cube_set(s.root, whole)


def _finest_generation(self) -> int:
    return int(self.arrays[0].max(initial=0))


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


def _boundary_cells_by_scan(self):
    """Uncancelled oriented facet pieces at integer coordinates of the finest generation.

    The all-pairs reference: each facet is cut by every opposite facet on its line.
    """
    G = _finest_generation(self)
    rests = [tuple(d for d in range(self.m) if d != axis) for axis in range(self.m)]
    groups: dict[tuple, tuple[list, list]] = {}
    for q in cubes_of(self):
        scale = 1 << (G - q.generation)
        lo = tuple(i * scale for i in q.index)
        hi = tuple(l + scale for l in lo)
        for axis, rest in enumerate(rests):
            box = (tuple(lo[d] for d in rest), tuple(hi[d] for d in rest))
            groups.setdefault((axis, lo[axis]), ([], []))[1].append(box)
            groups.setdefault((axis, hi[axis]), ([], []))[0].append(box)
    for (axis, coord), (plus, minus) in groups.items():
        for orient, own, other in ((+1, plus, minus), (-1, minus, plus)):
            for blo, bhi in own:
                pieces = _box_difference(blo, bhi, other) if other else ((blo, bhi),)
                for piece_lo, piece_hi in pieces:
                    yield axis, coord, orient, piece_lo, piece_hi


def _boundary_cells(s: CubeSet):
    """The pieces of ``_boundary_facets`` in the layout of the scan, at generation G."""
    G = _finest_generation(s)
    for axis, orient, g, index in zip(*(a.tolist() for a in s._boundary_facets())):
        lo, hi = [i << (G - g) for i in index], [(i + 1) << (G - g) for i in index]
        rest = [d for d in range(s.m) if d != axis]
        yield (axis, (hi if orient > 0 else lo)[axis], orient,
               tuple(lo[d] for d in rest), tuple(hi[d] for d in rest))


def _unit_facets(m: int, pieces) -> np.ndarray:
    """The oriented unit facets (axis, coordinate, orientation, cell) of pieces, sorted.

    Every entry lies in [-1, 64] at generation 6 at most, so each facet is one
    int64 whose base-256 digits are its entries.
    """
    rows = [np.empty((0, m + 2), dtype=np.int64)]
    for axis, coord, orient, lo, hi in pieces:
        shape = [b - a for a, b in zip(lo, hi)]
        cells = np.indices(shape).reshape(m - 1, math.prod(shape)).T + np.array(lo, dtype=int)
        rows.append(np.column_stack([np.tile((axis, coord, orient), (len(cells), 1)), cells]))
    return np.sort(np.concatenate(rows) @ (1 << 8 * np.arange(m + 2)))


@given(_cube_set_pairs())
@settings(max_examples=300, deadline=None)
def test_facet_cancellation_matches_the_all_pairs_scan(pair):
    a, b = pair
    # the whole root minus b is rich in coarse facets cut by several fine ones
    for s in (a, b, a.union(b), a.difference(b), CubeSet.whole(a.root).difference(b)):
        pieces = _unit_facets(s.m, _boundary_cells(s))
        assert np.array_equal(pieces, _unit_facets(s.m, _boundary_cells_by_scan(s)))
        assert (np.diff(pieces) > 0).all()  # pairwise disjoint


@given(st.integers(1, 2), st.integers(0, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_one_cube_has_the_segments_low_then_high_axis_by_axis(m, g, data):
    corner = tuple(data.draw(st.floats(-1e3, 1e3)) for _ in range(m))
    side = data.draw(st.sampled_from([1.0, 0.3, 2.5e7]))
    index = tuple(data.draw(st.integers(0, 2 ** g - 1)) for _ in range(m))
    unit = side * 2.0 ** -g
    lo = [corner[d] + index[d] * unit for d in range(m)]
    hi = [corner[d] + (index[d] + 1) * unit for d in range(m)]
    expected = []
    for axis in range(m):
        for orient, coord in ((-1, lo[axis]), (1, hi[axis])):
            face_lo, face_hi = list(lo), list(hi)
            face_lo[axis] = face_hi[axis] = coord
            expected.append((axis, coord, orient, tuple(face_lo), tuple(face_hi)))
    root = RootBox(corner, side)
    facets = zip(*(f.tolist() for f in CubeSet.of(root, [g], [index]).boundary_facets()))
    assert [(a, l[a], o, tuple(l), tuple(h)) for a, o, l, h in facets] == expected


def test_perimeter_of_an_excised_square_is_not_quadratic():
    # 6,904 cubes around a segment; all-pairs facet cancellation took 4-5 s
    E = ExceptionalSet.segment((0.5, 0.0), (0.5, 1.0))
    region = TopDimCurrent(UNIT).restrict_outside(E, 0.01, 1e-3).region
    assert len(region.arrays[0]) == 6904
    t0 = perf_counter()
    perimeter = region.perimeter()
    elapsed = perf_counter() - t0
    assert perimeter == 5.958984375
    assert elapsed < 1.5


def _distance_by_norm(lo, hi, x) -> float:
    dev = np.maximum(np.asarray(lo) - x, 0.0) + np.maximum(x - np.asarray(hi), 0.0)
    return float(np.linalg.norm(dev))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("shape", ["points", "segments", "boxes"])
def test_every_distance_row_has_the_bits_of_the_norm(m, shape):
    rng = np.random.default_rng(10 * m + len(shape))
    elements = []
    for _ in range(3):
        lo = rng.uniform(-1.0, 1.0, m)
        hi = lo.copy()
        if shape == "segments":
            hi[rng.integers(m)] += rng.uniform(0.0, 1.0)
        elif shape == "boxes":
            hi += rng.uniform(0.0, 1.0, m)
        elements.append((tuple(lo), tuple(hi)))
    E = ExceptionalSet(tuple(elements))
    pts = rng.uniform(-3.0, 3.0, (3000, m)) * rng.uniform(0.0, 10.0, (3000, 1))
    expected = [min(_distance_by_norm(lo, hi, x) for lo, hi in E.elements) for x in pts]
    assert E.distance_many(pts).tolist() == expected
    assert [E.distance(x) for x in pts] == expected
    gauge = Gauge.distance_to(E, 0.7, 0.01).min_with(Gauge.constant(2.5))
    assert gauge.many(pts).tolist() == [gauge_at(gauge, x) for x in pts]
    assert gauge.many(pts).tolist() == [min(2.5, 0.7 * d + 0.01) for d in expected]
    root = RootBox(tuple(rng.uniform(-2.0, 0.0, m)), 3.0)
    for _ in range(300):
        g = int(rng.integers(0, 8))
        q = DyadicCube(root, g, tuple(int(i) for i in rng.integers(0, 2 ** g, m)))
        lo, hi = q.bounds()
        assert cube_min_distance(E, q) == min(
            float(np.linalg.norm(np.maximum(np.asarray(elo) - hi, 0.0)
                                 + np.maximum(lo - np.asarray(ehi), 0.0)))
            for elo, ehi in E.elements)
        assert cube_max_distance_bound(E, q) == min(
            float(np.linalg.norm(np.maximum(np.maximum(np.asarray(elo) - lo,
                                                       hi - np.asarray(ehi)), 0.0)))
            for elo, ehi in E.elements)
