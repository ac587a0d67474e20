"""The array ``refine`` and its callers against the object-by-object code they replaced.

The references below are the per-cube ``refine``, ``_ball_side``,
``_canonicalize``, ``CubeSet.of``, the region reader ``CubeSet.from_json``
(whose job the config reader ``cli._cube_set`` does now),
``CubeSet.intersection``, ``CubeSet.difference``, ``CubeSet.restrict_half_space``,
the ball sandwich of ``_cube_region_measure_in_ball`` and the per-cube
cube-to-set distances, kept as they were written before the array versions;
each array version must give equal sets, fsums with the same bits and the
same straddlers in the same order.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_refs import (DyadicCube, cube_max_distance_bound, cube_min_distance, cube_set, cubes_of,
                       subdivide)

from stokeslab import currents, dyadic
from stokeslab.cli import UsageError, _build_current, _cube_set
from stokeslab.cousin import Gauge, RegularityFn, SubadditiveFn, gauge_decompose
from stokeslab.currents import TopDimCurrent, _ball_side, _cube_region_measure_in_ball
from stokeslab.dyadic import (
    MAX_GENERATION,
    CubeSet,
    DepthError,
    ExceptionalSet,
    GridError,
    RootBox,
    cubes_payload,
    refine,
)

# -- the references -------------------------------------------------------------


def _refine_objects(cubes, side, done, max_generation: int):
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
        pending = [c for q in straddlers for c in subdivide(q, max_generation)]


def _cube_min_distance(E: ExceptionalSet, cube: DyadicCube) -> float:
    """Exact min over the closed cube of the distance to the set."""
    lo, hi = cube.bounds()
    return float(E._nearest(
        1, lambda elo, ehi: np.maximum(elo - hi, 0.0) + np.maximum(lo - ehi, 0.0))[0])


def _cube_max_distance_bound(E: ExceptionalSet, cube: DyadicCube) -> float:
    """Upper bound for max over the cube of the distance (min over elements)."""
    lo, hi = cube.bounds()
    return float(E._nearest(
        1, lambda elo, ehi: np.maximum(np.maximum(elo - lo, hi - ehi), 0.0))[0])


def _ball_side_objects(E: ExceptionalSet, r: float):
    """``refine``'s side for B(E, r): 1 for cubes clear of the open ball, -1 inside it."""
    def side(q: DyadicCube) -> int:
        if _cube_min_distance(E, q) >= r:
            return 1
        return -1 if _cube_max_distance_bound(E, q) < r else 0
    return side


def _canonicalize_objects(root: RootBox, cubes) -> tuple[DyadicCube, ...]:
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


def _of_objects(root: RootBox, gen: np.ndarray, index: np.ndarray) -> CubeSet:
    """The set of the cubes (generation, index) of root."""
    return cube_set(root, tuple(DyadicCube(root, g, tuple(i))
                               for g, i in zip(gen.tolist(), index.tolist())))


def _from_json_objects(text: str) -> CubeSet:
    payload = json.loads(text)
    root = RootBox(tuple(payload["root"]["corner"]), payload["root"]["side"])
    cubes = tuple(
        DyadicCube(root, entry["generation"], tuple(entry["corner"]))
        for entry in payload["cubes"]
    )
    return cube_set(root, cubes)


def _intersection_objects(self: CubeSet, other: CubeSet) -> CubeSet:
    self._check_grid(other)
    mine = {q.key() for q in cubes_of(self)}
    theirs = {q.key() for q in cubes_of(other)}
    # the cubes of each set inside a cube of the other, in this order
    picked = (q for cubes, keys in ((cubes_of(other), mine), (cubes_of(self), theirs)) for q in cubes
              if any(q.ancestor_key(g) in keys for g in range(q.generation + 1)))
    return cube_set(self.root, tuple(picked))


def _difference_objects(self: CubeSet, other: CubeSet) -> CubeSet:
    """Set difference in O((|self| + 2^m |other|) * G), G the finest generation."""
    self._check_grid(other)
    removed = {q.key() for q in cubes_of(other)}
    # a kept cube must split iff some removed cube lies strictly inside it
    split = {q.ancestor_key(g) for q in cubes_of(other) for g in range(q.generation)}

    def side(q: DyadicCube) -> int:
        key = q.key()
        return -1 if key in removed else 0 if key in split else 1

    # a straddler has a removed cube strictly inside, so it never reaches the cap
    kept, _ = _refine_objects(
        (q for q in cubes_of(self)
         if not any(q.ancestor_key(g) in removed for g in range(q.generation))),
        side, lambda straddlers: False, MAX_GENERATION)
    return cube_set(self.root, tuple(kept))


def _restrict_half_space_objects(self: CubeSet, axis: int, threshold: float, keep_below: bool,
                                 max_generation: int = MAX_GENERATION) -> CubeSet:
    """Intersection with {x_axis <= threshold} (or >=); threshold must be dyadic."""
    sign = 1 if keep_below else -1

    def cut(a: int):
        def side(q: DyadicCube) -> int:
            lo, hi = q.bounds()
            return sign if hi[a] <= threshold else -sign if lo[a] >= threshold else 0
        return side

    line = RootBox((self.root.corner[axis],), self.root.side)
    shadows = {DyadicCube(line, q.generation, (q.index[axis],)) for q in cubes_of(self)}
    _, off_grid = _refine_objects(shadows, cut(0), lambda straddlers: False, max_generation)
    if off_grid:
        raise GridError(
            f"threshold {threshold} is not aligned with the dyadic grid "
            f"within generation {max_generation}"
        )
    kept, _ = _refine_objects(cubes_of(self), cut(axis), lambda straddlers: False, max_generation)
    return cube_set(self.root, tuple(kept))


def _ball_sandwich_objects(region: CubeSet, E: ExceptionalSet, r: float,
                           max_generation: int = 26) -> tuple[float, float]:
    """The refinement sandwich of _cube_region_measure_in_ball: (value, error)."""
    budget = 1e-4 * max(region.measure(), 1e-12)
    outside = _ball_side_objects(E, r)
    inside, straddlers = _refine_objects(
        cubes_of(region), lambda q: -outside(q),
        lambda straddlers: math.fsum(q.measure() for q in straddlers) <= budget,
        max_generation)
    layer = math.fsum(q.measure() for q in straddlers)
    return math.fsum(q.measure() for q in inside) + 0.5 * layer, 0.5 * layer


# -- strategies -------------------------------------------------------------------

# deepest generation a test refines to, by dimension: a few thousand cubes at most
DEEPEST = {1: 12, 2: 7, 3: 4}


@st.composite
def _roots(draw, m):
    """The unit root, or one whose corner and side round cube bounds."""
    if draw(st.booleans()):
        return RootBox((0.0,) * m, 1.0)
    coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    return RootBox(tuple(draw(coord) for _ in range(m)), draw(st.floats(0.1, 4.0)))


@st.composite
def _regions(draw, m=None, max_generation=4, max_cubes=6):
    m = m or draw(st.integers(1, 3))
    root = draw(_roots(m))
    cubes = []
    for _ in range(draw(st.integers(0, max_cubes))):
        g = draw(st.integers(0, max_generation))
        cubes.append(DyadicCube(root, g, tuple(draw(st.integers(0, 2 ** g - 1))
                                               for _ in range(m))))
    return cube_set(root, tuple(cubes))


@st.composite
def _exceptional_sets(draw, root: RootBox):
    """One to three points, segments or boxes in and around the root box."""
    m = root.m
    # dyadic coordinates put cube faces at distances of exactly r
    coord = st.one_of(st.floats(-0.25, 1.25), st.integers(-4, 20).map(lambda k: k / 16))
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        lo = [root.corner[d] + root.side * draw(coord) for d in range(m)]
        hi = list(lo)
        shape = draw(st.sampled_from(["point", "segment", "box"]))
        if shape == "segment":
            hi[draw(st.integers(0, m - 1))] += root.side * draw(st.floats(0.0, 1.0))
        elif shape == "box":
            hi = [h + root.side * draw(st.floats(0.0, 0.5)) for h in hi]
        elements.append((tuple(lo), tuple(hi)))
    return ExceptionalSet(tuple(elements))


@st.composite
def _ball_cases(draw):
    region = draw(_regions())
    E = draw(_exceptional_sets(region.root))
    r = region.root.side * draw(st.one_of(st.floats(1e-3, 1.0),
                                          st.integers(1, 16).map(lambda k: k / 16)))
    return region, E, r, draw(st.integers(0, DEEPEST[region.m]))


def _keys(gen, index) -> list[tuple]:
    return [(g, tuple(i)) for g, i in zip(gen.tolist(), index.tolist())]


# -- the tests ------------------------------------------------------------------


@given(_ball_cases(), st.floats(0.0, 0.5), st.booleans())
@settings(max_examples=300, deadline=None)
def test_array_refine_around_balls_keeps_the_sets_fsums_and_straddlers(case, share, inside):
    region, E, r, max_generation = case
    root = region.root
    budget = share * region.measure()
    sign = -1 if inside else 1
    side = _ball_side(E, r, root)
    kept_gen, kept_index, gen, index = refine(
        root, *region.arrays, lambda *cubes: sign * side(*cubes),
        lambda gen, index: math.fsum(root.measures(gen)) <= budget, max_generation)
    reference = _ball_side_objects(E, r)
    kept, straddlers = _refine_objects(
        cubes_of(region), lambda q: sign * reference(q),
        lambda straddlers: math.fsum(q.measure() for q in straddlers) <= budget, max_generation)
    assert _keys(kept_gen, kept_index) == [q.key() for q in kept]
    assert _keys(gen, index) == [q.key() for q in straddlers]
    assert CubeSet.of(root, kept_gen, kept_index) == cube_set(root, tuple(kept))
    for array, objects in ((kept_gen, kept), (gen, straddlers)):
        assert math.fsum(root.measures(array)).hex() == \
            math.fsum(q.measure() for q in objects).hex()


@given(_ball_cases())
@settings(max_examples=150, deadline=None)
def test_ball_sandwich_keeps_the_bits_of_the_object_refine(case):
    region, E, r, max_generation = case
    if len(E.elements) == 1 and region.m == 2:
        E = E.union(E)  # the sandwich, not the single-element section integrals
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(currents, "_EXCISION_GENERATION", max_generation)
        res = _cube_region_measure_in_ball(region, E, r)
    value, error = _ball_sandwich_objects(region, E, r, max_generation)
    assert (res.value.hex(), res.error.hex()) == (value.hex(), error.hex())


@pytest.mark.parametrize("m, elements, r", [
    (1, [((0.3,), (0.3,)), ((0.71,), (0.9,))], 0.05),
    (2, [((0.5, 0.0), (0.5, 1.0))], 0.01),
    (2, [((0.2, 0.3), (0.2, 0.3)), ((0.6, 0.55), (0.8, 0.7))], 0.04),
    (2, [((0.5, 0.5), (0.5, 0.5))], 0.25),  # faces at distance exactly r
])
def test_excision_keeps_the_set_of_the_object_refine(m, elements, r):
    region = CubeSet.whole(RootBox((0.0,) * m, 1.0))
    E = ExceptionalSet(tuple(elements))
    kept, _ = _refine_objects(
        cubes_of(region), _ball_side_objects(E, r),
        lambda s: (math.fsum(q.measure() for q in s) <= 1e-3
                   and max(q.side for q in s) <= 0.25 * r), 26)
    assert TopDimCurrent(region).restrict_outside(E, r, 1e-3).region == \
        cube_set(region.root, tuple(kept))


def test_three_dimensional_ball_sandwich_stops_at_the_cube_cap():
    # the straddling layer fits its 1e-4 budget only at generation 12, some 10^7 cubes
    unit = CubeSet.whole(RootBox((0.0, 0.0, 0.0), 1.0))
    with pytest.raises(DepthError, match="over the cap"):
        _cube_region_measure_in_ball(unit, ExceptionalSet.points([(0.5, 0.5, 0.5)]), 0.2)


@st.composite
def _cube_lists(draw):
    """Cubes with repeats, cubes inside others and whole sibling groups, nested."""
    m = draw(st.integers(1, 3))
    root = draw(_roots(m))
    cubes = []
    for _ in range(draw(st.integers(0, 6))):
        g = draw(st.integers(0, 4))
        q = DyadicCube(root, g, tuple(draw(st.integers(0, 2 ** g - 1)) for _ in range(m)))
        family = [q]
        for _ in range(draw(st.integers(0, 2))):  # split one cube of the family
            family += subdivide(family.pop(draw(st.integers(0, len(family) - 1))))
        cubes += draw(st.permutations(family))[:len(family) - draw(st.integers(0, 1))]
        if cubes:
            cubes += draw(st.lists(st.sampled_from(cubes), max_size=2))
    return root, cubes


@given(_cube_lists())
@settings(max_examples=300, deadline=None)
def test_array_canonical_form_has_the_cubes_of_the_dict_one(case):
    root, cubes = case
    assert [q.key() for q in cubes_of(cube_set(root, tuple(cubes)))] == \
        [q.key() for q in _canonicalize_objects(root, cubes)]


@given(_cube_lists())
@settings(max_examples=300, deadline=None)
def test_cube_sets_of_arrays_equal_the_sets_of_objects(case):
    root, cubes = case
    gen = np.array([q.generation for q in cubes], dtype=np.int64)
    index = np.array([q.index for q in cubes], dtype=np.int64).reshape(len(cubes), root.m)
    s = CubeSet.of(root, gen, index)
    expected = _of_objects(root, gen, index)
    assert s == expected == cube_set(root, tuple(cubes))
    assert hash(s) == hash(expected)
    assert cubes_of(s) == cubes_of(expected) == _canonicalize_objects(root, cubes)
    g, i = s.arrays
    assert g.dtype == i.dtype == np.int64 and i.shape == (len(cubes_of(s)), root.m)
    assert (g.tolist(), i.tolist()) == ([q.generation for q in cubes_of(s)],
                                        [list(q.index) for q in cubes_of(s)])
    text = json.dumps(s.payload())
    assert _cube_set(json.loads(text)) == _from_json_objects(text) == s
    assert json.dumps(_cube_set(json.loads(text)).payload()) == text
    if cubes:
        other = RootBox(root.corner, 2.0 * root.side)
        with pytest.raises(GridError):
            cube_set(root, (*cubes, DyadicCube(other, 0, (0,) * root.m)))


@st.composite
def _cube_arrays(draw):
    """Generations and indices of a root box, some of them refused by DyadicCube."""
    m = draw(st.integers(1, 3))
    root = draw(_roots(m))
    arity = draw(st.sampled_from([m, m, m, m + 1, max(m - 1, 1)]))
    gen, index = [], []
    for _ in range(draw(st.integers(0, 5))):
        gen.append(draw(st.integers(-1, 4)))
        top = 1 << max(gen[-1], 0)
        index.append([draw(st.integers(-1, top)) for _ in range(arity)])
    return root, np.array(gen, dtype=np.int64), np.array(index, dtype=np.int64).reshape(-1, arity)


@given(_cube_arrays())
@settings(max_examples=400, deadline=None)
def test_cube_sets_of_arrays_refuse_what_the_objects_refuse(case):
    root, gen, index = case
    text = json.dumps(cubes_payload(root.corner, root.side, gen.tolist(), index.tolist()))
    try:
        expected = _of_objects(root, gen, index)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            CubeSet.of(root, gen, index)
        assert (type(err.value), str(err.value)) == (type(exc), str(exc))
        # the config reader refuses it too, in its own words that name the key
        with pytest.raises(UsageError, match=r"current region cubes"):
            _cube_set(json.loads(text))
        return
    assert CubeSet.of(root, gen, index) == expected == _cube_set(json.loads(text))


@given(_regions(max_generation=6, max_cubes=8), st.data())
@settings(max_examples=300, deadline=None)
def test_difference_keeps_the_sets_of_the_object_refine(a, data):
    b = data.draw(_regions(a.m, max_generation=6, max_cubes=8))
    b = cube_set(a.root, tuple(DyadicCube(a.root, q.generation, q.index) for q in cubes_of(b)))
    for x, y in ((a, b), (b, a), (CubeSet.whole(a.root), b), (a, a)):
        assert x.difference(y) == _difference_objects(x, y)


@given(_regions(max_generation=6, max_cubes=8), st.data())
@settings(max_examples=300, deadline=None)
def test_intersection_and_union_keep_the_sets_of_the_object_code(a, data):
    b = data.draw(_regions(a.m, max_generation=6, max_cubes=8))
    b = cube_set(a.root, tuple(DyadicCube(a.root, q.generation, q.index) for q in cubes_of(b)))
    for x, y in ((a, b), (b, a), (CubeSet.whole(a.root), b), (a, a), (CubeSet.empty(a.root), a)):
        assert x.intersection(y) == _intersection_objects(x, y)
        assert x.union(y) == cube_set(x.root, cubes_of(x) + cubes_of(y))


@given(_regions(max_generation=4), st.integers(0, 2), st.integers(-1, 17), st.booleans(),
       st.sampled_from([None, 1.0 / 3.0, 0.1]))
@settings(max_examples=300, deadline=None)
def test_half_space_cuts_keep_the_sets_and_refusals_of_the_object_refine(
        s, axis, k, keep_below, off_grid):
    axis %= s.m
    # a dyadic threshold on the root's grid, or an off-grid one
    step = off_grid if off_grid is not None else k / 16.0
    threshold = s.root.corner[axis] + s.root.side * step
    for max_generation in sorted({4, DEEPEST[s.m]}):
        try:
            expected = _restrict_half_space_objects(s, axis, threshold, keep_below,
                                                    max_generation)
        except GridError as exc:
            with pytest.raises(GridError, match=re.escape(str(exc))):
                s.restrict_half_space(axis, threshold, keep_below, max_generation)
            continue
        assert s.restrict_half_space(axis, threshold, keep_below, max_generation) == expected


@given(_regions(max_generation=8, max_cubes=12), st.data())
@settings(max_examples=200, deadline=None)
def test_batched_distances_carry_the_bits_of_the_per_cube_distances(region, data):
    E = data.draw(_exceptional_sets(region.root))
    nearest, farthest = E.cube_distances(*region.bounds())
    assert nearest.tolist() == [_cube_min_distance(E, q) for q in cubes_of(region)]
    assert farthest.tolist() == [_cube_max_distance_bound(E, q) for q in cubes_of(region)]
    assert [cube_min_distance(E, q) for q in cubes_of(region)] == nearest.tolist()
    assert [cube_max_distance_bound(E, q) for q in cubes_of(region)] == farthest.tolist()
    lo, hi = region.bounds()
    for q, a, b in zip(cubes_of(region), lo, hi):
        assert [a.tolist(), b.tolist()] == [v.tolist() for v in q.bounds()]
    empty = ExceptionalSet.empty().cube_distances(lo, hi)
    assert all(np.isinf(d).all() and d.shape == (len(lo),) for d in empty)


def test_refine_refuses_a_round_over_the_cube_cap(monkeypatch):
    monkeypatch.setattr(dyadic, "MAX_REFINE_CUBES", 143)
    root = RootBox((0.0, 0.0), 1.0)
    unit = CubeSet.whole(root)
    side = _ball_side(ExceptionalSet.points([(0.5, 0.5)]), 0.3, root)
    # the circle crosses 20 cubes of generation 3 and 36 of generation 4
    assert len(refine(root, *unit.arrays, side, None, 4)[2]) == 36
    with pytest.raises(DepthError, match="needs 144 cubes at generation 5, over the cap of 143"):
        refine(root, *unit.arrays, side, None, 5)


def _fsum_of_cube_measures(s: CubeSet) -> float:
    """CubeSet.measure as it was: the fsum of each cube's DyadicCube.measure."""
    return math.fsum(q.measure() for q in cubes_of(s))


def test_cube_set_measure_is_the_per_cube_fsum_on_the_excision_sets(monkeypatch):
    measure, sizes = CubeSet.measure, []

    def checked(self):
        value = measure(self)
        assert value.hex() == _fsum_of_cube_measures(self).hex()
        sizes.append(len(cubes_of(self)))
        return value

    monkeypatch.setattr(CubeSet, "measure", checked)
    # the excise_segment benchmark run: a segment cut out of the unit square
    segment = ExceptionalSet.segment((0.5, 0.0), (0.5, 1.0))
    gauge = Gauge.distance_to(segment, 0.5).min_with(Gauge.constant(0.2))
    gauge_decompose(_build_current({"kind": "unit_square"}), segment, gauge,
                    RegularityFn.constant(0.05), SubadditiveFn.mass(), 5e-2)
    assert max(sizes) > 2000


@given(_cube_lists())
@settings(max_examples=300, deadline=None)
def test_cube_set_measure_is_the_per_cube_fsum(case):
    root, cubes = case
    s = cube_set(root, tuple(cubes))
    assert s.measure().hex() == _fsum_of_cube_measures(s).hex()
