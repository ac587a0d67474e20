import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslab import certify
from stokeslab.cousin import (
    CUBE_REGULARITY,
    DecompositionRefusal,
    Gauge,
    RegularityFn,
    ResourceBudgetError,
    SubadditiveFn,
    _chart_fineness,
    _cube_masses,
    _depth_first_order,
    _fine_cubes,
    _tile_rect_with_squares,
    cousin_decompose,
    excise,
    gauge_decompose,
    regularity,
)
from stokeslab.currents import ChartCurrent, ChartMap, Rect, TopDimCurrent
from stokeslab.dyadic import CubeSet, DepthError, DyadicCube, ExceptionalSet, RootBox

ROOT = RootBox((0.0, 0.0), 1.0)
UNIT_CUBE = DyadicCube(ROOT, 0, (0, 0))
UNIT = TopDimCurrent(CubeSet.whole(ROOT))
MASS = SubadditiveFn.mass()


def test_square_regularity_is_exact():
    for g, idx in [(0, (0, 0)), (2, (1, 3)), (5, (7, 19))]:
        piece = TopDimCurrent(CubeSet(ROOT, (DyadicCube(ROOT, g, idx),)))
        assert regularity(piece) == pytest.approx(2.0 ** (-2.5), rel=1e-14)
    assert CUBE_REGULARITY(2) == 2.0 ** (-2.5)
    assert CUBE_REGULARITY(3) == pytest.approx(1.0 / (2.0 * 3.0 ** 1.5), rel=1e-15)


def test_rectangle_regularity_decays():
    # 1 x k rectangles: reg = k / ((2 + 2k) sqrt(1 + k^2)) -> 0
    def rect_reg(k):
        return k / ((2 + 2 * k) * math.hypot(1.0, k))

    vals = [rect_reg(k) for k in (1, 2, 8, 64, 512)]
    assert all(a > b for a, b in zip(vals[1:], vals[2:]))
    assert vals[-1] < 0.002


def test_zero_boundary_mass_flags_infinite_regularity():
    root1 = RootBox((0.0,), 1.0)
    # a full circle analogue does not exist here; simulate via two half
    # intervals whose interior endpoint cancels but outer ones remain
    T = TopDimCurrent(CubeSet.whole(root1))
    assert regularity(T) == pytest.approx(1.0 / 2.0, rel=1e-12)


def test_cousin_single_piece_for_huge_gauge():
    fam = cousin_decompose(UNIT_CUBE, Gauge.constant(10.0), 0.1)
    assert len(fam.pairs) == 1
    assert fam.pairs[0].tag == (0.5, 0.5)


def test_cousin_sixteen_cubes_for_gauge_04():
    # diam(gen 2) = sqrt(2)/4 ~ 0.354 < 0.4 but gen 1 has ~0.707
    fam = cousin_decompose(UNIT_CUBE, Gauge.constant(0.4), 0.1)
    assert len(fam.pairs) == 16
    assert all(p.piece.region.cubes[0].generation == 2 for p in fam.pairs)
    assert fam.body_mass() == 1.0


def test_cousin_corner_acceptance_takes_whole_square():
    # at the far corner the gauge beats the root diameter, so the prescribed
    # center-and-corners acceptance keeps the square whole
    E = ExceptionalSet.points([(0.0, 0.0)])
    g = Gauge.distance_to(E, 1.0, 0.3)
    fam = cousin_decompose(UNIT_CUBE, g, 0.1)
    assert len(fam.pairs) == 1
    report = certify.check_family(fam, g, RegularityFn.constant(0.1), MASS)
    assert report.passed, report.violations


def test_cousin_mixed_generation_family_passes_checker():
    # capped distance gauge: small near the corner, capped below the
    # generation-1 diameter far away -> genuinely mixed piece sizes
    E = ExceptionalSet.points([(0.0, 0.0)])
    g = Gauge.distance_to(E, 0.75, 0.05).min_with(Gauge.constant(0.8))
    fam = cousin_decompose(UNIT_CUBE, g, 0.1)
    gens = {p.piece.region.cubes[0].generation for p in fam.pairs}
    assert len(gens) > 1
    assert fam.body_mass() == 1.0
    report = certify.check_family(fam, g, RegularityFn.constant(0.1), MASS)
    assert report.passed, report.violations


def test_cousin_tiles_exactly():
    fam = cousin_decompose(UNIT_CUBE, Gauge.constant(0.22), 0.17)
    assert fam.body_mass() == 1.0


def test_cousin_eta_above_cube_regularity_rejected():
    with pytest.raises(ValueError):
        cousin_decompose(UNIT_CUBE, Gauge.constant(0.4), 0.2)


def test_cousin_depth_error_names_region():
    with pytest.raises(DepthError) as err:
        cousin_decompose(UNIT_CUBE, Gauge.constant(1e-4), 0.1, max_generation=6)
    assert "generation 6" in str(err.value)


def test_cousin_monotone_under_gauge_shrinking():
    rng = np.random.default_rng(11)
    for _ in range(20):
        gauge = Gauge.constant(float(rng.uniform(0.15, 1.2)))
        if rng.random() < 0.6:
            anchor = ExceptionalSet.points([tuple(rng.uniform(0, 1, 2))])
            gauge = gauge.min_with(Gauge.distance_to(
                anchor, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.05, 0.3))))
        fam_big = cousin_decompose(UNIT_CUBE, gauge, 0.1)
        fam_small = cousin_decompose(UNIT_CUBE, gauge.scaled(0.5), 0.1)
        assert fam_small.max_diameter() <= fam_big.max_diameter() + 1e-15
        # pointwise-shrunk gauges refine piece by piece, never coarsen
        small_by_cube = {p.meta["cube"]: p for p in fam_small.pairs}
        for p in fam_big.pairs:
            g, idx = p.meta["cube"]
            covered = [q for key, q in small_by_cube.items() if key[0] >= g
                       and tuple(i >> (key[0] - g) for i in key[1]) == idx]
            assert covered, "every coarse piece splits into fine pieces"
            assert all(q.diam <= p.diam + 1e-15 for q in covered)


def test_excise_center_point_circle_bounds():
    E = ExceptionalSet.points([(0.5, 0.5)])
    T_eps, r, info = excise(UNIT, E, eps=0.1, r0=0.15)
    assert 0.15 / 2 < r < 0.15
    assert info["removed_mass"] <= math.pi * 0.15 ** 2 + 0.05
    assert info["removed_mass"] < 0.1
    assert info["slice_mass"] <= 2.0 * math.pi * 0.15 + 1e-6
    # support clears the excised ball
    assert all(E.cube_min_distance(q) >= r - 1e-12 for q in T_eps.region.cubes)


def test_excise_disjoint_set_is_trivial():
    E = ExceptionalSet.points([(5.0, 5.0)])
    T_eps, r, info = excise(UNIT, E, eps=0.1, r0=0.2)
    assert T_eps == UNIT
    assert r == pytest.approx(0.15)


def test_excise_requires_small_neighborhood_mass():
    E = ExceptionalSet.points([(0.5, 0.5)])
    with pytest.raises(ValueError):
        excise(UNIT, E, eps=1e-6, r0=0.3)


def test_excise_boundary_growth_bounded_by_content_constant():
    from stokeslab.minkowski import neighborhood_mass

    E = ExceptionalSet.points([(0.5, 0.5)])
    base_boundary = UNIT.boundary_mass().value
    tested = (0.2, 0.1, 0.05)
    C_E = max(neighborhood_mass(UNIT, E, r0).value / r0 for r0 in tested)
    for r0 in tested:
        T_eps, r, info = excise(UNIT, E, eps=0.5, r0=r0)
        assert T_eps.boundary_mass().value <= base_boundary + 4.0 * C_E + 1e-9


def test_gauge_decompose_unit_square_full():
    fam = gauge_decompose(UNIT, ExceptionalSet.empty(), Gauge.constant(0.4),
                          RegularityFn.constant(0.1), MASS, 1e-6)
    assert len(fam.pairs) == 16
    assert fam.remainder_value == 0.0
    assert fam.body_mass() == 1.0


def test_gauge_decompose_chart_pushforward_regularity():
    chart = ChartMap(
        psi=lambda x, y: np.asarray(x, dtype=float),
        dpsi_dx=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        dpsi_dy=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        lip_upper=math.sqrt(2.0),
        name="tilt",
    )
    C = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), chart)
    eta = RegularityFn.constant(0.04)
    fam = gauge_decompose(C, ExceptionalSet.empty(), Gauge.constant(0.3),
                          eta, MASS, 1e-3)
    floor = (math.sqrt(2.0) * 1.0) ** (-2) * CUBE_REGULARITY(2)
    assert fam.min_regularity() >= floor - 1e-12
    report = certify.check_family(fam, Gauge.constant(0.3), eta, MASS)
    assert report.passed, report.violations


def _flat_chart_current(rect: Rect) -> ChartCurrent:
    zeros = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    return ChartCurrent(rect, ChartMap(psi=zeros, dpsi_dx=zeros, dpsi_dy=zeros, lip_upper=1.0))


def test_gauge_decompose_flat_graph_demo():
    C = _flat_chart_current(Rect(0.0, math.pi, 0.0, 0.5))
    eta = RegularityFn.constant(0.05)
    fam = gauge_decompose(C, ExceptionalSet.empty(), Gauge.constant(0.3), eta,
                          MASS, 1e-3)
    assert fam.remainder_value < 1e-3
    assert fam.body_mass() + fam.remainder_value == pytest.approx(C.mass().value, abs=1e-6)
    report = certify.check_family(fam, Gauge.constant(0.3), eta, MASS)
    assert report.passed, report.violations


def test_gauge_decompose_with_vanishing_gauge_excises_first():
    E = ExceptionalSet.points([(0.5, 0.5)])
    g = Gauge.distance_to(E, 1.0, 0.0).min_with(Gauge.constant(0.4))
    fam = gauge_decompose(UNIT, E, g, RegularityFn.constant(0.1), MASS, 1e-3)
    assert fam.remainder_value < 1e-3
    assert fam.body_mass() > 1.0 - 1e-3
    report = certify.check_family(fam, g, RegularityFn.constant(0.1), MASS)
    assert report.passed, report.violations


def test_gauge_decompose_vanishing_gauge_outside_singular_set_rejected():
    E_gauge = ExceptionalSet.points([(0.25, 0.25)])
    E_T = ExceptionalSet.points([(0.5, 0.5)])
    g = Gauge.distance_to(E_gauge, 1.0, 0.0).min_with(Gauge.constant(0.4))
    with pytest.raises(ValueError):
        gauge_decompose(UNIT, E_T, g, RegularityFn.constant(0.1), MASS, 1e-3)


def test_gauge_decompose_refuses_divergent_singular_set():
    from stokeslab.counterexample import Params, build_surface_current

    S = build_surface_current(Params.default())
    E = S.model.singular_set()
    with pytest.raises(DecompositionRefusal):
        gauge_decompose(S, E, Gauge.constant(0.3), RegularityFn.constant(0.01),
                        MASS, 1e-2)


def test_subadditive_functionals():
    left = TopDimCurrent(CubeSet(ROOT, (DyadicCube(ROOT, 1, (0, 0)),)))
    right = TopDimCurrent(CubeSet(ROOT, (DyadicCube(ROOT, 1, (1, 0)),)))
    both = TopDimCurrent(
        CubeSet(ROOT, (DyadicCube(ROOT, 1, (0, 0)), DyadicCube(ROOT, 1, (1, 0))))
    )
    assert MASS.of_current(both) <= MASS.of_current(left) + MASS.of_current(right) + 1e-12

    from stokeslab import forms

    om = forms.FormField(
        2, 1,
        evaluate=lambda p: forms.KCovector(2, 1, [0.0, p[0]]),
        differential=lambda p: forms.KCovector(2, 2, [1.0]),
    )
    F = SubadditiveFn.abs_circulation(om)
    assert F.of_current(both) <= F.of_current(left) + F.of_current(right) + 1e-9
    M = SubadditiveFn.max_of(MASS, F)
    assert M.of_current(both) == pytest.approx(
        max(MASS.of_current(both), F.of_current(both)), rel=1e-12
    )


def test_chart_pieces_share_one_quadrature_sweep(monkeypatch):
    from stokeslab import cli, quadrature

    T = cli._build_current({"kind": "parabolic_graph"})
    calls = []
    area_element = ChartMap.area_element

    def counted(chart, x, y):
        calls.append(np.size(x))
        return area_element(chart, x, y)

    def decompose():
        calls.clear()
        return gauge_decompose(T, ExceptionalSet.empty(), Gauge.constant(0.1),
                               RegularityFn.constant(0.0), MASS, 1e-3)

    monkeypatch.setattr(ChartMap, "area_element", counted)
    # one square of 1024 pieces whose masses all stop at the first estimate:
    # one refinement round, so one call when a point block holds it all
    with monkeypatch.context() as m:
        m.setattr(quadrature, "BLOCK_POINTS", 1 << 30, raising=False)
        fam = decompose()
    assert len(fam.pairs) == 1024
    assert len({p.meta["pre_square"] for p in fam.pairs}) == 1
    assert calls == [5 * 1024 * 144]
    # and one call per block of the 5 panels of 144 points of each piece
    decompose()
    assert sum(calls) == 5 * 1024 * 144
    assert len(calls) == -(-5 * 1024 // (quadrature.BLOCK_POINTS // 144))
    for p in fam.pairs:
        assert p.mass == pytest.approx(p.piece.mass().value, rel=1e-14, abs=0.0)
        assert p.boundary_mass == pytest.approx(p.piece.boundary_mass().value, rel=1e-14,
                                                abs=0.0)


def test_chart_piece_takes_its_masses_from_two_sweeps(monkeypatch):
    from stokeslab import cousin

    C = _flat_chart_current(Rect(0.0, math.pi, 0.0, 0.5))
    sweeps = []
    chart_masses = cousin.chart_masses

    def counted(pieces, boundary=False):
        sweeps.append((len(pieces), boundary))
        return chart_masses(pieces, boundary)

    monkeypatch.setattr(cousin, "chart_masses", counted)
    fam = gauge_decompose(C, ExceptionalSet.empty(), Gauge.constant(0.3),
                          RegularityFn.constant(0.05), MASS, 1e-3)
    assert len({p.meta["pre_square"] for p in fam.pairs}) == 166
    # one sweep per kind of mass for the whole chart piece, not two per square
    assert sweeps == [(256, False), (256, True)]
    for p in fam.pairs:
        assert p.mass == pytest.approx(p.piece.mass().value, rel=1e-14, abs=0.0)
        assert p.boundary_mass == pytest.approx(p.piece.boundary_mass().value, rel=1e-14,
                                                abs=0.0)


def test_chart_depth_error_names_region():
    C = _flat_chart_current(Rect(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(DepthError) as err:
        gauge_decompose(C, ExceptionalSet.empty(), Gauge.constant(1e-4),
                        RegularityFn.constant(0.05), MASS, 1e-3, max_generation=6)
    # the last child is split first, so the top-right cube of generation 6 fails
    assert str(err.value) == ("gauge forces subdivision past generation 6 near the region "
                              "[[0.984375, 0.984375], [1.0, 1.0]]")


# -- the generation-at-a-time loop against the depth-first stack -------------


def _cube_test_points(cube: DyadicCube) -> list[np.ndarray]:
    return [cube.center()] + [c for c in cube.corners()]


def _fine_cubes_by_stack(root: DyadicCube, fineness: Callable, max_generation: int) -> list[tuple]:
    """Cousin subdivision of root: (cube, diameter, tag, fineness at tag) per piece.

    A cube is accepted at its first test point (centre, then corners) where
    fineness exceeds its diameter, and split otherwise.
    """
    accepted = []
    stack = [root]
    while stack:
        cube = stack.pop()
        diam = cube.diameter()
        for p in _cube_test_points(cube):
            val = fineness(p)
            if val > diam:
                accepted.append((cube, diam, p, val))
                break
        else:
            try:
                stack.extend(cube.subdivide(max_generation))
            except DepthError as exc:
                lo, hi = cube.bounds()
                raise DepthError(
                    f"gauge forces subdivision past generation {max_generation} "
                    f"near the region [{lo.tolist()}, {hi.tolist()}]"
                ) from exc
    return accepted


def _distance_by_norm(E: ExceptionalSet, x) -> float:
    best = math.inf
    for lo, hi in E.elements:
        dev = np.maximum(np.asarray(lo) - x, 0.0) + np.maximum(x - np.asarray(hi), 0.0)
        best = min(best, float(np.linalg.norm(dev)))
    return best


def _gauge_by_norm(gauge: Gauge, x) -> float:
    """The gauge at one point, one np.linalg.norm per element of each distance term."""
    best = math.inf
    for kind, s, o, E in gauge.terms:
        if kind == "const":
            best = min(best, s)
        else:
            best = min(best, s * _distance_by_norm(E, x) + o)
    return best


def _assert_same_pieces(roots, fineness_many, fineness_one, max_generation):
    """The loop gives the stack's pieces and bits, and the stack's order once sorted."""
    try:
        expected = [piece for q in roots
                    for piece in _fine_cubes_by_stack(q, fineness_one, max_generation)]
    except DepthError as exc:
        with pytest.raises(DepthError) as err:
            _fine_cubes(roots, fineness_many, max_generation, 10 ** 9)
        assert str(err.value) == str(exc)
        return
    pieces = _fine_cubes(roots, fineness_many, max_generation, 10 ** 9)
    rid, gen, idx, diam, tags, vals = (a[_depth_first_order(*pieces[:3])] for a in pieces)
    got = [DyadicCube(roots[r].root, g, tuple(i)) for r, g, i in zip(rid, gen, idx.tolist())]
    assert got == [cube for cube, _, _, _ in expected]
    assert diam.tobytes() == np.array([d for _, d, _, _ in expected]).tobytes()
    assert tags.tobytes() == np.array([p for _, _, p, _ in expected]).tobytes()
    assert vals.tobytes() == np.array([v for _, _, _, v in expected]).tobytes()


_DEPTH = {1: 8.0, 2: 5.0, 3: 3.0}  # levels below a unit root box, so the stack stays quick


@st.composite
def _roots_and_gauges(draw):
    m = draw(st.integers(1, 3))
    side = draw(st.sampled_from([1.0, 0.3, math.pi]))
    corner = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(m))
    box = RootBox(corner, side)
    roots = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.integers(0, 3))
        roots.append(DyadicCube(box, g, tuple(draw(st.integers(0, 2 ** g - 1))
                                              for _ in range(m))))
    top = min(q.generation for q in roots)
    floor = side * math.sqrt(m) * 2.0 ** -(top + draw(st.floats(0.0, _DEPTH[m])))

    def anchor():
        lo = [c + side * draw(st.floats(-0.25, 1.25)) for c in corner]
        kind = draw(st.sampled_from(["point", "segment", "box"]))
        hi = list(lo)
        if kind != "point":
            for d in range(m) if kind == "box" else [draw(st.integers(0, m - 1))]:
                hi[d] += side * draw(st.floats(0.0, 0.5))
        return ExceptionalSet.box(lo, hi)

    constant = Gauge.constant(floor * draw(st.floats(1.0, 4.0)))
    distance = Gauge.distance_to(anchor(), draw(st.floats(0.3, 2.0)), floor)
    gauge = draw(st.sampled_from([
        constant, distance, distance.min_with(constant),
        distance.min_with(Gauge.distance_to(anchor(), draw(st.floats(0.3, 2.0)), floor)),
    ]))
    max_generation = draw(st.one_of(st.just(40), st.integers(top, top + 5)))
    return roots, gauge, max_generation


@given(_roots_and_gauges())
@settings(max_examples=250, deadline=None)
def test_generation_loop_matches_the_depth_first_stack(case):
    roots, gauge, max_generation = case
    _assert_same_pieces(roots, gauge.many, lambda p: _gauge_by_norm(gauge, p), max_generation)


def test_depth_stop_names_the_first_root_to_fail_depth_first():
    # the deeper root reaches the cap three generations before the first one,
    # yet a depth-first run over the roots in order fails in the first root
    roots = [UNIT_CUBE, DyadicCube(ROOT, 3, (5, 2))]
    gauge = Gauge.constant(1e-3)
    _assert_same_pieces(roots, gauge.many, lambda p: _gauge_by_norm(gauge, p), 5)
    with pytest.raises(DepthError, match=r"\[\[0\.96875, 0\.96875\], \[1\.0, 1\.0\]\]"):
        _fine_cubes(roots, gauge.many, 5, 10 ** 9)


def _chart_squares(name):
    from stokeslab.cli import _build_current
    from stokeslab.counterexample import build_surface_current

    if name == "parabolic":
        C = _build_current({"kind": "parabolic_graph"})
        return C.chart, _tile_rect_with_squares(C.domain)[0]
    model = build_surface_current().model
    _, lo, hi = model.strip_windows(0.0, model.y_infinity)[1]
    squares, _ = _tile_rect_with_squares(Rect(model.x_lo, model.x_lo + 0.4, lo, hi))
    return model.strip_chart(1), squares


@pytest.mark.parametrize("name", ["parabolic", "strip"])
@given(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-0.2, 0.6)),
       st.floats(0.3, 2.0), st.floats(0.02, 0.2), st.integers(3, 40))
@settings(max_examples=25, deadline=None)
def test_chart_squares_match_the_depth_first_stack(name, anchor, scale, offset,
                                                   max_generation):
    chart, squares = _chart_squares(name)
    gauge = Gauge.distance_to(ExceptionalSet.points([anchor]), scale, offset)
    roots = [DyadicCube(RootBox((sq.x0, sq.y0), sq.x1 - sq.x0), 0, (0, 0)) for sq in squares]
    lip = chart.lip_upper
    _assert_same_pieces(
        roots, _chart_fineness(chart, gauge),
        lambda u: _gauge_by_norm(gauge, chart.point(float(u[0]), float(u[1]))) / lip,
        max_generation)


def test_chart_pieces_come_out_in_depth_first_order():
    C = _flat_chart_current(Rect(0.0, 1.0, 0.0, 1.0))
    gauge = Gauge.distance_to(ExceptionalSet.points([(0.3, 0.7, 0.0)]), 0.5, 0.02)
    fam = gauge_decompose(C, ExceptionalSet.empty(), gauge, RegularityFn.constant(0.05),
                          MASS, 1e-3)
    root = DyadicCube(RootBox((0.0, 0.0), 1.0), 0, (0, 0))
    expected = _fine_cubes_by_stack(root, lambda u: _gauge_by_norm(gauge, C.chart.point(
        float(u[0]), float(u[1]))), 40)
    assert len({cube.generation for cube, _, _, _ in expected}) > 3
    assert [p.meta["pre_cube"] for p in fam.pairs] == [cube.key() for cube, _, _, _ in expected]


def test_the_loop_stops_at_the_piece_budget():
    fineness = Gauge.constant(0.4).many
    assert len(_fine_cubes([UNIT_CUBE], fineness, 40, 16)[0]) == 16
    with pytest.raises(ResourceBudgetError, match=r"piece budget \(15\)"):
        _fine_cubes([UNIT_CUBE], fineness, 40, 15)
    # the frontier is refused before it is built: 4.2M pieces, stopped at 65,536
    with pytest.raises(ResourceBudgetError):
        cousin_decompose(UNIT_CUBE, Gauge.constant(1e-3), 0.1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cube_piece_masses_are_the_cube_set_bits(m):
    for side in (1.0, 0.3, math.pi):
        root = RootBox((0.25,) * m, side)
        for g in range(41):
            cube = DyadicCube(root, g, ((1 << g) - 1,) * m)
            region = CubeSet(root, (cube,))
            for theta in (1, -1, 3, -3):
                piece = TopDimCurrent(region, theta)
                mass, boundary_mass = _cube_masses(cube.side, m, theta)
                assert mass.hex() == piece.mass().value.hex()
                assert boundary_mass.hex() == piece.boundary_mass().value.hex()


def test_cube_pieces_carry_their_eta_and_masses():
    E = ExceptionalSet.points([(0.0, 0.0)])
    g = Gauge.distance_to(E, 0.75, 0.05).min_with(Gauge.constant(0.8))
    eta = RegularityFn.from_callable(lambda x: 0.01 + 0.01 * x[0])
    fam = gauge_decompose(TopDimCurrent(CubeSet.whole(ROOT), 3), ExceptionalSet.empty(), g,
                          eta, MASS, 1e-3)
    keys = [p.meta["cube"] for p in fam.pairs]
    assert keys == sorted(keys)
    for p in fam.pairs:
        assert p.eta_at_tag == eta(np.asarray(p.tag))
        assert p.gauge_at_tag == _gauge_by_norm(g, np.asarray(p.tag))
        assert (p.mass, p.boundary_mass) == (p.piece.mass().value, p.piece.boundary_mass().value)
