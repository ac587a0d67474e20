import json
import math
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cube_refs import (DyadicCube, center, corners, cousin_decompose, cubes_of, diameter, gauge_at,
                       subdivide)
from model_refs import from_callable

from stokeslab import certify, cousin
from stokeslab.cousin import (
    CUBE_REGULARITY,
    MAX_PIECES,
    DecompositionRefusal,
    Gauge,
    RegularityFn,
    ResourceBudgetError,
    SubadditiveFn,
    TaggedPair,
    _check_roots,
    _chart_fineness,
    _cube_masses,
    _depth_first_order,
    _fine_cubes,
    _test_points,
    _tile_rect_with_squares,
    excise,
    gauge_decompose,
    regularity,
)
from stokeslab.currents import (ChartCurrent, ChartMap, Current, CurrentError, Rect,
                                TopDimCurrent, _lifted_tangent, _summed)
from stokeslab.integration import riemann_sum
from stokeslab.quadrature import QuadResult, integrate_boxes
from stokeslab.dyadic import CubeSet, DepthError, ExceptionalSet, RootBox

ROOT = RootBox((0.0, 0.0), 1.0)
UNIT_CUBE = DyadicCube(ROOT, 0, (0, 0))
UNIT = TopDimCurrent(CubeSet.whole(ROOT))
MASS = SubadditiveFn.mass()
ETA = RegularityFn.constant(0.05)


def test_square_regularity_is_exact():
    for g, idx in [(0, (0, 0)), (2, (1, 3)), (5, (7, 19))]:
        piece = TopDimCurrent(CubeSet.of(ROOT, [g], [idx]))
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
    assert all(p.piece.region.arrays[0][0] == 2 for p in fam.pairs)
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
    gens = {int(p.piece.region.arrays[0][0]) for p in fam.pairs}
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
    assert (E.cube_distances(*T_eps.region.bounds())[0] >= r - 1e-12).all()


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
        gradient=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                               np.zeros_like(np.asarray(x, dtype=float))),
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
    return ChartCurrent(rect, ChartMap(psi=zeros, gradient=lambda x, y: (zeros(x, y), zeros(x, y)),
                                       lip_upper=1.0))


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
    left = TopDimCurrent(CubeSet.of(ROOT, [1], [(0, 0)]))
    right = TopDimCurrent(CubeSet.of(ROOT, [1], [(1, 0)]))
    both = TopDimCurrent(CubeSet.of(ROOT, [1, 1], [(0, 0), (1, 0)]))
    assert MASS.of_current(both) <= MASS.of_current(left) + MASS.of_current(right) + 1e-12

    from stokeslab import forms

    om = forms.FormField(
        2, 1,
        coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0]]),
        differential=lambda p: np.ones((len(p), 1)),
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

    def counted(chart, lo, hi, tol, boundary=False):
        sweeps.append((len(lo), boundary))
        return chart_masses(chart, lo, hi, tol, boundary)

    monkeypatch.setattr(cousin, "chart_masses", counted)
    fam = gauge_decompose(C, ExceptionalSet.empty(), Gauge.constant(0.3),
                          RegularityFn.constant(0.05), MASS, 1e-3)
    assert len({p.meta["pre_square"] for p in fam.pairs}) == 166
    # one sweep per kind of mass for the whole chart piece, not two per square:
    # the 256 rectangles, then their 1,024 edges
    assert sweeps == [(256, False), (1024, True)]
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
    return [center(cube)] + [c for c in corners(cube)]


def _fine_cubes_by_stack(root: DyadicCube, fineness: Callable, max_generation: int) -> list[tuple]:
    """Cousin subdivision of root: (cube, diameter, tag, fineness at tag) per piece.

    A cube is accepted at its first test point (centre, then corners) where
    fineness exceeds its diameter, and split otherwise.
    """
    accepted = []
    stack = [root]
    while stack:
        cube = stack.pop()
        diam = diameter(cube)
        for p in _cube_test_points(cube):
            val = fineness(p)
            if val > diam:
                accepted.append((cube, diam, p, val))
                break
        else:
            try:
                stack.extend(subdivide(cube, max_generation))
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


def _root_arrays(roots: Sequence[DyadicCube]) -> tuple[np.ndarray, ...]:
    """Root-box corners and sides, generations and indices of the cubes, as arrays."""
    corner = np.array([q.root.corner for q in roots], dtype=float)
    root_side = np.array([q.root.side for q in roots], dtype=float)
    gen = np.array([q.generation for q in roots], dtype=np.int64)
    index = np.array([q.index for q in roots], dtype=np.int64).reshape(len(roots), -1)
    return corner, root_side, gen, index


def _assert_same_pieces(roots, fineness_many, fineness_one, max_generation):
    """The loop gives the stack's pieces and bits, and the stack's order once sorted."""
    try:
        expected = [piece for q in roots
                    for piece in _fine_cubes_by_stack(q, fineness_one, max_generation)]
    except DepthError as exc:
        with pytest.raises(DepthError) as err:
            _fine_cubes(*_root_arrays(roots), fineness_many, max_generation, 10 ** 9)
        assert str(err.value) == str(exc)
        return
    pieces = _fine_cubes(*_root_arrays(roots), fineness_many, max_generation, 10 ** 9)
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


def _check_roots_by_root(roots: Sequence[DyadicCube], pts: np.ndarray, delta: Gauge,
                         eta: RegularityFn):
    """Refuse a root whose eta reaches the cube regularity or that meets the gauge's zeros.

    pts are the roots' _test_points: eta is taken at its largest there, and the
    first and last corner are the bounds of the root.
    """
    touches = delta.zero_set.cube_distances(pts[:, 1], pts[:, -1])[0] <= 0.0
    for q, row, touch in zip(roots, pts, touches.tolist()):
        top = float(eta.many(row).max())
        if top >= CUBE_REGULARITY(q.m):
            raise ValueError(
                f"eta {top} is not below the cube regularity {CUBE_REGULARITY(q.m)}"
            )
        if touch:
            raise ValueError("cousin subdivision needs a gauge positive on the domain; "
                             "excise the zero set first")


@given(_roots_and_gauges(), st.floats(0.0, 0.2), st.floats(-0.1, 0.1), st.booleans())
@settings(max_examples=250, deadline=None)
def test_root_checks_refuse_the_roots_the_per_root_loop_refuses(case, level, slope, touching):
    roots, gauge, _ = case
    corner, root_side, gen, index = _root_arrays(roots)
    if touching:  # a zero of the gauge at the lower corner of the last root
        lo = corner[-1] + np.ldexp(root_side[-1], -gen[-1]) * index[-1]
        gauge = gauge.min_with(Gauge.distance_to(ExceptionalSet.points([tuple(lo)])))
    eta = from_callable(RegularityFn, lambda x: level + slope * x.sum(axis=1))
    try:
        _check_roots_by_root(roots, _test_points(corner, np.ldexp(root_side, -gen), index),
                             gauge, eta)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            _check_roots(corner, root_side, gen, index, gauge, eta)
        assert str(err.value) == str(exc)
        return
    _check_roots(corner, root_side, gen, index, gauge, eta)


def test_depth_stop_names_the_first_root_to_fail_depth_first():
    # the deeper root reaches the cap three generations before the first one,
    # yet a depth-first run over the roots in order fails in the first root
    roots = [UNIT_CUBE, DyadicCube(ROOT, 3, (5, 2))]
    gauge = Gauge.constant(1e-3)
    _assert_same_pieces(roots, gauge.many, lambda p: _gauge_by_norm(gauge, p), 5)
    with pytest.raises(DepthError, match=r"\[\[0\.96875, 0\.96875\], \[1\.0, 1\.0\]\]"):
        _fine_cubes(*_root_arrays(roots), gauge.many, 5, 10 ** 9)


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
    assert len(_fine_cubes(*_root_arrays([UNIT_CUBE]), fineness, 40, 16)[0]) == 16
    with pytest.raises(ResourceBudgetError, match=r"piece budget \(15\)"):
        _fine_cubes(*_root_arrays([UNIT_CUBE]), fineness, 40, 15)
    # the frontier is refused before it is built: 4.2M pieces, stopped at 65,536
    with pytest.raises(ResourceBudgetError):
        cousin_decompose(UNIT_CUBE, Gauge.constant(1e-3), 0.1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cube_piece_masses_are_the_cube_set_bits(m):
    for side in (1.0, 0.3, math.pi):
        root = RootBox((0.25,) * m, side)
        for g in range(41):
            cube = DyadicCube(root, g, ((1 << g) - 1,) * m)
            region = CubeSet.of(root, [g], [cube.index])
            for theta in (1, -1, 3, -3):
                piece = TopDimCurrent(region, theta)
                mass, boundary_mass = _cube_masses(cube.side, m, theta)
                assert mass.hex() == piece.mass().value.hex()
                assert boundary_mass.hex() == piece.boundary_mass().value.hex()


def test_cube_pieces_carry_their_eta_and_masses():
    E = ExceptionalSet.points([(0.0, 0.0)])
    g = Gauge.distance_to(E, 0.75, 0.05).min_with(Gauge.constant(0.8))
    eta = from_callable(RegularityFn, lambda x: 0.01 + 0.01 * x[:, 0])
    fam = gauge_decompose(TopDimCurrent(CubeSet.whole(ROOT), 3), ExceptionalSet.empty(), g,
                          eta, MASS, 1e-3)
    keys = [p.meta["cube"] for p in fam.pairs]
    assert keys == sorted(keys)
    for p in fam.pairs:
        assert p.eta_at_tag == eta.many(np.asarray(p.tag)[None])[0]
        assert p.gauge_at_tag == _gauge_by_norm(g, np.asarray(p.tag))
        assert (p.mass, p.boundary_mass) == (p.piece.mass().value, p.piece.boundary_mass().value)


# -- the family as one object per piece, before the piece table ----------------
# _cube_pairs and _decompose_chart_piece below are the engine's per-piece
# loops, and chart_masses the sweep they called, verbatim; the piece table's
# views must carry their fields bit for bit, and the family's sums and rows
# must keep the bits these pairs give.


def _cube_pairs(roots: Sequence[DyadicCube], delta: Gauge, eta: RegularityFn, theta: int,
                max_generation: int, max_pieces: int) -> list[TaggedPair]:
    """Tagged Cousin pieces of the roots, root by root in (generation, index) order."""
    rid, gen, idx, diam, tags, vals = _fine_cubes(*_root_arrays(roots), delta.many, max_generation,
                                                  max_pieces)
    m = roots[0].m
    pairs = []
    for k in np.lexsort((*idx.T[::-1], gen, rid)):
        root = roots[rid[k]].root
        cube = DyadicCube(root, int(gen[k]), tuple(idx[k].tolist()))
        mass, boundary_mass = _cube_masses(cube.side, m, theta)
        pairs.append(TaggedPair(
            tag=tuple(tags[k].tolist()),
            piece=TopDimCurrent(CubeSet.of(root, [cube.generation], [cube.index]), theta),
            diam=float(diam[k]),
            mass=mass,
            boundary_mass=boundary_mass,
            reg=CUBE_REGULARITY(m),
            gauge_at_tag=float(vals[k]),
            eta_at_tag=float(eta.many(tags[k:k + 1])[0]),
            meta={"cube": cube.key()},
        ))
    return pairs


def chart_masses(pieces: Sequence[ChartCurrent], boundary: bool = False) -> list[QuadResult]:
    """Masses of chart pieces on one chart, or with ``boundary`` their boundary masses.

    One :func:`~stokeslab.quadrature.integrate_boxes` run integrates the
    area element over the rectangles of all the domains, or the speed of
    all the lifted edges over t in [0, 1]; each rectangle or edge is held to
    its piece's tol.  A piece's result is the same alone as in any batch.
    """
    if not pieces:
        return []
    chart = pieces[0].chart
    if any(p.chart is not chart for p in pieces):
        raise CurrentError("chart_masses needs pieces on one chart")
    if boundary:
        def _segments(edges) -> list:
            """Each edge (p, q) as the planar segment (p, q - p) over t in [0, 1]."""
            out = []
            for p, q in edges:
                p = np.asarray(p, dtype=float)
                out.append((p, np.asarray(q, dtype=float) - p, 0.0, 1.0))
            return out

        parts = [(i, seg) for i, p in enumerate(pieces)
                 for seg in _segments(zip(*p.boundary_edges()[1:3]))]
        base = np.array([b for _, (b, _, _, _) in parts]).reshape(-1, 2)
        direction = np.array([d for _, (_, d, _, _) in parts]).reshape(-1, 2)
        lo, hi = np.zeros((len(parts), 1)), np.ones((len(parts), 1))

        def density(box, t):
            tangent = _lifted_tangent(chart, base[box, None], direction[box, None], t)
            return np.sqrt((tangent ** 2).sum(axis=-1))
    else:
        parts = [(i, r) for i, p in enumerate(pieces) for r in p.domain_rects()]
        lo = np.array([(r.x0, r.y0) for _, r in parts]).reshape(-1, 2)
        hi = np.array([(r.x1, r.y1) for _, r in parts]).reshape(-1, 2)

        def density(box, x, y):
            return chart.area_element(x, y)

    results = integrate_boxes(density, lo, hi, tol=[pieces[i].tol for i, _ in parts])
    grouped = [[] for _ in pieces]
    for (i, _), res in zip(parts, results):
        grouped[i].append(res)
    return [_summed(group, abs(p.theta)) for group, p in zip(grouped, pieces)]


def _decompose_chart_piece(T: Current, delta: Gauge, eta: RegularityFn,
                           G: SubadditiveFn, budget: float, max_generation: int,
                           piece_budget: int) -> tuple[list[TaggedPair], list[Current]]:
    if isinstance(T, TopDimCurrent):
        roots = list(cubes_of(T.region))
        if not roots:
            return [], []
        # one constant eta per cube: its largest value at the test points
        _check_roots(*_root_arrays(roots), delta, eta)
        return _cube_pairs(roots, delta, eta, T.theta, max_generation, piece_budget), []
    chart = T.chart
    lip = chart.lip_upper
    accepted = []  # (square, cube, diam, pre_tag) over every square of every rect
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
        roots = [DyadicCube(RootBox((sq.x0, sq.y0), sq.x1 - sq.x0), 0, (0, 0))
                 for sq in squares]
        rid, gen, idx, diam, pre_tags, _ = _fine_cubes(
            *_root_arrays(roots), _chart_fineness(chart, delta), max_generation,
            piece_budget - len(accepted))
        for k in _depth_first_order(rid, gen, idx):
            cube = DyadicCube(roots[rid[k]].root, int(gen[k]), tuple(idx[k].tolist()))
            accepted.append((squares[rid[k]], cube, float(diam[k]), pre_tags[k]))

    pieces = [ChartCurrent(Rect(lo[0], hi[0], lo[1], hi[1]), chart, T.theta, tol=1e-11)
              for lo, hi in (cube.bounds() for _, cube, _, _ in accepted)]
    # all pieces of the chart piece share one quadrature sweep per kind of mass
    masses = chart_masses(pieces)
    boundary_masses = chart_masses(pieces, boundary=True)
    pairs: list[TaggedPair] = []
    for (square, cube, diam, pre_tag), piece, mres, bres in zip(accepted, pieces, masses,
                                                                 boundary_masses):
        tag3 = chart.point(float(pre_tag[0]), float(pre_tag[1]))
        diam_push = lip * diam  # Lipschitz upper bound, certified
        pairs.append(TaggedPair(
            tag=tuple(float(v) for v in tag3),
            piece=piece,
            diam=diam_push,
            mass=mres.value,
            boundary_mass=bres.value,
            reg=mres.value / (bres.value * diam_push),
            gauge_at_tag=gauge_at(delta, tag3),
            eta_at_tag=float(eta.many(tag3[None])[0]),
            meta={"pre_square": (square.x0, square.y0, square.x1 - square.x0),
                  "pre_cube": cube.key(), "pre_tag": tuple(map(float, pre_tag))},
        ))
    return pairs, leftovers


def _per_piece_family(monkeypatch, T, E, gauge, eps):
    """gauge_decompose's family and the reference pairs of the chart pieces it decomposed."""
    charts = []
    atlas = cousin._chart_atlas

    def recorded(work):
        out = atlas(work)
        charts.extend(out[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(cousin, "_chart_atlas", recorded)
        family = gauge_decompose(T, E, gauge, ETA, MASS, eps)
    return family, [pair for piece in charts for pair in _decompose_chart_piece(
        piece, gauge, ETA, MASS, eps / (2.0 * len(charts)), 40, MAX_PIECES)[0]]


def _bits(value):
    """value with every float as its hex string, through tuples, lists and dicts."""
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


def _square_density(tags):
    return 0.5 + tags[:, 0] * tags[:, 1] ** 2 - np.sin(3.0 * tags[:, -1])


def _reference_families():
    """(current, singular set, gauge, epsilon) of each gauge_decompose family compared."""
    from stokeslab.cli import _build_current

    segment = ExceptionalSet.segment((0.5, 0.0), (0.5, 1.0))
    cases = {f"unit-square-{j}": (UNIT, ExceptionalSet.empty(), Gauge.constant(2.0 ** -j), 1e-6)
             for j in range(7)}
    cases["excise-segment"] = (
        UNIT, segment, Gauge.distance_to(segment, 0.5).min_with(Gauge.constant(0.2)), 5e-2)
    for name, gauge in (("parabolic_graph", 0.1), ("flat_graph", 2.0 ** -4)):
        cases[name] = (_build_current({"kind": name}), ExceptionalSet.empty(),
                       Gauge.constant(gauge), 1e-3)
    return cases


@pytest.mark.parametrize("name", [*_reference_families(), "cube-3d"])
def test_piece_table_views_carry_the_bits_of_the_per_piece_engine(monkeypatch, name):
    if name == "cube-3d":
        domain = DyadicCube(RootBox((0.0, 0.0, 0.0), 1.0), 0, (0, 0, 0))
        gauge = Gauge.distance_to(ExceptionalSet.points([(0.1, 0.2, 0.3)]), 0.5, 0.05)
        family = cousin_decompose(domain, gauge, 0.05, theta=-2)
        reference = _cube_pairs([domain], gauge, RegularityFn.constant(0.05), -2, 40,
                                MAX_PIECES)
    else:
        family, reference = _per_piece_family(monkeypatch, *_reference_families()[name])
    assert len(family.pairs) == len(reference) > 0
    fields = ("tag", "diam", "mass", "boundary_mass", "reg", "gauge_at_tag", "eta_at_tag", "meta")
    for view, pair in zip(family.pairs, reference):
        assert _bits([getattr(view, f) for f in fields]) == _bits([getattr(pair, f) for f in fields])
        assert _bits(view.piece.descriptor()) == _bits(pair.piece.descriptor())

    # the sums and rows of the family as TaggedFamily computed them from the pairs
    tags = np.array([p.tag for p in reference], dtype=float)
    values = _square_density(tags)
    assert riemann_sum(_square_density, family).hex() == math.fsum(
        v * p.mass for v, p in zip(values, reference)).hex()
    summary = family.summary()
    assert _bits([summary[k] for k in ("pieces", "body_mass", "min_regularity", "max_diameter")]) \
        == _bits([len(reference), math.fsum(p.mass for p in reference),
                  min(p.reg for p in reference), max(p.diam for p in reference)])
    rows = [{"piece_id": i, "tag": list(p.tag), "diam": p.diam, "mass": p.mass,
             "boundary_mass": p.boundary_mass, "reg": p.reg, "delta_at_tag": p.gauge_at_tag,
             "eta_at_tag": p.eta_at_tag} for i, p in enumerate(reference)]
    assert json.dumps(_bits(list(family.rows()))) == json.dumps(_bits(rows))
