import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslab import minkowski
from stokeslab.currents import TopDimCurrent
from stokeslab.dyadic import CubeSet, ExceptionalSet, RootBox

ROOT = RootBox((0.0, 0.0), 1.0)
UNIT = TopDimCurrent(CubeSet.whole(ROOT))
MID_SEGMENT = ExceptionalSet.segment((0.5, 0.0), (0.5, 1.0))
CENTER = ExceptionalSet.points([(0.5, 0.5)])


def test_strip_profile_bounded_at_one():
    prof = minkowski.intrinsic_content(UNIT, MID_SEGMENT, 0.2, 0.7, 12)
    assert prof.trend == minkowski.BOUNDED
    assert all(abs(v - 1.0) <= 1e-9 for v in prof.values)
    assert prof.supremum() == pytest.approx(1.0, abs=1e-9)


def test_center_point_profile_vanishes():
    prof = minkowski.intrinsic_content(UNIT, CENTER, 0.2, 0.7, 12)
    assert prof.trend == minkowski.VANISHING
    # v = pi r^2 / (2r) = pi r / 2 while the disk fits inside
    for r, v in zip(prof.radii, prof.values):
        if r <= 0.5:
            assert v == pytest.approx(math.pi * r / 2.0, rel=1e-6)


def test_initial_radius_must_fit():
    with pytest.raises(ValueError):
        minkowski.intrinsic_content(UNIT, CENTER, 5.0, 0.7, 4)


def test_monotone_in_the_set():
    small = ExceptionalSet.segment((0.5, 0.25), (0.5, 0.75))
    prof_small = minkowski.intrinsic_content(UNIT, small, 0.2, 0.7, 8)
    prof_big = minkowski.intrinsic_content(UNIT, MID_SEGMENT, 0.2, 0.7, 8)
    for vs, vb in zip(prof_small.values, prof_big.values):
        assert vs <= vb + 1e-12


def test_additive_on_far_apart_sets():
    e1 = ExceptionalSet.points([(0.2, 0.2)])
    e2 = ExceptionalSet.points([(0.8, 0.8)])
    union = e1.union(e2)
    r0, q, steps = 0.05, 0.7, 6
    p1 = minkowski.intrinsic_content(UNIT, e1, r0, q, steps)
    p2 = minkowski.intrinsic_content(UNIT, e2, r0, q, steps)
    pu = minkowski.intrinsic_content(UNIT, union, r0, q, steps)
    for a, ea, b, eb, u, eu in zip(p1.values, p1.errors, p2.values, p2.errors,
                                   pu.values, pu.errors):
        assert abs(u - (a + b)) <= ea + eb + eu + 1e-12


def test_multiplicity_scales_profile():
    doubled = TopDimCurrent(CubeSet.whole(ROOT), theta=2)
    p1 = minkowski.intrinsic_content(UNIT, MID_SEGMENT, 0.2, 0.7, 6)
    p2 = minkowski.intrinsic_content(doubled, MID_SEGMENT, 0.2, 0.7, 6)
    for a, b in zip(p1.values, p2.values):
        assert b == pytest.approx(2 * a, rel=1e-12)


def test_hausdorff_comparison_on_known_cases():
    rep = minkowski.hausdorff_comparison_check(UNIT, MID_SEGMENT, known_measure=1.0)
    assert rep["holds"]
    assert rep["inf_tail"] == pytest.approx(1.0, abs=1e-9)
    rep0 = minkowski.hausdorff_comparison_check(UNIT, CENTER, known_measure=0.0)
    assert rep0["holds"]


def test_excisability_empty_set():
    ev = minkowski.excisability_evidence(UNIT, ExceptionalSet.empty())
    assert ev.accepted and ev.constant == 0.0


def test_excisability_boundary_edge_constant_half():
    edge = ExceptionalSet.segment((0.0, 0.0), (0.0, 1.0))
    ev = minkowski.excisability_evidence(UNIT, edge, 0.2, 0.7, 12)
    assert ev.accepted
    assert ev.constant == pytest.approx(0.5, abs=1e-6)


def test_excisability_refusal_for_divergent_profile():
    from stokeslab.counterexample import Params, build_surface_current

    S = build_surface_current(Params.default())
    ev = minkowski.excisability_evidence(S, S.model.singular_set(), 0.45, 1 / 3, 9)
    assert not ev.accepted
    assert "DIVERGENT" in ev.reason
    assert ev.profile.growth_exponent() > 0


def test_neighborhood_mass_strip_exact():
    res = minkowski.neighborhood_mass(UNIT, MID_SEGMENT, 0.25)
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_neighborhood_mass_disk():
    res = minkowski.neighborhood_mass(UNIT, CENTER, 0.3)
    assert res.value == pytest.approx(math.pi * 0.09, rel=1e-8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # x so close that ssxm underflows
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6, allow_subnormal=False),
                          st.floats(-1e6, 1e6, allow_subnormal=False)),
                min_size=2, max_size=30, unique_by=lambda p: p[0]))
def test_slope_has_the_bits_of_linregress(points):
    from scipy import stats

    x, y = np.array(points).T
    assert minkowski._slope(x, y).hex() == float(stats.linregress(x, y).slope).hex()
