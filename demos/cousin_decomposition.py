"""Tagged gauge decompositions of the unit square, step by step.

A gauge assigns every point a positive "allowed diameter"; Cousin
subdivision splits dyadic cubes until each one fits under the gauge at one
of its own points, which becomes the tag.  Every piece is a cube, so its
regularity (mass over boundary mass times diameter) is exactly 2^(-5/2),
and the family tiles the square with zero remainder.
"""

from stokeslab import certify
from stokeslab.cousin import Gauge, RegularityFn, SubadditiveFn, gauge_decompose
from stokeslab.currents import TopDimCurrent
from stokeslab.dyadic import CubeSet, ExceptionalSet, RootBox

root = RootBox((0.0, 0.0), 1.0)
square = TopDimCurrent(CubeSet.whole(root))


def cousin(gauge):
    """Cousin pieces of the whole square: no singular set, so nothing is excised."""
    return gauge_decompose(square, ExceptionalSet.empty(), gauge, RegularityFn.constant(0.1),
                           SubadditiveFn.mass(), eps=1e-3)


print("== uniform gauge 0.4: every generation-2 cube fits, nothing smaller needed")
family = cousin(Gauge.constant(0.4))
print(f"pieces: {len(family.pairs)}, total mass: {family.body_mass()}")
print(f"max diameter: {family.max_diameter():.6f} < 0.4, min regularity: "
      f"{family.min_regularity():.6f} = 2^-5/2")

print()
print("== a gauge that tightens toward the origin forces mixed piece sizes")
corner = ExceptionalSet.points([(0.0, 0.0)])
gauge = Gauge.distance_to(corner, 0.75, 0.05).min_with(Gauge.constant(0.8))
family = cousin(gauge)
generations = sorted(set(family.pairs.cubes[3].tolist()))
print(f"pieces: {len(family.pairs)} across generations {generations}")
print(f"sum of piece measures: {family.body_mass()} (exact tiling)")

print()
print("== the independent checker re-derives every certificate from scratch")
report = certify.check_family(family, gauge, RegularityFn.constant(0.1),
                              SubadditiveFn.mass())
print(f"certificates pass: {report.passed} over {report.pieces} pieces")

print()
print("== a gauge vanishing at an interior point: excise first, then decompose")
bad_point = ExceptionalSet.points([(0.5, 0.5)])
vanishing = Gauge.distance_to(bad_point, 1.0, 0.0).min_with(Gauge.constant(0.4))
family = gauge_decompose(square, bad_point, vanishing, RegularityFn.constant(0.1),
                         SubadditiveFn.mass(), eps=1e-3)
print(f"pieces: {len(family.pairs)}, body mass: {family.body_mass():.9f}")
print(f"mass remainder {family.remainder_value:.3e} < 1e-3 "
      f"({len(family.remainder_pieces)} excised remainder pieces)")
