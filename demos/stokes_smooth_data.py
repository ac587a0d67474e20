"""The boundary identity on smooth data, two ways.

For a planar region and a smooth 1-form, the integral of the exterior
derivative against the oriented tangent plane equals the boundary
circulation.  Both sides are computed independently (adaptive quadrature
vs certified line integrals), and Riemann sums over shrinking gauge
families corroborate the left side.
"""

import math

import numpy as np

from stokeslab import forms, integration
from stokeslab.currents import ChartCurrent, ChartMap, Rect, TopDimCurrent
from stokeslab.dyadic import CubeSet, RootBox

print("== flat square, omega = x dy: both sides equal the area")
square = TopDimCurrent(CubeSet.whole(RootBox((0.0, 0.0), 1.0)))
x_dy = forms.FormField(
    2, 1,
    coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0]]),
    differential=lambda p: np.ones((len(p), 1)),
    name="x dy",
)
report = integration.stokes_check(square, x_dy)
print(f"lhs = {report.lhs:.15f}, rhs = {report.rhs:.15f}")
print(f"gap = {report.gap:.3e}, verdict: {report.verdict}")

print()
print("== parabolic graph with a polynomial form in space")
scale = 0.25
chart = ChartMap(
    psi=lambda x, y: scale * (np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float)),
    gradient=lambda x, y: (2 * scale * np.asarray(x, dtype=float),
                           scale * np.ones_like(np.asarray(x, dtype=float))),
    lip_upper=math.sqrt(1 + (2 * scale) ** 2 + scale ** 2),
    name="parabolic",
)
graph = ChartCurrent(Rect(0.0, 1.0, 0.0, 1.0), chart)
xz_dy = forms.FormField(
    3, 1,
    coeffs=lambda p: np.column_stack([np.zeros(len(p)), p[:, 0] * p[:, 2], np.zeros(len(p))]),
    differential=lambda p: np.column_stack([p[:, 2], np.zeros(len(p)), -p[:, 0]]),
    name="x z dy",
)
report = integration.stokes_check(graph, xz_dy)
print(f"lhs = {report.lhs:.12f}, rhs = {report.rhs:.12f}, verdict: {report.verdict}")
print("Riemann sums over shrinking gauges approach the oracle:")
for row in report.refinement_curve:
    print(f"  gauge 2^-{row['j']}: max diam {row['max_diam']:.4f}, "
          f"|sigma - oracle| = {row['abs_err']:.3e}")
