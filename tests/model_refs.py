"""Model, chart, form and threshold routines that only the tests call, moved out verbatim.

``u_and_du`` and ``max_regularity`` were methods of
``counterexample.SurfaceModel``, ``verify_lip_upper`` a method of
``currents.ChartMap``, ``from_callable`` a classmethod of
``cousin.RegularityFn`` and ``from_vector`` a classmethod of
``forms.KVector``; each keeps its body, with its object or class as the
first argument ``self`` or ``cls``.  ``u_and_du`` reads psi_x from the
model's ``gradient``, since the model's one-partial methods are gone, and
``from_callable`` takes an ``fn`` from an (N, m) array of points to N values.
"""

import math
from typing import Callable

import numpy as np

from stokeslab import forms
from stokeslab.counterexample import SurfaceModel
from stokeslab.cousin import RegularityFn
from stokeslab.currents import ChartMap


def u_and_du(self: SurfaceModel, x: float, y: float):
    """u = L(x,y)/L(y) and its differential as a planar 1-covector."""
    x, y = float(x), float(y)
    L = self.section_length(y).value
    Lxy = self.partial_length(x, y)
    dyL = self.dy_section_length(y)
    dyLxy = self.dy_partial_length(x, y)
    px = float(self.gradient(x, y)[0])
    ux = math.sqrt(1.0 + px * px) / L
    uy = (L * dyLxy - Lxy * dyL) / (L * L)
    return Lxy / L, forms.KCovector(2, 1, np.array([ux, uy]))


def max_regularity(self: SurfaceModel, y: float) -> float:
    """Per-strip maximal regularity from the chart Lipschitz constants."""
    k = int(self.strip_index(y))
    lip = self.strip_lip_upper(k)
    return lip ** (-2) * 2.0 ** (-1) * 2.0 ** (-1.5)


def verify_lip_upper(self: ChartMap, domain_bounds, samples: int = 2000, rng=None) -> bool:
    rng = rng or np.random.default_rng(0)
    (x0, x1, y0, y1) = domain_bounds
    xs = rng.uniform(x0, x1, samples)
    ys = rng.uniform(y0, y1, samples)
    return bool(np.all(self.area_element(xs, ys) <= self.lip_upper + 1e-12))


def from_callable(cls: type[RegularityFn], fn: Callable) -> RegularityFn:
    return cls(fn=fn)


def from_vector(cls: type[forms.KVector], v) -> forms.KVector:
    v = np.asarray(v, dtype=float)
    return cls(len(v), 1, v)
