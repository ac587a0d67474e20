"""Model, chart, form and threshold routines that only the tests call, moved out verbatim.

``u_and_du``, ``max_regularity``, ``partial_length``, ``dy_section_length``,
``dy_partial_length`` and ``sup_omega_on_section`` were methods of
``counterexample.SurfaceModel`` (the last four one-element wrappers of its
batch evaluators), ``verify_lip_upper`` a method of
``currents.ChartMap``, ``from_callable`` a classmethod of
``cousin.RegularityFn`` and ``from_vector`` a classmethod of
``forms.KVector``; each keeps its body, with its object or class as the
first argument ``self`` or ``cls``.  ``u_and_du`` reads psi_x from the
model's ``gradient``, since the model's one-partial methods are gone, and
calls the length wrappers here as functions; ``from_callable`` takes an
``fn`` from an (N, m) array of points to N values.
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
    Lxy = partial_length(self, x, y)
    dyL = dy_section_length(self, y)
    dyLxy = dy_partial_length(self, x, y)
    px = float(self.gradient(x, y)[0])
    ux = math.sqrt(1.0 + px * px) / L
    uy = (L * dyLxy - Lxy * dyL) / (L * L)
    return Lxy / L, forms.KCovector(2, 1, np.array([ux, uy]))


def partial_length(self: SurfaceModel, x: float, y: float) -> float:
    """L(x, y): arclength of the section from 0 to x."""
    x, y = float(x), float(y)
    if y >= self.y_infinity:
        return x
    return float(self._row_integrals(self._speed, y, x)[0])


def dy_section_length(self: SurfaceModel, y: float) -> float:
    y = float(y)
    if y >= self.y_infinity:
        return 0.0
    return float(self._row_integrals(self._speeds, y, math.pi, channels=2)[1, 0])


def dy_partial_length(self: SurfaceModel, x: float, y: float) -> float:
    x, y = float(x), float(y)
    if y >= self.y_infinity:
        return 0.0
    return float(self._row_integrals(self._speeds, y, x, channels=2)[1, 0])


def sup_omega_on_section(self: SurfaceModel, k: int, samples_per_period: int = 64) -> float:
    """sup over x of |omega(Psi(x, y_k))| via one-period sampling."""
    return float(self.sup_omega_on_sections([k], samples_per_period)[0])


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
