"""The oscillating-surface construction that defeats the boundary identity.

One strip model (:class:`StripModel`) glues the graphs of
f_k(x) = h^k sin(x / lambda^k) over strips whose widths shrink
geometrically; the normalized-arclength coordinate u along the sections
yields a closed 1-form on the surface whose continuous ambient extension
has circulation 1 around the boundary while its tangential differential
vanishes on the smooth part.  The model runs on two ladders of strips:

* :class:`SurfaceModel`, the Cartesian one: strips [y_k, y_{k+1}) with
  y_k = y_inf (1 - a^k) collapse onto a segment of finite H^1 measure;
* :class:`CylindricalModel`, the polar one (experimental): annuli
  (r_{k+1}, r_k] with r_k = a^k collapse onto a point, of null H^1 measure.

Three parameter conditions drive the demonstration: finite area
(h * a < lambda_ratio ... stored as flags on :class:`Params`), section
lengths blowing up, and decay of the form near the singular set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import forms
from .currents import SurfaceCurrent, graph_tangent
from .dyadic import ExceptionalSet
from .quadrature import QuadResult, gauss_rule, ragged_panels

__all__ = [
    "Params",
    "TransitionFn",
    "StripModel",
    "SurfaceModel",
    "CylindricalModel",
    "ParamsError",
    "build_surface_current",
    "verify_failure",
    "cylindrical_variant",
]


class ParamsError(ValueError):
    """Parameter choice violates the conditions the construction needs."""


@dataclass(frozen=True)
class Params:
    """Geometry parameters with the three demonstration conditions as flags."""

    a: float
    h: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ParamsError("a must lie in (0, 1)")
        if not (0.0 <= self.h < 1.0):
            raise ParamsError("h must lie in [0, 1)")
        if not (0.0 < self.lam < 1.0):
            raise ParamsError("lambda must lie in (0, 1)")
        inv = 1.0 / self.lam
        if abs(inv - round(inv)) > 1e-12:
            raise ParamsError("1/lambda must be an integer")

    @classmethod
    def default(cls) -> "Params":
        return cls(a=1.0 / 3.0, h=1.0 / 3.0, lam=0.25)

    @property
    def lam_inverse(self) -> int:
        return round(1.0 / self.lam)

    @property
    def y_infinity(self) -> float:
        return self.a / (1.0 - self.a)

    def y_k(self, k: int) -> float:
        # y_k = sum_{j=1..k} a^j, written to stay accurate near the limit
        return self.y_infinity * (1.0 - self.a ** k)

    @property
    def flag_area(self) -> bool:
        return self.h * self.a / self.lam < 1.0

    @property
    def flag_length(self) -> bool:
        return self.h / self.lam > 1.0

    @property
    def flag_continuity(self) -> bool:
        return self.a > self.lam

    def flags(self) -> dict:
        return {
            "area": self.flag_area,
            "length": self.flag_length,
            "continuity": self.flag_continuity,
        }

    def require_all_flags(self):
        bad = [name for name, ok in self.flags().items() if not ok]
        if bad:
            raise ParamsError(f"violated parameter conditions: {', '.join(bad)}")


# ---------------------------------------------------------------------------


def _smooth_step(u, p: float = 1.0):
    """C-infinity step: 0 below 0, 1 above 1, flat to infinite order at both."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inner = (u > 0.0) & (u < 1.0)
    su = np.where(inner, u, 0.5)
    f = np.exp(-p / su)
    g = np.exp(-p / (1.0 - su))
    out = np.where(inner, f / (f + g), out)
    return np.where(u >= 1.0, 1.0, out)


def _clamped_spline(x, y):
    """Power-form coefficients c, shaped (4, n - 1), of the clamped cubic spline through (x, y).

    These are the floats of scipy's ``CubicSpline(x, y, bc_type="clamped").c``:
    the knot slopes s solve its tridiagonal system by the steps of LAPACK
    ``dgtsv`` without row interchanges, which it never makes on uniform knots
    in [0, 1] (each pivot, 1 or at least 3.7 dx, exceeds its sub-diagonal dx).
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d = [1.0, *(2 * (dx[:-1] + dx[1:])).tolist(), 1.0]
    b = [0.0, *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(), 0.0]
    du, dl = [0.0, *dx[:-1].tolist()], [*dx[1:].tolist(), 0.0]
    n = len(d)
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        b[i + 1] -= fact * b[i]
    s = b
    s[-1] /= d[-1]
    s[-2] = (s[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        s[i] = (s[i] - du[i] * s[i + 1]) / d[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])


def _spline_values(x, c, u):
    """The piecewise cubic (x, c) at u, with the floats of scipy's ``PPoly``: u lies
    in interval i, x[i] <= u < x[i + 1] clipped to the end intervals, the powers of
    z = u - x[i] are repeated products, and the sum starts at 0.0."""
    i = np.searchsorted(x[1:-1], u, side="right")
    c, z = c[:, i], u - x[i]
    z2 = z * z
    return 0.0 + c[3] + c[2] * z + c[1] * z2 + c[0] * (z2 * z)


class TransitionFn:
    """Normalized integrated bump: 0 on [0, 1/8], 1 on [7/8, 1], slope < 2.

    The derivative profile is a plateau bump (smooth ramps of relative width
    ``ramp``), which keeps sup phi' = 1/(0.75 * (1 - ramp)) ~ 1.905 for the
    default ramp of 0.3.  Values come from a dense cumulative-Simpson table
    through the clamped cubic spline of :func:`_clamped_spline` and
    :func:`_spline_values`, which give scipy's floats; the derivative is closed-form.
    """

    LO = 0.125
    HI = 0.875

    def __init__(self, ramp: float = 0.3, table_size: int = 1 << 13):
        self.ramp = ramp
        self.width = self.HI - self.LO
        grid = np.linspace(0.0, 1.0, 2 * table_size + 1)
        b = self._bump(grid)
        h = grid[1] - grid[0]
        cum = np.zeros(table_size + 1)
        cum[1:] = np.cumsum(h / 3.0 * (b[0:-1:2] + 4.0 * b[1::2] + b[2::2]))
        self._norm = cum[-1]
        self._u_grid = grid[::2]
        self._cum = cum / self._norm
        self._coeffs = _clamped_spline(self._u_grid, self._cum)

    def _bump(self, u):
        return _smooth_step(u / self.ramp) * _smooth_step((1.0 - u) / self.ramp)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = (t - self.LO) / self.width
        val = np.clip(_spline_values(self._u_grid, self._coeffs, np.clip(u, 0.0, 1.0)), 0.0, 1.0)
        val = np.where(u <= 0.0, 0.0, val)
        return np.where(u >= 1.0, 1.0, val)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        u = (t - self.LO) / self.width
        inside = (u > 0.0) & (u < 1.0)
        val = np.where(inside, self._bump(np.clip(u, 0.0, 1.0)), 0.0)
        return val / (self._norm * self.width)

    def sup_derivative(self, grid: int = 10_000) -> float:
        t = np.linspace(0.0, 1.0, grid)
        return float(self.derivative(t).max())


# Values per evaluation block of StripModel._row_integrals, channels counted.
# The strip evaluators build a dozen temporaries of the block's size, so
# this bounds the extra memory a batch of rows needs.
ROW_BLOCK_POINTS = 1 << 14

_DEFAULT_TRANSITION: Optional[TransitionFn] = None


def default_transition() -> TransitionFn:
    global _DEFAULT_TRANSITION
    if _DEFAULT_TRANSITION is None:
        _DEFAULT_TRANSITION = TransitionFn()
    return _DEFAULT_TRANSITION


# ---------------------------------------------------------------------------


class _Heights:
    """The blend data of heights y: strip index k, s, phi(s) and phi'(s) / width.

    phi'(s) / width is computed when first read.  :meth:`StripModel._gl_rows`
    makes one for all the heights of a call, and its blocks read it through
    :class:`_Blend`.  A (1, n) node row that a group of heights shares is
    registered with :meth:`share`; the group's blocks then read f_j and f_j'
    on it from :meth:`table`, each built once, when first read, for each
    strip j from the group's least k to its greatest k + 1.
    """

    def __init__(self, model: "StripModel", y):
        self.y = np.asarray(y, dtype=float)
        self.k = model.strip_index(self.y)
        self.s = (self.y - model._ladder[self.k]) / model._width[self.k]
        self.w = model.transition(self.s)
        self._model, self.row = model, None

    @cached_property
    def dw(self):
        return self._model.transition.derivative(self.s) / self._model._width[self.k]

    def share(self, x, rows):
        """Register x as the (1, n) node row that the heights ``rows`` share."""
        k = self.k[rows]
        self.row, self.k_lo, self._k_hi, self._tables = x, k.min(), k.max(), {}

    def table(self, i: int):
        """f_j (i = 0) or f_j' (i = 1) on the shared node row, one row per strip j."""
        if i not in self._tables:
            fn = (self._model._f, self._model._fprime)[i]
            self._tables[i] = fn(np.arange(self.k_lo, self._k_hi + 2)[:, None], self.row)
        return self._tables[i]


class _Blend:
    """psi and its partials px, py, pxy at the points (x, y), each computed when first read.

    In strip k, s = (y - y_k) / width_k runs from 0 to 1 and
    psi = (1 - phi(s)) f_k + phi(s) f_{k+1}; the width is signed, so py is
    a derivative along the ladder coordinate whichever way the ladder runs.
    The blend data per height come from :class:`_Heights`.  y may be a pair
    (heights, rows) of a :class:`_Heights` and the index of the height of
    each point, broadcast against x, and then they are gathered to the
    points.  On the node row that the heights share, f_j and f_j' come from
    its tables: as (1, n) rows when all the points' heights lie in one
    strip, else gathered to the rows.  Other points pay their own.  psi and
    py read only f, px and pxy only f'.
    """

    def __init__(self, model: "StripModel", x, y):
        self._heights, self._rows = y if isinstance(y, tuple) else (_Heights(model, y), ...)
        heights, rows = self._heights, self._rows
        self._model, self._x = model, np.asarray(x, dtype=float)
        self._k, self.y, self._w = heights.k[rows], heights.y[rows], heights.w[rows]
        self._pairs, self._dw = {}, None

    def _pair(self, i: int):
        heights, k = self._heights, self._k
        if self._x is heights.row:
            j = k[:, 0] - heights.k_lo
            if j.min() == j.max():
                j = j[:1]
            table = heights.table(i)
            return table[j], table[j + 1]
        fn = (self._model._f, self._model._fprime)[i]
        return fn(k, self._x), fn(k + 1, self._x)

    def __getitem__(self, i: int):
        if i % 2 not in self._pairs:
            self._pairs[i % 2] = self._pair(i % 2)
        fk, fk1 = self._pairs[i % 2]
        if i < 2:
            return (1.0 - self._w) * fk + self._w * fk1
        if self._dw is None:
            self._dw = self._heights.dw[self._rows]
        return self._dw * (fk1 - fk)

    def __iter__(self):
        return (self[i] for i in range(4))


class StripModel:
    """Oscillating strips on a ladder y_0, y_1, ...: the graph over them and its integrals.

    Strip k covers [y_k, y_{k+1}) in the direction the ladder runs and
    blends f_k into f_{k+1} across it.  A subclass supplies the ladder, the
    signed strip widths, the section extent [0, x_hi] and its chart's
    integrands ``_speed``, ``_speeds`` (the speed and its derivative along
    the ladder, as two channels) and ``_area_density``, each a function of
    (x, y) as :class:`_Blend` takes them: x runs along the sections and y
    is the ladder coordinate (r on the polar ladder).  All point
    evaluators are vectorized over numpy arrays.
    """

    K_TABLE = 60

    def __init__(self, params: Params, ladder: np.ndarray, width: np.ndarray, x_hi: float,
                 transition: Optional[TransitionFn], panels_per_osc: int):
        self.params = params
        self.transition = transition or default_transition()
        self.x_lo, self.x_hi = 0.0, x_hi
        self.panels_per_osc = panels_per_osc
        self._ladder = ladder
        self._width = width
        self._sign = math.copysign(1.0, width[0])
        self._keys = self._sign * ladder  # ascending, for searchsorted
        self._periods = np.array([self._x_period(k) for k in range(self.K_TABLE)])
        # per-strip constants, looked up by strip index so that a value never
        # depends on the shape of the array it is evaluated in
        ks = np.arange(self.K_TABLE + 1)
        self._amp = np.where(ks == 0, 0.0, params.h ** ks)
        self._freq = params.lam ** (-ks.astype(float))
        self._sup_dphi = self.transition.sup_derivative()

    def strip_index(self, y):
        y = np.asarray(y, dtype=float)
        k = np.searchsorted(self._keys, self._sign * y, side="right") - 1
        return np.clip(k, 0, self.K_TABLE - 1)

    # -- the graph over the strips ---------------------------------------------

    def _f(self, k, x):
        """f_k(x) stacked for integer array k and float array x."""
        return self._amp[k] * np.sin(np.asarray(x, dtype=float) * self._freq[k])

    def _fprime(self, k, x):
        freq = self._freq[k]
        return self._amp[k] * freq * np.cos(np.asarray(x, dtype=float) * freq)

    # -- periodized x-integrals ----------------------------------------------

    def _x_period(self, k: int) -> float:
        return 2.0 * math.pi * self.params.lam ** k

    def _panels_per_period(self) -> int:
        return 2 * self.panels_per_osc * self.params.lam_inverse

    def _row_integrals(self, integrand, ys, x_his, scale: int = 1, channels: int = 1) -> np.ndarray:
        """Integral of ``integrand(x, y)`` over x in [0, x_hi], for every row (y, x_hi).

        Each row is a count of whole periods of its strip plus a tail, on
        ``scale`` times the usual panels.  The whole-period integral is
        computed once per distinct height, and the whole periods and the
        tails go through one :meth:`_gl_rows` pass.  An integrand of
        ``channels`` > 1 returns them on a leading axis, and so does this.
        """
        ys, x_his = np.broadcast_arrays(np.atleast_1d(np.asarray(ys, dtype=float)),
                                        np.asarray(x_his, dtype=float))
        P = self._periods[self.strip_index(ys)]
        panels = self._panels_per_period()
        n_full = np.floor(x_his / P + 1e-12)
        rem = x_his - n_full * P
        rem[rem < 1e-15 * np.maximum(1.0, x_his)] = 0.0
        full, tail = n_full != 0, rem > 0
        heights, row_of = np.unique(ys[full], return_inverse=True)
        tail_panels = scale * np.maximum(2, np.ceil(panels * rem[tail] / P[tail])).astype(int)
        vals = self._gl_rows(integrand, np.concatenate([heights, ys[tail]]),
                             np.concatenate([self._periods[self.strip_index(heights)], rem[tail]]),
                             np.concatenate([np.full(len(heights), scale * panels), tail_panels]),
                             channels)
        out = np.zeros(vals.shape[:-1] + ys.shape)
        out[..., full] = n_full[full] * vals[..., row_of.ravel()]
        out[..., tail] += vals[..., len(heights):]
        return out

    def _gl_rows(self, integrand, ys, lengths, panels, channels: int) -> np.ndarray:
        """Composite Gauss values over [0, lengths[i]] on panels[i] panels at heights ys[i].

        A call builds its panels in one :func:`ragged_panels` pass and the
        blend data of all its heights in one :class:`_Heights`.  Rows that
        share their length and panel count share one (1, n) node row, whose
        strip tables are built once for the group.  The other rows go end to
        end, in order of panel count.  Each block is one
        ``integrand(x, (heights, rows))`` call (see :class:`_Blend`) of at
        most ROW_BLOCK_POINTS values plus one row, and each row is reduced
        by its own (panels, order) @ weights and sum of half-widths times
        panel sums.
        """
        order = np.lexsort((lengths, panels))
        n, b = panels[order], lengths[order]
        first = np.flatnonzero(np.r_[True, (n[1:] != n[:-1]) | (b[1:] != b[:-1])])
        size = np.diff(np.r_[first, len(order)])
        # one node row per group that shares it, then the rows alone
        node_rows = np.concatenate([order[first[size > 1]], order[np.repeat(size == 1, size)]])
        mids, halves = ragged_panels(0.0, lengths[node_rows], panels[node_rows])
        edges = np.r_[0, np.cumsum(panels[node_rows])]
        nodes, weights = gauss_rule(12)
        heights = _Heights(self, ys)
        out = np.empty((channels, len(ys)))

        def node_row(a, z):
            """The Gauss nodes of the panels a:z, end to end."""
            return (mids[a:z, None] + halves[a:z, None] * nodes).ravel()

        def sums(vals, a, z, p):
            """Each row's sum of half-widths times Gauss sums, for rows of p panels a:z."""
            vals = vals.reshape(channels, -1, p, 12) @ weights
            return np.sum(halves[a:z].reshape(-1, p) * vals, axis=-1)

        for g, (a, m) in enumerate(zip(first[size > 1], size[size > 1])):
            x = node_row(edges[g], edges[g + 1])[None]
            heights.share(x, order[a:a + m])
            step = max(1, ROW_BLOCK_POINTS // (channels * x.size))
            for rows in np.split(order[a:a + m], np.arange(step, m, step)):
                out[:, rows] = sums(integrand(x, (heights, rows[:, None])),
                                    edges[g], edges[g + 1], n[a])
        alone = np.arange((size > 1).sum(), len(node_rows))
        points = channels * 12 * panels[node_rows[alone]]
        block_of = (np.cumsum(points) - points) // ROW_BLOCK_POINTS
        for block in np.split(alone, np.flatnonzero(np.diff(block_of)) + 1) if len(alone) else []:
            rows, at = node_rows[block], edges[block[0]:block[-1] + 2]
            vals = integrand(node_row(at[0], at[-1]),
                             (heights, np.repeat(rows, 12 * panels[rows]))).reshape(channels, -1)
            # each run of equal panel counts is reduced on its own
            runs = np.flatnonzero(np.r_[True, np.diff(panels[rows]) != 0, True])
            for a, z in zip(runs[:-1], runs[1:]):
                out[:, rows[a:z]] = sums(vals[:, 12 * (at[a] - at[0]):12 * (at[z] - at[0])],
                                         at[a], at[z], panels[rows[a]])
        return out if channels > 1 else out[0]

    def _lengths_at(self, x, y):
        """L(y), dL/dy(y), L(x, y) and dL(x, y)/dy at points (x, y) of the strips.

        Section rows (x_hi) and partial rows share one pass of the
        two-channel integrand ``_speeds``, so each distinct height pays for
        one whole period, and L(y) takes one more pass at twice the panels.
        """
        heights, h_of = np.unique(y, return_inverse=True)
        pairs, p_of = np.unique(np.stack([x, y], axis=-1), axis=0, return_inverse=True)
        row_y = np.concatenate([heights, pairs[:, 1]])
        row_x = np.concatenate([np.full(len(heights), self.x_hi), pairs[:, 0]])
        h_of, p_of = h_of.ravel(), len(heights) + p_of.ravel()
        speed, dy_speed = self._row_integrals(self._speeds, row_y, row_x, channels=2)
        L = self._row_integrals(self._speed, heights, self.x_hi, scale=2)
        return L[h_of], dy_speed[h_of], speed[p_of], dy_speed[p_of]

    def _frame_coeffs(self, x, y, p_along, p_across):
        """Coefficients (c1, c2) of du, u = L(x, y) / L(y), in the unit frame of the surface.

        ``p_along`` and ``p_across`` are the slopes of the graph per unit
        length along and across the sections at the points (x, y).
        """
        L, dyL, Lxy, dyLxy = self._lengths_at(x, y)
        n1 = np.sqrt(1.0 + p_along * p_along)
        n2 = np.sqrt(1.0 + p_along * p_along + p_across * p_across)
        Y = (L * dyLxy - Lxy * dyL) / (L * L)
        return 1.0 / L, -p_along * p_across / (L * n2) + Y * n1 / n2

    # -- areas over ladder intervals -------------------------------------------

    def _mass_rows(self, y0: float, y1: float, tol: float = 1e-10) -> QuadResult:
        """Integral over [0, x_hi] x [y0, y1] of the area element; single strip."""
        if y1 <= y0:
            return QuadResult(0.0, 0.0, 0)
        panels = 8
        total1, total2 = self._y_composite(y0, y1, panels, 2 * panels)
        return QuadResult(total2, abs(total2 - total1) + tol, 2 * panels)

    def _y_composite(self, y0: float, y1: float, *panels: int):
        """Composite Gauss rules in y over full-width rows, the rows of all rules in one pass.

        One total per panel count, each summed panel by panel; a single
        panel count gives its total alone.
        """
        nodes, weights = gauss_rule(12)
        mids, halves = ragged_panels(y0, y1, panels)
        ys = mids[:, None] + halves[:, None] * nodes
        rows = self._row_integrals(self._area_density, ys.ravel(), self.x_hi).reshape(ys.shape)
        totals, cuts = [], np.cumsum(panels)[:-1]
        for rule_halves, rule_rows in zip(np.split(halves, cuts), np.split(rows, cuts)):
            total = 0.0
            for half, row in zip(rule_halves, rule_rows):
                total += half * float(np.dot(weights, row))
            totals.append(total)
        return totals if len(totals) > 1 else totals[0]


class SurfaceModel(StripModel):
    """The Cartesian strip surface over [0, pi] x [0, y_infinity], and its form.

    Strip k covers [y_k, y_{k+1}) and interpolates f_k -> f_{k+1}, with
    y_k = y_infinity (1 - a^k) and width a^(k+1).
    """

    def __init__(self, params: Params, transition: Optional[TransitionFn] = None,
                 tail_cut: float = 1e-12, panels_per_osc: int = 8):
        super().__init__(params, np.array([params.y_k(k) for k in range(self.K_TABLE + 1)]),
                         params.a ** (np.arange(self.K_TABLE + 1) + 1.0), math.pi,
                         transition, panels_per_osc)
        self.y_infinity = params.y_infinity
        a = params.a
        self.k_cut = max(2, math.ceil(math.log(tail_cut) / math.log(a))) if a > 0 else 2
        if self.k_cut >= self.K_TABLE:
            raise ParamsError(f"tail_cut {tail_cut} needs strips up to {self.k_cut}, past the "
                              f"{self.K_TABLE} of the strip table")
        self._scalar_cache: dict = {}

    # -- strip bookkeeping --------------------------------------------------

    def strip_junctions(self) -> np.ndarray:
        ks = np.arange(1, self.k_cut + 1)
        return self._ladder[ks]

    def singular_set(self) -> ExceptionalSet:
        return ExceptionalSet.box((0.0, self.y_infinity, -1.0),
                                  (math.pi, self.y_infinity, 1.0))

    def descriptor(self) -> dict:
        p = self.params
        return {"a": p.a, "h": p.h, "lambda_inverse": p.lam_inverse, "k_cut": self.k_cut}

    # -- pointwise surface data ----------------------------------------------

    def _strip_data(self, x, y):
        """psi and its partials px, py, pxy at the points (x, y) as :class:`_Blend` takes them."""
        if self.params.h == 0.0:
            # every f_k vanishes: the surface is the flat rectangle
            zero = np.zeros(np.broadcast_shapes(np.shape(x),
                                                np.shape(y[1] if isinstance(y, tuple) else y)))
            return zero, zero, zero, zero
        return _Blend(self, x, y)

    def _graph_data(self, x, y, *entries):
        """The entries of :meth:`_strip_data`, zero on the flat limit y >= y_infinity."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        flat = y >= self.y_infinity
        data = self._strip_data(x, np.where(flat, 0.0, y))
        return [np.where(flat, 0.0, data[i]) for i in entries]

    def psi(self, x, y):
        return self._graph_data(x, y, 0)[0]

    def dpsi_dx(self, x, y):
        return self._graph_data(x, y, 1)[0]

    def dpsi_dy(self, x, y):
        return self._graph_data(x, y, 2)[0]

    def gradient(self, x, y):
        """The partials (px, py), both from one strip-data evaluation."""
        return self._graph_data(x, y, 1, 2)

    def point(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack(np.broadcast_arrays(x, y, self.psi(x, y)), axis=-1)

    def sup_abs_psi(self, y_from: float) -> float:
        if y_from >= self.y_infinity:
            return 0.0
        k = int(self.strip_index(y_from))
        return 2.0 * self.params.h ** max(k, 0) if self.params.h > 0 else 0.0

    # -- section lengths -------------------------------------------------------

    def _speed(self, xs, ys):
        return np.sqrt(1.0 + self._strip_data(xs, ys)[1] ** 2)

    def _area_density(self, xs, ys):
        data = self._strip_data(xs, ys)
        return np.sqrt(1.0 + data[1] ** 2 + data[2] ** 2)

    def _speeds(self, xs, ys):
        data = self._strip_data(xs, ys)
        px = data[1]
        speed = np.sqrt(1.0 + px ** 2)
        return np.stack([speed, px * data[3] / speed])

    def _memo(self, key, compute):
        cache = self._scalar_cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def section_length(self, y: float) -> QuadResult:
        """L(y): arclength of the horizontal section at height y."""
        y = float(y)
        if y >= self.y_infinity:
            return QuadResult(math.pi, 0.0, 0)
        coarse = self._row_integrals(self._speed, y, math.pi)[0]
        fine = self._row_integrals(self._speed, y, math.pi, scale=2)[0]
        return QuadResult(float(fine), float(abs(fine - coarse)), 0)

    def partial_length(self, x: float, y: float) -> float:
        """L(x, y): arclength of the section from 0 to x."""
        x, y = float(x), float(y)
        if y >= self.y_infinity:
            return x
        return float(self._row_integrals(self._speed, y, x)[0])

    def dy_section_length(self, y: float) -> float:
        y = float(y)
        if y >= self.y_infinity:
            return 0.0
        return float(self._row_integrals(self._speeds, y, math.pi, channels=2)[1, 0])

    def dy_partial_length(self, x: float, y: float) -> float:
        x, y = float(x), float(y)
        if y >= self.y_infinity:
            return 0.0
        return float(self._row_integrals(self._speeds, y, x, channels=2)[1, 0])

    # -- strip areas and windowed mass ----------------------------------------

    def strip_bounds_y(self, k: int) -> tuple[float, float]:
        return float(self._ladder[k]), float(self._ladder[k + 1])

    def strip_area(self, k: int, tol: float = 1e-10) -> tuple[QuadResult, float]:
        """Area over strip k with its closed-form upper bound."""
        y0, y1 = self.strip_bounds_y(k)
        res = self._memo(("strip_area", k, tol), lambda: self._mass_rows(y0, y1, tol))
        p = self.params
        bound = math.pi * p.a ** k * math.sqrt(
            1.0 + 16.0 * p.h ** (2 * k) * p.lam ** (-2 * k)
            + 4.0 * p.h ** (2 * k) * p.a ** (-2 * k)
        )
        return res, bound

    def tail_area_bound(self, k_from: int) -> float:
        """Geometric bound on the area of all strips with k >= k_from."""
        p = self.params
        if p.h == 0.0:
            return math.pi * p.a ** (k_from + 1) / (1.0 - p.a)
        qa = p.a
        qal = p.a * p.h / p.lam
        qah = p.a * p.h / p.a  # = h
        total = (
            qa ** k_from / (1.0 - qa)
            + 4.0 * qal ** k_from / (1.0 - qal)
            + 2.0 * qah ** k_from / (1.0 - qah)
        )
        return math.pi * total

    def mass_between(self, y0: float, y1: float, tol: float = 1e-9) -> QuadResult:
        """Surface area over the window [y0, y1], certificate included."""
        y0 = max(0.0, float(y0))
        y1 = min(self.y_infinity, float(y1))
        if y1 <= y0:
            return QuadResult(0.0, 0.0, 0)
        return self._memo(("mass", y0, y1, tol), lambda: self._mass_between(y0, y1, tol))

    def strip_windows(self, y0: float, y1: float) -> list[tuple[int, float, float]]:
        """(k, lo, hi): the window [y0, y1] cut at the strip junctions, one entry per strip met."""
        k0 = int(self.strip_index(y0))
        k1 = int(self.strip_index(max(y1 - 1e-15, y0)))
        out = []
        for k in range(k0, k1 + 1):
            s0, s1 = self.strip_bounds_y(k)
            lo, hi = max(y0, s0), min(y1, s1)
            if hi > lo:
                out.append((k, lo, hi))
        return out

    def _mass_between(self, y0: float, y1: float, tol: float) -> QuadResult:
        k0 = int(self.strip_index(y0))
        total, err, panels = 0.0, 0.0, 0
        for k, lo, hi in self.strip_windows(y0, y1):
            if k > self.k_cut:
                break
            s0, s1 = self.strip_bounds_y(k)
            if lo == s0 and hi == s1:
                res, _ = self.strip_area(k)  # full strips come from the cache
            else:
                res = self._mass_rows(lo, hi, tol=tol / (self.k_cut + 1 - k0))
            total += res.value
            err += res.error
            panels += res.panels
        if y1 > self._ladder[self.k_cut + 1]:
            err += self.tail_area_bound(self.k_cut + 1)
        return QuadResult(total, err, panels)

    # -- normalized arclength and the form -------------------------------------

    def u_and_du(self, x: float, y: float):
        """u = L(x,y)/L(y) and its differential as a planar 1-covector."""
        x, y = float(x), float(y)
        L = self.section_length(y).value
        Lxy = self.partial_length(x, y)
        dyL = self.dy_section_length(y)
        dyLxy = self.dy_partial_length(x, y)
        px = float(self.dpsi_dx(x, y))
        ux = math.sqrt(1.0 + px * px) / L
        uy = (L * dyLxy - Lxy * dyL) / (L * L)
        return Lxy / L, forms.KCovector(2, 1, np.array([ux, uy]))

    def tangent_frame(self, x, y):
        """Orthonormal frame (tau1, tau2, tau3); tau3 is the upward normal."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _, px, py, _ = self._strip_data(x, y)
        n1 = np.sqrt(1.0 + px ** 2)
        n2 = np.sqrt(1.0 + px ** 2 + py ** 2)
        zero = np.zeros_like(px)
        tau1 = np.stack([1.0 / n1 + zero, zero, px / n1], axis=-1)
        tau2 = np.stack([-px * py / (n1 * n2), (1.0 + px ** 2) / (n1 * n2), py / (n1 * n2)],
                        axis=-1)
        tau3 = np.stack([-px / n2, -py / n2, 1.0 / n2 + zero], axis=-1)
        return tau1, tau2, tau3

    def omega_surface_coeffs(self, x, y):
        """Frame coefficients (c1, c2) of the form at the surface points Psi(x, y)."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        shape = x.shape
        x, y = x.ravel(), y.ravel()
        c1 = np.full(x.shape, 1.0 / math.pi if self.params.h == 0.0 else 0.0)
        c2 = np.zeros(x.shape)
        inner = y < self.y_infinity
        if inner.any():
            x, y = x[inner], y[inner]
            _, px, py, _ = self._strip_data(x, y)
            c1[inner], c2[inner] = self._frame_coeffs(x, y, px, py)
        return c1.reshape(shape), c2.reshape(shape)

    def omega_at_surface(self, x, y) -> np.ndarray:
        """Cartesian coefficients of the form at Psi(x, y): (3,), or (N, 3) for arrays."""
        c1, c2 = self.omega_surface_coeffs(x, y)
        tau1, tau2, _ = self.tangent_frame(x, y)
        return c1[..., None] * tau1 + c2[..., None] * tau2

    def _cutoff(self, t):
        """C-infinity plateau cutoff: 1 on [-1, 1], 0 outside (-2, 2)."""
        t = np.abs(np.asarray(t, dtype=float))
        return _smooth_step(2.0 - t)

    def omega_coeffs(self, point) -> np.ndarray:
        """Ambient form value (Cartesian coefficients) at a point (3,) or points (N, 3)."""
        pts = np.asarray(point, dtype=float)
        X, Yc, Z = np.atleast_2d(pts).T
        top, below = Yc >= self.y_infinity, Yc < 0.0
        damp = np.where(top, self._cutoff(1.0 + (Yc - self.y_infinity)),
                        np.where(below, self._cutoff(1.0 - Yc), 1.0))
        if self.params.flag_length:
            damp[top] = 0.0
        damp = damp * self._cutoff((2.0 * X - math.pi) / math.pi)
        base_x = np.where(X > math.pi, X - math.pi, np.where(X < 0.0, X + math.pi, X))
        base_y = np.where(top, self.y_infinity, np.where(below, 0.0, Yc))
        out = np.zeros((len(X), 3))
        live = damp != 0.0
        damp[live] *= self._cutoff(Z[live] - self.psi(base_x[live], base_y[live]))
        live = damp != 0.0
        if live.any():
            out[live] = damp[live, None] * self.omega_at_surface(base_x[live], base_y[live])
        return out.reshape(pts.shape)

    def omega_field(self) -> forms.FormField:
        model = self

        def evaluate(p):
            return forms.KCovector(3, 1, model.omega_coeffs(p))

        return forms.FormField(
            n=3, k=1, evaluate=evaluate, evaluate_batch=model.omega_coeffs,
            exceptional_set=self.singular_set(),
            name="normalized-arclength form",
        )

    # -- derived diagnostics ----------------------------------------------------

    def sup_omega_on_section(self, k: int, samples_per_period: int = 64) -> float:
        """sup over x of |omega(Psi(x, y_k))| via one-period sampling."""
        y = float(self._ladder[k])
        if y >= self.y_infinity:
            return 0.0
        P = self._x_period(int(self.strip_index(y)))
        xs = np.linspace(0.0, min(P, math.pi), samples_per_period, endpoint=False)
        values = self.omega_at_surface(xs, np.full_like(xs, y))
        return max(float(np.linalg.norm(v)) for v in values)

    def tangential_curl_samples(self, n_points: int, rng=None,
                                max_strip: int = 10) -> np.ndarray:
        """|<d omega, tau1 ^ tau2>| at random smooth points, fd differentials.

        The step scales with the strip oscillation wavelength so truncation
        and rounding stay balanced.
        """
        rng = rng or np.random.default_rng(0)
        p = self.params
        xs, ys, steps = [], [], []
        while len(xs) < n_points:
            y = rng.uniform(0.0, self._ladder[min(max_strip, self.k_cut)])
            k = int(self.strip_index(y))
            step = 5e-6 * p.lam ** k
            y0, y1 = self.strip_bounds_y(k)
            if y - y0 < 2 * step or y1 - y < 2 * step:
                continue
            xs.append(rng.uniform(0.1, math.pi - 0.1))
            ys.append(y)
            steps.append(step)
        return np.abs(self.tangential_curls(xs, ys, steps))

    def tangential_curl_at(self, x: float, y: float, step: float) -> float:
        return abs(float(self.tangential_curls(x, y, step)[0]))

    def tangential_curls(self, x, y, step, omega=None) -> np.ndarray:
        """<d omega, tau1 ^ tau2> at the surface points Psi(x, y), by central differences.

        ``omega`` is a :class:`~stokeslab.forms.FormField` and defaults to
        this model's form; its :meth:`~stokeslab.forms.FormField.d_many`
        differentiates with ``step``, a scalar or one step per point.
        """
        omega = omega if omega is not None else self.omega_field()
        x, y, step = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                           for v in (x, y, step)))
        _, px, py, _ = self._strip_data(x, y)
        w, area = graph_tangent(px, py)
        return np.vecdot(omega.d_many(self.point(x, y), step), w) / area

    # -- chart atlas for the decomposition engine -------------------------------

    def strip_lip_upper(self, k: int) -> float:
        p = self.params
        if p.h == 0.0:
            return 1.0
        px_max = max((p.h / p.lam) ** k, (p.h / p.lam) ** (k + 1))
        py_max = self._sup_dphi * (p.h ** k + p.h ** (k + 1)) / p.a ** (k + 1)
        return math.sqrt(1.0 + px_max ** 2 + py_max ** 2)

    def max_regularity(self, y: float) -> float:
        """Per-strip maximal regularity from the chart Lipschitz constants."""
        k = int(self.strip_index(y))
        lip = self.strip_lip_upper(k)
        return lip ** (-2) * 2.0 ** (-1) * 2.0 ** (-1.5)

    def strip_chart(self, k: int):
        from .currents import ChartMap

        return ChartMap(
            psi=self.psi,
            dpsi_dx=self.dpsi_dx,
            dpsi_dy=self.dpsi_dy,
            gradient=self.gradient,
            lip_upper=self.strip_lip_upper(k),
            lip_inverse=1.0,
            name=f"strip-{k}",
        )


def build_surface_current(params: Optional[Params] = None,
                          transition: Optional[TransitionFn] = None) -> SurfaceCurrent:
    """The full oscillating-surface current for the given parameters."""
    params = params or Params.default()
    if not params.flag_area:
        raise ParamsError("area condition h*a/lambda < 1 is required for a finite-mass current")
    model = SurfaceModel(params, transition)
    return SurfaceCurrent(model, 0.0, model.y_infinity, 1)


# ---------------------------------------------------------------------------


def verify_failure(params: Optional[Params] = None, n_tangent_samples: int = 1000,
                   n_strips: int = 12, seed: int = 0,
                   content_grid: tuple[float, float, int] = (0.2, 0.62, 18),
                   tail_cut: float = 1e-12, panels_per_osc: int = 8) -> dict:
    """Full demonstration report for the failure of the boundary identity.

    Refuses when any of the three parameter conditions fails.
    """
    params = params or Params.default()
    params.require_all_flags()
    from . import integration, minkowski

    model = SurfaceModel(params, tail_cut=tail_cut, panels_per_osc=panels_per_osc)
    S = SurfaceCurrent(model, 0.0, model.y_infinity, 1)
    omega = model.omega_field()

    circ = integration.circulation(omega, S)

    rng = np.random.default_rng(seed)
    tang = model.tangential_curl_samples(n_tangent_samples, rng)

    r0, q, steps = content_grid
    profile = minkowski.intrinsic_content(S, model.singular_set(), r0, q, steps)

    per_strip = []
    running = 0.0
    k_hi = min(model.k_cut, max(n_strips, 20))
    content_by_k = {}
    for r, v in zip(profile.radii, profile.values):
        k = int(model.strip_index(max(model.y_infinity - r, 0.0)))
        content_by_k.setdefault(k, v)
    for k in range(0, k_hi + 1):
        res, bound = model.strip_area(k)
        running += res.value
        per_strip.append({
            "k": k,
            "area": res.value,
            "bound": bound,
            "within_bound": res.value <= bound + res.error,
            "partial_sum": running,
            "section_length": model.section_length(model.strip_bounds_y(k)[0]).value,
            "sup_omega": model.sup_omega_on_section(k) if 1 <= k <= n_strips else "",
            "content_value": content_by_k.get(k, ""),
        })

    bmass = S.boundary_mass()
    expected_bmass = 2.0 * math.pi + 2.0 * model.y_infinity

    return {
        "params": {"a": params.a, "h": params.h, "lambda": params.lam},
        "flags": params.flags(),
        "circulation": {"value": circ.value, "error": circ.error, "expected": 1.0},
        "tangential_curl": {
            "max": float(tang.max()),
            "mean": float(tang.mean()),
            "samples": len(tang),
        },
        "sup_omega_per_strip": [
            {"k": row["k"], "sup_omega": row["sup_omega"]}
            for row in per_strip if row["sup_omega"] != ""
        ],
        "content_profile": profile.as_dict(),
        "strip_areas": per_strip,
        "tail_area_bound": model.tail_area_bound(k_hi + 1),
        "boundary_mass": {
            "value": bmass.value,
            "error": bmass.error,
            "expected": expected_bmass,
        },
    }


# ---------------------------------------------------------------------------
# cylindrical variant (experimental): oscillations on concentric annuli
# collapsing to a single singular point at the origin.


class CylindricalModel(StripModel):
    """Disk-based analogue: the strips are annuli (r_{k+1}, r_k], r_k = a^k.

    The surface is the graph of psi(r, theta) over the unit disk; theta runs
    along the sections, which are circles, and the ladder runs inward in r.
    The junction circle r_k opens annulus k, as y_k opens Cartesian strip k.
    The normalized-arclength form has circulation 1 around the boundary
    circle.  The area condition re-derived for the polar area element is
    a*h/lambda < 1 (the ratio of the dominant term of the annulus area bound
    2*pi*a^k*(1-a)*sup|d_theta psi| ).
    """

    def __init__(self, params: Params, transition: Optional[TransitionFn] = None,
                 panels_per_osc: int = 8):
        radii = np.array([params.a ** k for k in range(self.K_TABLE + 1)])
        super().__init__(params, radii, np.diff(radii), 2.0 * math.pi, transition,
                         panels_per_osc)

    # -- polar integrands: theta along the circles, r along the ladder -----------

    def _speed(self, theta, r):
        data = _Blend(self, theta, r)
        return np.sqrt(data.y ** 2 + data[1] ** 2)

    def _speeds(self, theta, r):
        """The speed and its d/dr, (r + p_theta p_theta_r) / speed."""
        data = _Blend(self, theta, r)
        r, pt = data.y, data[1]
        speed = np.sqrt(r ** 2 + pt ** 2)
        return np.stack([speed, (r + pt * data[3]) / speed])

    def _area_density(self, theta, r):
        data = _Blend(self, theta, r)
        r = data.y
        return np.sqrt(r ** 2 + data[1] ** 2 + (r * data[2]) ** 2)

    def annulus_area(self, k: int) -> tuple[float, float]:
        """Area over annulus k, with its derived upper bound."""
        p = self.params
        r_out, r_in = float(self._ladder[k]), float(self._ladder[k + 1])
        area = self._y_composite(r_in, r_out, 8)
        if p.h == 0.0:
            ptheta_max = 0.0
        else:
            ptheta_max = max((p.h / p.lam) ** k, (p.h / p.lam) ** (k + 1))
        rpr_max = self._sup_dphi * (p.h ** k + p.h ** (k + 1)) / (1.0 - p.a)
        bound = 2.0 * math.pi * (r_out - r_in) * math.sqrt(
            r_out ** 2 + ptheta_max ** 2 + rpr_max ** 2
        )
        return area, bound

    def omega_surface_coeffs(self, r, theta):
        """Frame coefficients (c1, c2) of the form at the surface points over (r, theta), r > 0."""
        r, theta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
        shape = r.shape
        r, theta = r.ravel(), theta.ravel()
        _, pt, pr, _ = _Blend(self, theta, r)
        c1, c2 = self._frame_coeffs(theta, r, pt / r, pr)
        return c1.reshape(shape), c2.reshape(shape)

    def sup_omega_on_circle(self, k: int, samples: int = 64) -> float:
        """sup over theta of |omega| on the circle r = r_k, by one-period sampling."""
        thetas = np.linspace(0.0, self._x_period(k), samples, endpoint=False)
        c1, c2 = self.omega_surface_coeffs(self._ladder[k], thetas)
        return float(np.hypot(c1, c2).max())

    def boundary_circulation(self) -> float:
        """Circulation of the form around the positively oriented unit circle."""
        def integrand(theta, r):
            # c1 pairs with the unit tangent of the lifted circle
            at = _Blend(self, theta, r).y
            return self.omega_surface_coeffs(at, theta)[0] * self._speed(theta, r)

        return float(self._row_integrals(integrand, 1.0, 2.0 * math.pi)[0])


def cylindrical_variant(params: Optional[Params] = None) -> CylindricalModel:
    """One-singular-point analogue; experimental (conditions re-derived here).

    Requires a*h/lambda < 1 (area), h > lambda (length blow-up), and
    lambda < min(a, h) (continuity of the form at the origin).
    """
    params = params or Params.default()
    problems = []
    if not params.a * params.h / params.lam < 1.0:
        problems.append("area: a*h/lambda < 1")
    if not params.h > params.lam:
        problems.append("length: h > lambda")
    if not (params.lam < params.a and params.lam < params.h):
        problems.append("continuity: lambda < min(a, h)")
    if problems:
        raise ParamsError("cylindrical variant needs " + "; ".join(problems))
    return CylindricalModel(params)
