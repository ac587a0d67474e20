"""Integral currents at desk scale.

Every current here is planar or a graph (x, y) -> (x, y, psi(x, y)) over a
planar domain.  Three concrete kinds are supported:

* top-dimensional cube-set currents (multiplicity times a dyadic complex),
* graph-chart currents over a rectangle or a planar cube set,
* oscillating-surface currents built from a strip model (see
  :mod:`stokeslab.counterexample`), windowed in y.

Each kind provides one protocol.  ``boundary_edges`` gives the oriented
boundary as arrays (lift, start, end, t0, t1): segments u = start +
t (end - start), t from t0 to t1, of the cube set's facets, of the chart's
domain lifted by the chart, or of the window's sides lifted by the model.
``tangent_plane`` gives the tangent 2-vector at support points
(:func:`graph_tangent` for the graphs).  Mass, boundary mass, restriction,
complements, slices by distance functions, neighbourhood masses of a set and
support samples are methods of the kinds, and the free functions below
delegate to them.  :mod:`stokeslab.certify` re-derives masses, boundary
masses and footprints from the raw geometry on purpose, so that it shares no
numbers with this module.

Cube-set quantities are exact; the other masses are quadrature estimates
whose error is |fine - coarse|, not a rigorous bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dyadic import CubeSet, DepthError, ExceptionalSet, RootBox, _corners, refine
from .quadrature import QuadResult, integrate_1d, integrate_2d, integrate_boxes

__all__ = [
    "Rect",
    "ChartMap",
    "Current",
    "TopDimCurrent",
    "ChartCurrent",
    "SurfaceCurrent",
    "HalfSpace",
    "Slice",
    "graph_tangent",
    "chart_masses",
    "mass",
    "boundary_mass",
    "restrict",
    "mass_additivity_check",
    "pushforward_mass_bounds",
    "slice_current",
    "coarea_slice_check",
    "CurrentError",
]

DEFAULT_TOL = 1e-10
# deepest generation of the dyadic excision and of the ball-measure sandwich
_EXCISION_GENERATION = 26


class CurrentError(ValueError):
    """Structural misuse of a current operation."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned closed rectangle in the plane; its coordinates are held as floats."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("rectangle must have positive extent")

    def measure(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def diameter(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def payload(self) -> dict:
        """The rectangle as plain JSON values, as chart descriptors embed it."""
        return {"rect": [self.x0, self.x1, self.y0, self.y1]}


@dataclass(frozen=True)
class HalfSpace:
    """Coordinate half-space {x_axis <= threshold} (or >= when below=False)."""

    axis: int
    threshold: float
    below: bool = True


@dataclass(frozen=True)
class ChartMap:
    """Graph map (x, y) -> (x, y, psi(x, y)) with its analytic gradient.

    ``gradient(x, y)`` returns both partials (psi_x, psi_y).  ``lip_upper``
    must dominate sup sqrt(1 + |grad psi|^2) over the domain of use; the
    inverse of a graph map, the projection, is 1-Lipschitz.
    """

    psi: callable
    gradient: callable
    lip_upper: float
    name: str = ""

    def __post_init__(self):
        if self.lip_upper < 1.0:
            raise ValueError("lip_upper below 1 is impossible for a graph map")

    def point(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack([x, y, self.psi(x, y)], axis=-1)

    def area_element(self, x, y):
        px, py = self.gradient(x, y)
        return np.sqrt(1.0 + px ** 2 + py ** 2)


def graph_tangent(px, py):
    """Tangent 2-vector of a graph with partials (px, py), and its length.

    Returns Dphi(e1) ^ Dphi(e2) = (1, py, -px) over (e12, e13, e23), shaped
    (..., 3), and its length sqrt(1 + px^2 + py^2), the area element.  Their
    quotient is the unit tangent plane tau1 ^ tau2 of the graph.
    """
    px, py = np.broadcast_arrays(np.asarray(px, dtype=float), np.asarray(py, dtype=float))
    w = np.stack([np.ones_like(px), py, -px], axis=-1)
    return w, np.sqrt(np.vecdot(w, w))


def _summed(results, factor: float = 1.0) -> QuadResult:
    """Sum of quadrature results; the value scales by factor, the error by |factor|."""
    total, err, panels = 0.0, 0.0, 0
    for res in results:
        total += res.value
        err += res.error
        panels += res.panels
    return QuadResult(total, err, panels).scaled(factor)


def _rects(domain) -> list[Rect]:
    """A Rect, or the cubes of a planar CubeSet, as rectangles."""
    if isinstance(domain, Rect):
        return [domain]
    return [Rect(lo[0], hi[0], lo[1], hi[1]) for lo, hi in zip(*domain.bounds())]


def rect_edges(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends (4R, 2) of the edges a -> b -> c -> d -> a of rectangles lo, hi (R, 2)."""
    lo, hi = (np.asarray(a, dtype=float).reshape(-1, 2) for a in (lo, hi))
    ring = np.stack([lo, np.column_stack([hi[:, 0], lo[:, 1]]), hi,
                     np.column_stack([lo[:, 0], hi[:, 1]])], axis=1)
    return ring.reshape(-1, 2), np.roll(ring, -1, axis=1).reshape(-1, 2)


def _domain_edges(domain, lift) -> tuple:
    """boundary_edges of a Rect or planar CubeSet lifted by lift: counterclockwise, t in [0, 1]."""
    if isinstance(domain, Rect):
        start, end = rect_edges((domain.x0, domain.y0), (domain.x1, domain.y1))
    else:
        axis, orient, lo, hi = domain.boundary_facets()
        # the edge tangent is the facet normal turned by +90 degrees: up the facets
        # whose normal is +x, leftward along those whose normal is +y
        swap = ((axis == 0) != (orient > 0))[:, None]
        start, end = np.where(swap, hi, lo), np.where(swap, lo, hi)
    return lift, start, end, np.zeros(len(start)), np.ones(len(start))


def _lifted_tangent(graph, base, direction, t):
    """Tangent (d0, d1, psi_x(u) d0 + psi_y(u) d1) of the lift of u = base + t * direction.

    ``base`` and ``direction`` end in an axis of length 2 and broadcast
    against ``t[..., None]``; the tangents have shape t.shape + (3,).
    """
    t = np.asarray(t, dtype=float)
    u = base + t[..., None] * direction
    x, y = u[..., 0], u[..., 1]
    d0, d1 = direction[..., 0], direction[..., 1]
    px, py = graph.gradient(x, y)
    dz = px * d0 + py * d1
    return np.stack(np.broadcast_arrays(d0, d1, dz), axis=-1)


def _sample_boxes(lo, hi, weights, n: int, rng) -> np.ndarray:
    """n points uniform on a union of boxes, rows of lo and hi (k, m), box chosen by weight."""
    weights = np.asarray(weights, dtype=float)
    idx = rng.choice(len(weights), size=n, p=weights / weights.sum())
    return rng.uniform(np.asarray(lo, dtype=float)[idx], np.asarray(hi, dtype=float)[idx])


def top_dim_descriptor(theta: int, region: dict) -> dict:
    """The descriptor of a TopDimCurrent: theta on the cube set of payload region."""
    return {"type": "top_dim", "theta": theta, "region": region}


def chart_descriptor(theta: int, name: str, domain: dict) -> dict:
    """The descriptor of a ChartCurrent: theta on the named chart over the domain payload."""
    return {"type": "chart", "theta": theta, "chart": name or "anonymous", "domain": domain}


class Current:
    """Common interface of the concrete current kinds.

    Operations a kind does not support raise :class:`CurrentError`.
    """

    m: int
    n: int
    theta: int

    def _unsupported(self, what: str):
        raise CurrentError(f"{what} unsupported for {type(self).__name__}")

    def mass(self) -> QuadResult:
        raise NotImplementedError

    def boundary_mass(self) -> QuadResult:
        raise NotImplementedError

    def support_diameter(self) -> float:
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def boundary_edges(self) -> tuple:
        """Oriented boundary (lift, start, end, t0, t1): segments u = start + t (end - start).

        t runs from t0 to t1, (E,) beside the (E, 2) start and end.  ``lift``, None
        for a planar current, is the graph that lifts u to (u, lift.psi(u)).
        """
        self._unsupported("boundary edges")

    def tangent_plane(self, points):
        """Tangent 2-vectors w at support points (N, n) and their lengths: unit plane w / length."""
        self._unsupported("tangent planes")

    def domain_rects(self) -> list[Rect]:
        """The planar domain as rectangles with disjoint interiors."""
        self._unsupported("planar domains")

    def lift(self, u) -> np.ndarray:
        """The support point over the planar point u."""
        self._unsupported("lifts")

    def restrict(self, region) -> "Current":
        self._unsupported(f"restriction by {type(region).__name__}")

    def complement_within(self, S: "Current") -> list["Current"]:
        """Pieces of self - S when S was produced by restricting self; [] if empty."""
        self._unsupported("complements")

    def slice(self, E: ExceptionalSet, r: float, samples: int) -> "Slice":
        self._unsupported("slicing")

    def neighborhood_mass(self, E: ExceptionalSet, r: float) -> QuadResult:
        """||T||(B(E, r)) with an error estimate."""
        self._unsupported("neighbourhood mass")

    def neighborhood_masses(self, E: ExceptionalSet, radii) -> list[QuadResult]:
        """||T||(B(E, r)) for each of the radii, with error estimates."""
        return [self.neighborhood_mass(E, r) for r in radii]

    def support_samples(self, n: int, rng) -> np.ndarray:
        self._unsupported("support sampling")

    def support_clearance(self, E: ExceptionalSet) -> Optional[float]:
        """Distance from the support to E when cheaply available, else None."""
        return None

    def restrict_outside(self, E: ExceptionalSet, r: float, layer_budget: float) -> "Current":
        """The current restricted to the complement of B(E, r)."""
        self._unsupported("excision")

    def scalar_integral(self, f, tol: float) -> QuadResult:
        """Integral of f d||T|| for f mapping points (N, n) to values (N,)."""
        self._unsupported("scalar integrals")

    def tangent_integral(self, omega, tol: float) -> QuadResult:
        """Integral of <d omega(x), unit tangent plane(x)> d||T||, d omega by ``omega.d_many``."""
        self._unsupported("tangent integrals")

    def square_at(self, u, side: float):
        """The square piece of side ``side`` centred at u, and its diameter bound."""
        self._unsupported("square pieces")

    def pushforward_data(self):
        """(chart, planar area) of a current that one graph chart covers."""
        raise CurrentError("pushforward bounds apply to chart currents")


@dataclass(frozen=True)
class TopDimCurrent(Current):
    """Multiplicity theta times the canonical current of a cube complex."""

    region: CubeSet
    theta: int = 1

    def __post_init__(self):
        if self.theta == 0:
            raise CurrentError("multiplicity must be a nonzero integer")

    @property
    def m(self) -> int:
        return self.region.m

    @property
    def n(self) -> int:
        return self.region.m

    def is_zero(self) -> bool:
        return self.region.is_empty()

    def mass(self) -> QuadResult:
        return QuadResult(abs(self.theta) * self.region.measure(), 0.0, 0)

    def boundary_mass(self) -> QuadResult:
        return QuadResult(abs(self.theta) * self.region.perimeter(), 0.0, 0)

    def support_diameter(self) -> float:
        return self.region.diameter()

    def boundary_edges(self) -> tuple:
        if self.m != 2:
            raise CurrentError("boundary edges are only provided in the plane")
        return _domain_edges(self.region, None)

    def boundary_points_signed(self):
        """The boundary points (k, 1) of a 1-current and their orientations (k,)."""
        if self.m != 1:
            raise CurrentError("signed boundary points only exist for 1-currents")
        _, orient, points, _ = self.region.boundary_facets()
        return points, orient

    def tangent_plane(self, points):
        return np.ones((len(points), 1)), np.ones(len(points))

    def domain_rects(self) -> list[Rect]:
        return _rects(self.region)

    def lift(self, u) -> np.ndarray:
        return np.asarray(u, dtype=float)

    def restrict(self, region) -> Current:
        if isinstance(region, CubeSet):
            return TopDimCurrent(self.region.intersection(region), self.theta)
        if isinstance(region, HalfSpace):
            cut = self.region.restrict_half_space(region.axis, region.threshold, region.below)
            return TopDimCurrent(cut, self.theta)
        return super().restrict(region)

    def complement_within(self, S: Current) -> list[Current]:
        rest = self.region.difference(S.region)
        return [] if rest.is_empty() else [TopDimCurrent(rest, self.theta)]

    def slice(self, E: ExceptionalSet, r: float, samples: int) -> "Slice":
        if self.m == 1:
            count = 0
            for (lo, hi) in E.elements:
                for pt in (lo[0] - r, hi[0] + r):
                    if self.region.contains((pt,)):
                        count += 1
            return Slice(self.descriptor(), E, r, r,
                         QuadResult(abs(self.theta) * float(count), 0.0, 0))
        lo, hi = self.region.bounds()
        if r >= E.cube_distances(lo, hi)[1].max(initial=0.0):
            return Slice(self.descriptor(), E, r, r, QuadResult(0.0, 0.0, 0))
        corners = E.distance_many(_corners(lo, hi).reshape(-1, self.m))
        rr = _regular_radius(lambda rad, tol: bool(np.all(np.abs(corners - rad) > tol)), r)
        total, err = 0.0, 0.0
        pieces = []
        multi = len(E.elements) > 1
        for element in E.elements:
            straight, arcs = _offset_pieces(element, rr)
            for kind, coord, t0, t1 in straight:
                axis = 0 if kind == "h" else 1
                if not multi:
                    seg = self.region.line_intersection_length(axis, coord, t0, t1)
                else:
                    ts = np.linspace(t0, t1, samples)
                    mids = 0.5 * (ts[:-1] + ts[1:])
                    if kind == "h":
                        pts = np.stack([mids, np.full_like(mids, coord)], axis=1)
                    else:
                        pts = np.stack([np.full_like(mids, coord), mids], axis=1)
                    keep = self.region.contains_many(pts)
                    # on the level set of this element the global distance is
                    # min(rr, dist to others); keep where no other element is nearer
                    keep &= E.distance_many(pts) >= rr - 1e-12
                    seg = float(np.mean(keep)) * (t1 - t0)
                total += abs(self.theta) * seg
                pieces.append(("segment", kind, coord, t0, t1, seg))
            for center, a0, a1 in arcs:
                length, arc_err = _arc_length_inside(self.region, E, center, rr, a0, a1,
                                                     samples, multi)
                total += abs(self.theta) * length
                err += abs(self.theta) * arc_err
                pieces.append(("arc", center, a0, a1, length))
        return Slice(self.descriptor(), E, rr, r, QuadResult(total, err, 0), tuple(pieces))

    def neighborhood_mass(self, E: ExceptionalSet, r: float) -> QuadResult:
        res = _cube_region_measure_in_ball(self.region, E, r)
        return res.scaled(abs(self.theta))

    def support_samples(self, n: int, rng) -> np.ndarray:
        region = self.region
        return _sample_boxes(*region.bounds(), region.root.measures(region.arrays[0]), n, rng)

    def support_clearance(self, E: ExceptionalSet) -> Optional[float]:
        return float(E.cube_distances(*self.region.bounds())[0].min(initial=math.inf))

    def restrict_outside(self, E: ExceptionalSet, r: float, layer_budget: float) -> Current:
        """Dyadic restriction: cubes straddling the sphere are refined until the
        dropped layer fits the budget, so the support provably clears the open
        ball while the extra removed mass stays below ``layer_budget``.

        Raises :class:`DepthError` when that needs cubes past generation 26.
        """
        root = self.region.root

        def fits(gen, index) -> bool:
            # the side <= r/4 floor keeps the staircase perimeter of the removed
            # region within the mean-value constant of the excision bound
            return (math.fsum(root.measures(gen)) <= layer_budget
                    and root.side * 2.0 ** (-int(gen.min())) <= 0.25 * r)

        kept_gen, kept_index, gen, index = refine(root, *self.region.arrays,
                                                  _ball_side(E, r, root), fits,
                                                  _EXCISION_GENERATION)
        if len(gen) and not fits(gen, index):
            layer = math.fsum(root.measures(gen))
            raise DepthError(
                f"restriction outside radius {r:.3e} needs cubes past generation "
                f"{_EXCISION_GENERATION}: the dropped layer {layer:.3e} is above the budget "
                f"{layer_budget:.3e} or its cubes are wider than r/4"
            )
        return TopDimCurrent(CubeSet.of(root, kept_gen, kept_index), self.theta)

    def scalar_integral(self, f, tol: float) -> QuadResult:
        def values(box, *coords):
            return np.reshape(f(np.stack([c.ravel() for c in coords], axis=-1)), coords[0].shape)

        # the tolerance of an interval is absolute, that of a square or cube relative to its measure
        tols = [tol if self.m == 1 else tol * measure
                for measure in self.region.root.measures(self.region.arrays[0])]
        results = (integrate_boxes(values, [lo], [hi], [t])[0]
                   for lo, hi, t in zip(*self.region.bounds(), tols))
        return _summed(results, abs(self.theta))

    def tangent_integral(self, omega, tol: float) -> QuadResult:
        res = TopDimCurrent(self.region, 1).scalar_integral(
            lambda pts: omega.d_many(pts)[:, 0], tol)
        return res.scaled(self.theta)

    def square_at(self, u, side: float):
        root = RootBox((u[0] - side / 2.0, u[1] - side / 2.0), side)
        return TopDimCurrent(CubeSet.whole(root), self.theta), side * math.sqrt(2)

    def descriptor(self) -> dict:
        return top_dim_descriptor(self.theta, self.region.payload())


@dataclass(frozen=True)
class ChartCurrent(Current):
    """theta times the pushforward of a planar domain under a graph chart."""

    domain: object  # CubeSet or Rect
    chart: ChartMap
    theta: int = 1
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.theta == 0:
            raise CurrentError("multiplicity must be a nonzero integer")
        if not isinstance(self.domain, (CubeSet, Rect)):
            raise CurrentError("chart domains must be cube sets or rectangles")
        if isinstance(self.domain, CubeSet) and self.domain.m != 2:
            raise CurrentError("chart domains are planar")

    @property
    def m(self) -> int:
        return 2

    @property
    def n(self) -> int:
        return 3

    def is_zero(self) -> bool:
        return isinstance(self.domain, CubeSet) and self.domain.is_empty()

    def domain_rects(self) -> list[Rect]:
        return _rects(self.domain)

    def lift(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.chart.point(u[..., 0], u[..., 1])

    def domain_measure(self) -> float:
        return self.domain.measure()

    def _integrate(self, density, tol: float, factor: float,
                   max_panels: int = 4096) -> QuadResult:
        """factor times the integral of density(x, y) over the domain rectangles."""
        return _summed((integrate_2d(density, r.x0, r.x1, r.y0, r.y1, tol=tol,
                                     max_panels=max_panels)
                        for r in self.domain_rects()), factor)

    def mass(self) -> QuadResult:
        rects = self.domain_rects()
        return _summed(chart_masses(self.chart, [(r.x0, r.y0) for r in rects],
                                    [(r.x1, r.y1) for r in rects], [self.tol] * len(rects)),
                       abs(self.theta))

    def boundary_edges(self) -> tuple:
        return _domain_edges(self.domain, self.chart)

    def boundary_mass(self) -> QuadResult:
        _, start, end, _, _ = self.boundary_edges()
        return _summed(chart_masses(self.chart, start, end, [self.tol] * len(start),
                                    boundary=True), abs(self.theta))

    def tangent_plane(self, points):
        return graph_tangent(*self.chart.gradient(points[:, 0], points[:, 1]))

    def support_diameter(self) -> float:
        pts = []
        for r in self.domain_rects():
            xs = np.linspace(r.x0, r.x1, 12)
            ys = np.linspace(r.y0, r.y1, 12)
            X, Y = np.meshgrid(xs, ys)
            pts.append(self.chart.point(X.ravel(), Y.ravel()))
        pts = np.vstack(pts)
        diff = pts[:, None, :] - pts[None, :, :]
        sampled = float(np.sqrt((diff ** 2).sum(axis=2)).max())
        return sampled

    def restrict(self, region) -> Current:
        if isinstance(self.domain, CubeSet):
            if isinstance(region, CubeSet):
                return ChartCurrent(self.domain.intersection(region), self.chart, self.theta,
                                    self.tol)
            if isinstance(region, HalfSpace):
                cut = self.domain.restrict_half_space(region.axis, region.threshold,
                                                      region.below)
                return ChartCurrent(cut, self.chart, self.theta, self.tol)
        raise CurrentError("chart currents restrict by planar cube sets or half-spaces")

    def complement_within(self, S: Current) -> list[Current]:
        if not (isinstance(self.domain, CubeSet) and isinstance(S.domain, CubeSet)):
            raise CurrentError("chart complements need cube-set domains")
        rest = self.domain.difference(S.domain)
        return [] if rest.is_empty() else [ChartCurrent(rest, self.chart, self.theta, self.tol)]

    def neighborhood_mass(self, E: ExceptionalSet, r: float) -> QuadResult:
        def dens(x, y):
            inside = E.distance_many(self.chart.point(x, y)) < r
            return self.chart.area_element(x, y) * inside

        return self._integrate(dens, 1e-7, abs(self.theta), max_panels=2048)

    def support_samples(self, n: int, rng) -> np.ndarray:
        rects = self.domain_rects()
        u = _sample_boxes([(r.x0, r.y0) for r in rects], [(r.x1, r.y1) for r in rects],
                          [r.measure() for r in rects], n, rng)
        return self.lift(u)

    def scalar_integral(self, f, tol: float) -> QuadResult:
        return self._integrate(
            lambda x, y: f(self.chart.point(x, y)) * self.chart.area_element(x, y),
            tol, abs(self.theta))

    def tangent_integral(self, omega, tol: float) -> QuadResult:
        def dens(xs, ys):
            points = self.chart.point(xs, ys)
            w, _ = self.tangent_plane(points)
            return np.vecdot(omega.d_many(points), w)

        return self._integrate(dens, tol, self.theta, max_panels=1024)

    def square_at(self, u, side: float):
        rect = Rect(u[0] - side / 2, u[0] + side / 2, u[1] - side / 2, u[1] + side / 2)
        piece = ChartCurrent(rect, self.chart, self.theta, tol=1e-12)
        return piece, self.chart.lip_upper * side * math.sqrt(2)

    def pushforward_data(self):
        return self.chart, self.domain_measure()

    def descriptor(self) -> dict:
        return chart_descriptor(self.theta, self.chart.name, self.domain.payload())


def chart_masses(chart: ChartMap, lo, hi, tol, boundary: bool = False) -> QuadResult:
    """Integrals of a chart's area element over rectangles, or of its lifted speed over segments.

    ``lo`` and ``hi`` are (R, 2): the corners of R rectangles, or with
    ``boundary`` the start and end points of R planar segments, each lifted
    through the chart and integrated over t in [0, 1].  One
    :func:`~stokeslab.quadrature.integrate_boxes` run takes them all, each
    held to its entry of ``tol``; a row of its (R,) columns is the same alone
    as in any batch.
    """
    lo, hi = (np.asarray(a, dtype=float).reshape(-1, 2) for a in (lo, hi))
    if not boundary:
        return integrate_boxes(lambda box, x, y: chart.area_element(x, y), lo, hi, tol)
    direction = hi - lo

    def speed(box, t):
        d0, d1 = direction[box, 0, None], direction[box, 1, None]
        px, py = chart.gradient(lo[box, 0, None] + t * d0, lo[box, 1, None] + t * d1)
        return np.sqrt((d0 ** 2 + d1 ** 2) + (px * d0 + py * d1) ** 2)

    return integrate_boxes(speed, np.zeros((len(lo), 1)), np.ones((len(lo), 1)), tol)


@dataclass(frozen=True)
class SurfaceCurrent(Current):
    """Oscillating-surface current over the strip model, windowed in y.

    ``model`` follows the protocol of
    :class:`stokeslab.counterexample.SurfaceModel`.
    """

    model: object
    y_lo: float = 0.0
    y_hi: Optional[float] = None
    theta: int = 1

    def __post_init__(self):
        hi = self.model.y_infinity if self.y_hi is None else self.y_hi
        object.__setattr__(self, "y_hi", float(hi))
        if not 0.0 <= self.y_lo < self.y_hi <= self.model.y_infinity + 1e-15:
            raise CurrentError("surface window must satisfy 0 <= y_lo < y_hi <= y_infinity")
        if self.theta == 0:
            raise CurrentError("multiplicity must be a nonzero integer")

    @property
    def m(self) -> int:
        return 2

    @property
    def n(self) -> int:
        return 3

    def is_zero(self) -> bool:
        return False

    def is_singular_set(self, E: ExceptionalSet) -> bool:
        """Whether E is the model's singular segment, the one set surfaces slice and excise by."""
        return E.elements == self.model.singular_set().elements

    def mass(self) -> QuadResult:
        res = self.model.mass_between(self.y_lo, self.y_hi)
        return res.scaled(abs(self.theta))

    def boundary_mass(self) -> QuadResult:
        bottom, top = self.model.section_lengths([self.y_lo, self.y_hi])
        sides = 2.0 * (self.y_hi - self.y_lo)
        err = bottom.error + top.error
        value = bottom.value + top.value + sides
        return QuadResult(abs(self.theta) * value, abs(self.theta) * err,
                          bottom.panels + top.panels)

    def support_diameter(self) -> float:
        width = self.model.x_hi - self.model.x_lo
        height = self.y_hi - self.y_lo
        bump = 2.0 * self.model.sup_abs_psi(self.y_lo)
        return math.sqrt(width ** 2 + height ** 2 + bump ** 2)

    def boundary_edges(self) -> tuple:
        # the window's edges counterclockwise, each parametrized by the
        # coordinate that runs along it: end - start is a unit vector
        x0, x1, lo, hi = self.model.x_lo, self.model.x_hi, self.y_lo, self.y_hi
        start = np.array([[0.0, lo], [x1, 0.0], [0.0, hi], [x0, 0.0]])
        return (self.model, start, start + np.tile(np.eye(2), (2, 1)),
                np.array([x0, lo, x1, hi]), np.array([x1, hi, x0, lo]))

    def tangent_plane(self, points):
        _, px, py, _ = self.model._strip_data(points[:, 0], points[:, 1])
        return graph_tangent(px, py)

    def restrict(self, region) -> Current:
        if not (isinstance(region, HalfSpace) and region.axis == 1):
            raise CurrentError("surface currents restrict by y half-spaces only")
        t = region.threshold
        if region.below:
            lo, hi = self.y_lo, min(self.y_hi, t)
        else:
            lo, hi = max(self.y_lo, t), self.y_hi
        if hi <= lo:
            raise CurrentError("restriction window is empty")
        return SurfaceCurrent(self.model, lo, hi, self.theta)

    def complement_within(self, S: Current) -> list[Current]:
        pieces = []
        if S.y_lo > self.y_lo:
            pieces.append(SurfaceCurrent(self.model, self.y_lo, S.y_lo, self.theta))
        if S.y_hi < self.y_hi:
            pieces.append(SurfaceCurrent(self.model, S.y_hi, self.y_hi, self.theta))
        return pieces

    def slice(self, E: ExceptionalSet, r: float, samples: int) -> "Slice":
        if not self.is_singular_set(E):
            raise CurrentError("surface currents slice by their singular set only")
        y = self.model.y_infinity - r
        if not (self.y_lo < y < self.y_hi):
            return Slice(self.descriptor(), E, r, r, QuadResult(0.0, 0.0, 0))
        junctions = self.model.strip_junctions()
        y_inf = self.model.y_infinity
        rr = _regular_radius(lambda s, tol: all(abs(y_inf - s - yk) > tol for yk in junctions), r)
        y = self.model.y_infinity - rr
        L = self.model.section_length(y)
        return Slice(self.descriptor(), E, rr, r,
                     L.scaled(abs(self.theta)),
                     (("section", y),))

    def neighborhood_mass(self, E: ExceptionalSet, r: float) -> QuadResult:
        return self.neighborhood_masses(E, [r])[0]

    def neighborhood_masses(self, E: ExceptionalSet, radii) -> list[QuadResult]:
        # the windows of all the radii in one pass of the model
        if not self.is_singular_set(E):
            raise ValueError("surface neighbourhood masses are implemented for the singular set")
        windows = [(max(self.y_lo, self.model.y_infinity - r), self.y_hi) for r in radii]
        return [res.scaled(abs(self.theta)) for res in self.model.masses_between(windows)]

    def support_clearance(self, E: ExceptionalSet) -> Optional[float]:
        return self.model.y_infinity - self.y_hi if self.is_singular_set(E) else None

    def restrict_outside(self, E: ExceptionalSet, r: float, layer_budget: float) -> Current:
        return self.restrict(HalfSpace(1, self.model.y_infinity - r, below=True))

    def pushforward_data(self):
        model = self.model
        windows = model.strip_windows(self.y_lo, self.y_hi)
        if len(windows) != 1:
            raise CurrentError("surface pushforward bounds need a single-strip window")
        k, lo, hi = windows[0]
        return model.strip_chart(k), (model.x_hi - model.x_lo) * (hi - lo)

    def descriptor(self) -> dict:
        return {
            "type": "surface",
            "theta": self.theta,
            "window": [self.y_lo, self.y_hi],
            "model": self.model.descriptor(),
        }


# ---------------------------------------------------------------------------
# free-function operations


def mass(T: Current) -> QuadResult:
    return T.mass()


def boundary_mass(T: Current) -> QuadResult:
    return T.boundary_mass()


def restrict(T: Current, region) -> Current:
    """Subcurrent T restricted to a cube set or coordinate half-space."""
    return T.restrict(region)


def complement_within(T: Current, S: Current) -> list[Current]:
    """Pieces of the current T - S when S was produced by restricting T; [] if empty."""
    if type(S) is not type(T):
        raise CurrentError("complement of mismatched current kinds")
    return T.complement_within(S)


def mass_additivity_check(T: Current, S: Current) -> dict:
    """Verify mass(S) + mass(T - S) = mass(T) within the combined error estimates."""
    vals = [p.mass() for p in complement_within(T, S)]
    mT = T.mass()
    mS = S.mass() if not S.is_zero() else QuadResult(0.0, 0.0, 0)
    m_rest = QuadResult(sum(v.value for v in vals), sum(v.error for v in vals), 0)
    gap = abs(mS.value + m_rest.value - mT.value)
    budget = mS.error + m_rest.error + mT.error + 1e-12
    return {
        "mass_total": mT.value,
        "mass_part": mS.value,
        "mass_rest": m_rest.value,
        "gap": gap,
        "budget": budget,
        "additive": gap <= budget,
    }


def pushforward_mass_bounds(T) -> dict:
    """Check the bilipschitz mass sandwich for a graph-chart current.

    Accepts chart currents and surface currents windowed to one strip (the
    strip chart provides the Lipschitz data there).
    """
    chart, area = T.pushforward_data()
    lower = abs(T.theta) * area  # the inverse of a graph map is 1-Lipschitz
    upper = abs(T.theta) * (chart.lip_upper ** T.m) * area
    mres = T.mass()
    slack = mres.error + 1e-12 * max(1.0, upper)
    ok = bool(lower - slack <= mres.value <= upper + slack)
    return {"lower": lower, "upper": upper, "mass": mres.value, "ok": ok}


@dataclass(frozen=True)
class Slice:
    """An (m-1)-dimensional slice of a current by dist(., E) at radius r."""

    parent: dict
    exceptional: ExceptionalSet
    radius: float
    requested_radius: float
    mass: QuadResult
    pieces: tuple = ()

    @property
    def value(self) -> float:
        return self.mass.value


def _offset_pieces(element, r: float):
    """Straight edges and corner arcs of the r-level set around one box element."""
    (lo, hi) = element
    straight = []
    if hi[1] > lo[1]:
        straight.append(("v", lo[0] - r, lo[1], hi[1]))
        straight.append(("v", hi[0] + r, lo[1], hi[1]))
    if hi[0] > lo[0]:
        straight.append(("h", lo[1] - r, lo[0], hi[0]))
        straight.append(("h", hi[1] + r, lo[0], hi[0]))
    arcs = [
        ((lo[0], lo[1]), math.pi, 1.5 * math.pi),
        ((hi[0], lo[1]), 1.5 * math.pi, 2.0 * math.pi),
        ((hi[0], hi[1]), 0.0, 0.5 * math.pi),
        ((lo[0], hi[1]), 0.5 * math.pi, math.pi),
    ]
    return straight, arcs


def _regular_radius(is_regular, r: float, tol: float = 1e-9) -> float:
    """Nudge the radius until ``is_regular(radius, tol)``: the level set misses
    grid vertices or strip junctions."""
    for attempt in range(64):
        candidate = r + attempt * 4.0 * tol * (1 if attempt % 2 == 0 else -1)
        if is_regular(candidate, tol):
            return candidate
    raise CurrentError(f"no regular slicing radius found near r={r}")


def slice_current(T: Current, E: ExceptionalSet, r: float,
                  samples: int = 2048) -> Slice:
    """The slice of T by dist(., E) at radius r, realized as a level curve."""
    if r <= 0:
        raise CurrentError("slice radius must be positive")
    return T.slice(E, r, samples)


def _arc_length_inside(region: CubeSet, E: ExceptionalSet, center, r: float,
                       a0: float, a1: float, samples: int, multi: bool):
    """Length of the clipped arc, by midpoint sampling with a refinement bound."""
    def measure(n: int) -> float:
        angles = a0 + (a1 - a0) * (np.arange(n) + 0.5) / n
        pts = np.stack([
            center[0] + r * np.cos(angles),
            center[1] + r * np.sin(angles),
        ], axis=1)
        keep = region.contains_many(pts)
        if multi:
            keep &= E.distance_many(pts) >= r - 1e-12
        return float(np.mean(keep)) * (a1 - a0) * r

    coarse = measure(samples)
    fine = measure(2 * samples)
    # indicator integrands converge at first order in the sample count
    return fine, abs(fine - coarse) + (a1 - a0) * r / samples


def _cube_ball_overlap(cube_lo, cube_hi, elem_lo, elem_hi, r: float) -> QuadResult:
    """Planar measure of  cube  intersected with {dist(., element box) < r}.

    Exact up to an adaptive 1-D quadrature of the vertical section length,
    which is piecewise smooth in x.
    """
    ex0, ey0 = elem_lo
    ex1, ey1 = elem_hi
    cx0, cy0 = cube_lo
    cx1, cy1 = cube_hi
    a = max(cx0, ex0 - r)
    b = min(cx1, ex1 + r)
    if b <= a:
        return QuadResult(0.0, 0.0, 0)

    def section(xs):
        dx = np.maximum(ex0 - xs, 0.0) + np.maximum(xs - ex1, 0.0)
        w = np.sqrt(np.maximum(r * r - dx * dx, 0.0))
        lo = np.maximum(ey0 - w, cy0)
        hi = np.minimum(ey1 + w, cy1)
        return np.where(dx < r, np.maximum(hi - lo, 0.0), 0.0)

    return integrate_1d(section, a, b, tol=1e-12, max_panels=2048)


def _ball_side(E: ExceptionalSet, r: float, root: RootBox):
    """``refine``'s side for B(E, r) on root: 1 for cubes clear of the open ball, -1 inside it."""
    def side(gen, index):
        nearest, farthest = E.cube_distances(*root.bounds(gen, index))
        return np.where(nearest >= r, 1, np.where(farthest < r, -1, 0))
    return side


def _cube_region_measure_in_ball(region: CubeSet, E: ExceptionalSet, r: float) -> QuadResult:
    """Lebesgue measure of region intersected with B(E, r), with a bound.

    Single-element sets use exact per-cube section integrals; unions fall
    back to a dyadic refinement sandwich (the balls may overlap), refined
    until the layer of straddling cubes is within 1e-4 of the region's
    measure.  The sandwich is a rigorous bound at any depth, so at the
    generation cap it is returned as it stands.
    """
    if len(E.elements) == 1 and region.m == 2:
        (elo, ehi) = E.elements[0]
        return _summed(_cube_ball_overlap(lo, hi, elo, ehi, r) for lo, hi in zip(*region.bounds()))
    budget = 1e-4 * max(region.measure(), 1e-12)
    root = region.root
    outside = _ball_side(E, r, root)
    inside_gen, _, gen, _ = refine(
        root, *region.arrays, lambda *cubes: -outside(*cubes),
        lambda gen, index: math.fsum(root.measures(gen)) <= budget, _EXCISION_GENERATION)
    layer = math.fsum(root.measures(gen))
    return QuadResult(math.fsum(root.measures(inside_gen)) + 0.5 * layer, 0.5 * layer, 0)


def boundary_form_integral(T: Current, omega, tol: float = 1e-10) -> QuadResult:
    """Integral of a degree-(m-1) form over the oriented boundary of T.

    One quadrature run over every edge of ``T.boundary_edges()``: the form at
    the point u = start + t d, d = end - start, against the tangent d, both
    lifted when the edges are.  Edge i is integrated over t between t0[i] and
    t1[i], with a sign of -1 where t1[i] < t0[i], and the edges are summed in
    their order.
    """
    if T.m == 1:
        points, orient = T.boundary_points_signed()
        values = omega.evaluate_many(points)[:, 0]
        total = sum((o * v for o, v in zip(orient.tolist(), values.tolist())), 0.0)
        return QuadResult(T.theta * total, 0.0, 0)
    lift, start, end, t0, t1 = T.boundary_edges()
    direction = end - start

    def integrand(box, t):
        p, d = (np.repeat(a[box], t.shape[1], axis=0) for a in (start, direction))
        t = t.ravel()
        u = p + t[:, None] * d
        if lift is None:
            values = np.vecdot(omega.evaluate_many(u), d)
        else:
            points = np.column_stack([u, lift.psi(u[:, 0], u[:, 1])])
            values = np.vecdot(omega.evaluate_many(points), _lifted_tangent(lift, p, d, t))
        return values.reshape(len(box), -1)

    res = integrate_boxes(integrand, np.minimum(t0, t1)[:, None], np.maximum(t0, t1)[:, None],
                          np.full(len(t0), tol), max_panels=2048)
    return _summed(QuadResult(np.where(t1 < t0, -1.0, 1.0) * res.value, res.error, res.panels),
                   T.theta)


def coarea_slice_check(T: Current, E: ExceptionalSet, radii: Sequence[float]) -> dict:
    """Trapezoid check of  integral of slice masses <= Lip(f) * mass(T)."""
    radii = np.asarray(sorted(radii), dtype=float)
    masses = []
    errs = 0.0
    for r in radii:
        s = slice_current(T, E, float(r))
        masses.append(s.mass.value)
        errs += s.mass.error
    masses = np.asarray(masses)
    lhs = float(np.trapezoid(masses, radii))
    mT = T.mass()
    return {
        "radii": radii.tolist(),
        "slice_masses": masses.tolist(),
        "integral": lhs,
        "mass": mT.value,
        "bound_holds": lhs <= mT.value * (1.0 + 1e-3) + errs + mT.error,
        "certificate": errs + mT.error,
    }
