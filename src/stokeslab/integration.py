"""Riemann sums, circulation, approximation tests, and the Stokes verdict.

Reference integrals come from an adaptive tensor Gauss-Legendre oracle that
is independent of the Riemann-sum route; circulation is a certified
boundary line integral.  ``stokes_check`` compares the two sides of the
boundary identity and corroborates the left side with gauge decompositions
when the singular set admits them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .cousin import (
    DecompositionRefusal,
    Gauge,
    RegularityFn,
    ResourceBudgetError,
    SubadditiveFn,
    TaggedFamily,
    gauge_decompose,
)
from .currents import (
    ChartCurrent,
    Current,
    SurfaceCurrent,
    TopDimCurrent,
    boundary_form_integral,
)
from .dyadic import ExceptionalSet
from .forms import DIFFERENTIAL_STEP, DomainError
from .quadrature import QuadResult, integrate_1d, integrate_2d

__all__ = [
    "StokesReport",
    "riemann_sum",
    "circulation",
    "scalar_integral_oracle",
    "form_tangent_integral",
    "saks_henstock_test",
    "differentiation_test",
    "stokes_check",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
UNDECIDED = "UNDECIDED-BY-DECOMPOSITION"


def riemann_sum(f: Callable, family: TaggedFamily) -> float:
    """sigma(f, P) = sum of f(tag) * mass(piece) over the family."""
    return math.fsum(f(np.asarray(p.tag)) * p.mass for p in family.pairs)


def circulation(omega, S: Current, tol: float = 1e-10) -> QuadResult:
    """Boundary line integral of a degree-(m-1) form over the oriented boundary."""
    return boundary_form_integral(S, omega, tol=tol)


def scalar_integral_oracle(T: Current, f: Callable, tol: float = 1e-10) -> QuadResult:
    """Reference value of  integral of f d||T||, independent of Riemann sums.

    ``f`` maps a batch of ambient points (N, n) to values (N,).
    """
    if isinstance(T, TopDimCurrent) and T.m == 2:
        total, err = 0.0, 0.0
        for q in T.region.cubes:
            lo, hi = q.bounds()
            res = integrate_2d(
                lambda x, y: f(np.stack([x, y], axis=-1)),
                lo[0], hi[0], lo[1], hi[1], tol=tol * q.measure(),
            )
            total += res.value
            err += res.error
        return QuadResult(abs(T.theta) * total, abs(T.theta) * err, 0)
    if isinstance(T, TopDimCurrent) and T.m == 1:
        total, err = 0.0, 0.0
        for q in T.region.cubes:
            lo, hi = q.bounds()
            res = integrate_1d(lambda x: f(x[:, None]), lo[0], hi[0], tol=tol)
            total += res.value
            err += res.error
        return QuadResult(abs(T.theta) * total, abs(T.theta) * err, 0)
    if isinstance(T, ChartCurrent):
        total, err = 0.0, 0.0
        for r in T._domain_rects():
            def dens(x, y):
                pts = T.chart.point(x, y)
                return f(pts) * T.chart.area_element(x, y)

            res = integrate_2d(dens, r.x0, r.x1, r.y0, r.y1, tol=tol)
            total += res.value
            err += res.error
        return QuadResult(abs(T.theta) * total, abs(T.theta) * err, 0)
    raise NotImplementedError(f"scalar oracle unsupported for {type(T).__name__}")


def _chart_tangent_2vector(chart, x, y) -> np.ndarray:
    """Coefficients of Dphi(e1) ^ Dphi(e2) over (e12, e13, e23); not normalized."""
    px = float(chart.dpsi_dx(x, y))
    py = float(chart.dpsi_dy(x, y))
    # (1, 0, px) ^ (0, 1, py)
    return np.array([1.0, py, -px])


def form_tangent_integral(T: Current, zeta: Callable, tol: float = 1e-9,
                          surface_options: Optional[dict] = None,
                          omega=None) -> QuadResult:
    """integral of <zeta(x), unit tangent plane(x)> d||T|| for a 2-covector field.

    ``zeta`` maps a point to a degree-2 KCovector (typically the exterior
    derivative of a 1-form).  Surface currents need the 1-form itself
    (``omega``) so the differential can be finite-differenced with
    strip-adapted steps.
    """
    if isinstance(T, TopDimCurrent) and T.m == 2:
        def f(pts):
            return np.array([zeta(p).coeffs[0] for p in pts])

        res = scalar_integral_oracle(TopDimCurrent(T.region, 1), f, tol)
        return QuadResult(T.theta * res.value, abs(T.theta) * res.error, res.panels)
    if isinstance(T, ChartCurrent):
        total, err = 0.0, 0.0
        for r in T._domain_rects():
            def dens(xs, ys):
                out = np.empty(len(xs))
                for i, (x, y) in enumerate(zip(xs, ys)):
                    p = np.array([x, y, float(T.chart.psi(x, y))])
                    w = _chart_tangent_2vector(T.chart, x, y)
                    out[i] = float(np.dot(zeta(p).coeffs, w))
                return out

            res = integrate_2d(dens, r.x0, r.x1, r.y0, r.y1, tol=tol, max_panels=1024)
            total += res.value
            err += res.error
        return QuadResult(T.theta * total, abs(T.theta) * err, 0)
    if isinstance(T, SurfaceCurrent):
        if omega is None:
            raise NotImplementedError(
                "surface tangent integrals need the 1-form itself (omega=...)"
            )
        return _surface_tangent_integral(T, omega, surface_options or {})
    raise NotImplementedError(f"tangent integral unsupported for {type(T).__name__}")


def _surface_tangent_integral(T: SurfaceCurrent, omega, options: dict) -> QuadResult:
    """Tangential differential of a 1-form over the surface, by sampling.

    The integrand is exactly zero where the form is the pullback of a
    closed planar form; finite differences verify this on the strips the
    step size can resolve, and deeper strips contribute only their mass to
    the certificate.
    """
    model = T.model
    max_strip = options.get("max_strip", 8)
    y_panels = options.get("y_panels", 2)
    x_panels = options.get("x_panels", 4)
    order = options.get("order", 8)
    nodes, weights = np.polynomial.legendre.leggauss(order)

    def composite(lo, hi, panels):
        """Nodes and weights of the composite Gauss rule on [lo, hi]."""
        edges = np.linspace(lo, hi, panels + 1)
        mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        return (mids[:, None] + halves[:, None] * nodes).ravel(), \
            (halves[:, None] * weights).ravel()

    total = 0.0
    abs_total = 0.0
    k0 = int(model.strip_index(T.y_lo))
    k1 = min(int(model.strip_index(max(T.y_hi - 1e-15, T.y_lo))), max_strip)
    checked_mass = 0.0
    for k in range(k0, k1 + 1):
        s0, s1 = model.strip_bounds_y(k)
        lo, hi = max(T.y_lo, s0), min(T.y_hi, s1)
        if hi <= lo:
            continue
        P = min(model._x_period(k), model.x_hi)
        n_periods = model.x_hi / P
        step = 5e-6 * model.params.lam ** k
        margin = 2 * step
        ys, wy = composite(lo + margin, hi - margin, y_panels)
        xs, wx = composite(0.0, P, x_panels)
        X, Y = np.meshgrid(xs, ys)
        curl = model.tangential_curls(X.ravel(), Y.ravel(), step,
                                      omega.evaluate_many).reshape(X.shape)
        _, px, py, _ = model._strip_data(X, Y)
        dens = np.sqrt(1.0 + px * px + py * py)
        total += float(wy @ (curl * dens) @ wx) * n_periods
        abs_total += float(wy @ (np.abs(curl) * dens) @ wx) * n_periods
        checked_mass += model.mass_between(lo, hi).value
    # strips past max_strip are not fd-verified; the integrand is the
    # tangential differential of a pullback of a closed form there, zero in
    # exact arithmetic, so only the fd floor enters the certificate
    return QuadResult(T.theta * total, abs_total + 1e-9 * max(checked_mass, 1.0), 0)


def saks_henstock_test(f: Callable, T: Current, eps1: float,
                       j_range: Sequence[int] = range(0, 7),
                       sup_f: Optional[float] = None,
                       oracle_tol: float = 1e-10) -> dict:
    """Riemann sums against the quadrature oracle along a shrinking gauge schedule.

    For each j a full family is built with the uniform gauge 2^-j and the
    mass-fullness budget eps1 / (2 sup|f| + 1); reports the error curve and
    the first j meeting eps1.
    """
    oracle = scalar_integral_oracle(T, f, oracle_tol)
    if sup_f is None:
        pts = _support_samples(T, 512)
        sup_f = float(np.abs(f(pts)).max())
    tau1 = eps1 / (2.0 * sup_f + 1.0)
    curve = []
    first_j = None
    for j in j_range:
        delta = Gauge.constant(2.0 ** (-j))
        try:
            family = gauge_decompose(
                T, ExceptionalSet.empty(), delta,
                RegularityFn.constant(0.05), SubadditiveFn.mass(), tau1,
            )
        except (DecompositionRefusal, ResourceBudgetError) as exc:
            curve.append({"j": j, "error": None, "note": str(exc)})
            continue
        sigma = riemann_sum(lambda p: float(f(p[None, :])[0]), family)
        err = abs(oracle.value - sigma)
        curve.append({
            "j": j,
            "gauge": 2.0 ** (-j),
            "pieces": len(family.pairs),
            "max_diam": family.max_diameter(),
            "riemann_sum": sigma,
            "oracle": oracle.value,
            "error": err,
        })
        if first_j is None and err < eps1:
            first_j = j
    return {
        "oracle": oracle.value,
        "oracle_error": oracle.error,
        "eps1": eps1,
        "tau1": tau1,
        "first_j_within_eps1": first_j,
        "curve": curve,
        "achieved": first_j is not None,
    }


def _support_samples(T: Current, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if isinstance(T, TopDimCurrent):
        cubes = T.region.cubes
        weights = np.array([q.measure() for q in cubes])
        weights = weights / weights.sum()
        idx = rng.choice(len(cubes), size=n, p=weights)
        out = np.empty((n, T.m))
        for i, ci in enumerate(idx):
            lo, hi = cubes[ci].bounds()
            out[i] = rng.uniform(lo, hi)
        return out
    if isinstance(T, ChartCurrent):
        rects = T._domain_rects()
        weights = np.array([r.measure() for r in rects])
        weights = weights / weights.sum()
        idx = rng.choice(len(rects), size=n, p=weights)
        out = np.empty((n, 3))
        for i, ci in enumerate(idx):
            r = rects[ci]
            x = rng.uniform(r.x0, r.x1)
            y = rng.uniform(r.y0, r.y1)
            out[i] = [x, y, float(T.chart.psi(x, y))]
        return out
    raise NotImplementedError


def differentiation_test(omega, T: Current, x, eta: float, eps2: float,
                         shrink: float = 0.6, steps: int = 12,
                         start_fraction: float = 0.25) -> dict:
    """Shrinking eta-regular pieces at a point test the derivative identity.

    Builds squares through the chart shrinking geometrically and checks
    |<d omega(x), tangent(x)> M(S) - circulation(S)| < eps2 * M(S) from some
    threshold diameter on.
    """
    x = np.asarray(x, dtype=float)
    if getattr(omega, "exceptional_set", None) is not None:
        d = omega.exceptional_set.distance(x)
        if d <= 1e-9:
            return {"applicable": False,
                    "reason": "form is not differentiable at the test point"}
    if isinstance(T, TopDimCurrent):
        host = None
        for q in T.region.cubes:
            lo, hi = q.bounds()
            inner = min(float(np.min(x - lo)), float(np.min(hi - x)))
            if inner > 0:
                host = (q, inner)
                break
        if host is None:
            return {"applicable": False, "reason": "point is not interior to a cube"}
        q, inner = host
        s0 = 2.0 * inner * start_fraction
        dw = omega.d(x)
        target = float(dw.coeffs[0]) * (1 if T.theta > 0 else -1)
        rows = []
        threshold = None
        from .dyadic import CubeSet, RootBox

        for j in range(steps):
            s = s0 * shrink ** j
            root = RootBox((x[0] - s / 2.0, x[1] - s / 2.0), s)
            piece = TopDimCurrent(CubeSet.whole(root), T.theta)
            mres = piece.mass()
            theta_val = boundary_form_integral(piece, omega, tol=1e-12)
            gap = abs(target * mres.value - theta_val.value) / mres.value
            ok = gap < eps2
            rows.append({"diam": s * math.sqrt(2), "gap_per_mass": gap, "ok": ok})
            if ok and threshold is None:
                threshold = s * math.sqrt(2)
            if not ok:
                threshold = None
        return {
            "applicable": True,
            "target_density": target,
            "rows": rows,
            "threshold_diameter": threshold,
            "achieved": threshold is not None,
            "regularity": 2.0 ** (-2.5),
            "eta": eta,
        }
    if isinstance(T, ChartCurrent):
        u = x[:2]
        rects = T._domain_rects()
        host = None
        for r in rects:
            inner = min(u[0] - r.x0, r.x1 - u[0], u[1] - r.y0, r.y1 - u[1])
            if inner > 0:
                host = (r, float(inner))
                break
        if host is None:
            return {"applicable": False, "reason": "point is not interior to the domain"}
        _, inner = host
        s0 = 2.0 * inner * start_fraction
        p3 = np.array([u[0], u[1], float(T.chart.psi(u[0], u[1]))])
        dw = omega.d(p3)
        w = _chart_tangent_2vector(T.chart, float(u[0]), float(u[1]))
        norm_w = float(np.linalg.norm(w))
        target = float(np.dot(dw.coeffs, w)) / norm_w * (1 if T.theta > 0 else -1)
        from .currents import Rect

        rows = []
        threshold = None
        for j in range(steps):
            s = s0 * shrink ** j
            piece = ChartCurrent(Rect(u[0] - s / 2, u[0] + s / 2, u[1] - s / 2, u[1] + s / 2),
                                 T.chart, T.theta, tol=1e-12)
            mres = piece.mass()
            theta_val = boundary_form_integral(piece, omega, tol=1e-12)
            gap = abs(target * mres.value - theta_val.value) / mres.value
            ok = gap < eps2
            diam = T.chart.lip_upper * s * math.sqrt(2)
            rows.append({"diam": diam, "gap_per_mass": gap, "ok": ok})
            if ok and threshold is None:
                threshold = diam
            if not ok:
                threshold = None
        return {
            "applicable": True,
            "target_density": target,
            "rows": rows,
            "threshold_diameter": threshold,
            "achieved": threshold is not None,
            "eta": eta,
        }
    return {"applicable": False, "reason": f"unsupported current {type(T).__name__}"}


@dataclass(frozen=True)
class StokesReport:
    lhs: float
    lhs_error: float
    rhs: float
    rhs_error: float
    gap: float
    tolerance: float
    verdict: str
    decomposition: dict
    family_stats: Optional[dict] = None
    refinement_curve: tuple = ()

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "lhs_error": self.lhs_error,
            "rhs": self.rhs,
            "rhs_error": self.rhs_error,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "decomposition": self.decomposition,
            "family_stats": self.family_stats,
            "refinement_curve": list(self.refinement_curve),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, **kwargs)


def stokes_check(T: Current, omega, E_T: Optional[ExceptionalSet] = None,
                 tol: Optional[float] = None,
                 eps_schedule: Sequence[int] = (1, 2, 3, 4),
                 evidence=None, surface_options: Optional[dict] = None) -> StokesReport:
    """Compare both sides of the boundary identity and corroborate by families.

    The left side comes from the quadrature oracle applied to the exterior
    derivative (analytic when the form carries one, finite differences
    otherwise); the right side is the circulation.  When the singular set
    admits a decomposition, Riemann sums over shrinking uniform gauges are
    reported alongside.
    """
    E_T = E_T or ExceptionalSet.empty()
    analytic = getattr(omega, "differential", None) is not None
    if tol is None:
        tol = 1e-6 if analytic else 1e-3

    zeta = lambda p: omega.d(p)
    lhs = form_tangent_integral(T, zeta, surface_options=surface_options, omega=omega)
    rhs = circulation(omega, T)
    gap = lhs.value - rhs.value

    decomposition: dict = {"attempted": False}
    family_stats = None
    curve = []
    if not isinstance(T, SurfaceCurrent) or E_T.is_empty():
        decomposition["attempted"] = True
        G = SubadditiveFn.max_of(SubadditiveFn.mass(),
                                 SubadditiveFn.abs_circulation(omega))
        G.name = "max(mass, |circulation|)"
        eta = RegularityFn.constant(0.05)
        try:
            for j in eps_schedule:
                delta = Gauge.constant(2.0 ** (-j))
                family = gauge_decompose(T, E_T, delta, eta, G, max(tol / 3.0, 1e-9),
                                         evidence=evidence)
                tags = np.array([p.tag for p in family.pairs], dtype=float)
                densities = _tangent_densities(T, omega, tags)
                sigma = math.fsum(d * p.mass for d, p in zip(densities, family.pairs))
                curve.append({
                    "j": j,
                    "max_diam": family.max_diameter(),
                    "riemann_sum": sigma,
                    "oracle": lhs.value,
                    "abs_err": abs(sigma - lhs.value),
                })
                family_stats = family.summary()
            decomposition["status"] = "decomposed"
        except DecompositionRefusal as exc:
            decomposition["status"] = "refused"
            decomposition["reason"] = str(exc)
        except ResourceBudgetError as exc:
            decomposition["status"] = "resource"
            decomposition["reason"] = str(exc)
    else:
        decomposition["attempted"] = True
        from .minkowski import excisability_evidence

        ev = evidence or excisability_evidence(T, E_T)
        if ev.accepted:
            decomposition["status"] = "evidence-accepted"
            decomposition["constant"] = ev.constant
        else:
            decomposition["status"] = "refused"
            decomposition["reason"] = ev.reason

    refused = decomposition.get("status") in ("refused", "resource")
    budget = lhs.error + rhs.error
    if abs(gap) <= tol:
        verdict = UNDECIDED if refused else HOLDS
    else:
        verdict = FAILS
    return StokesReport(
        lhs=lhs.value, lhs_error=lhs.error, rhs=rhs.value, rhs_error=rhs.error,
        gap=gap, tolerance=tol, verdict=verdict,
        decomposition=decomposition, family_stats=family_stats,
        refinement_curve=tuple(curve),
    )


def _tangent_densities(T: Current, omega, tags: np.ndarray) -> np.ndarray:
    """<d omega(p), unit tangent plane at p> at every tag, for Riemann sums over families.

    On the surface, a form without an analytic differential is
    differentiated by the model's batched curl, with the step of
    :meth:`FormField.d`.
    """
    if isinstance(T, SurfaceCurrent) and omega.differential is None:
        E = omega.exceptional_set
        if E is not None and float(E.distance_many(tags).min()) <= DIFFERENTIAL_STEP:
            raise DomainError(
                f"a tag lies within step={DIFFERENTIAL_STEP} of the form's exceptional set"
            )
        curls = T.model.tangential_curls(tags[:, 0], tags[:, 1], DIFFERENTIAL_STEP,
                                         omega.evaluate_many)
        return curls * (1 if T.theta > 0 else -1)
    return np.array([_tangent_density_at(T, omega, p) for p in tags])


def _tangent_density_at(T: Current, omega, p: np.ndarray) -> float:
    """<d omega(p), unit tangent plane at p>, for Riemann sums over families."""
    dw = omega.d(p)
    if isinstance(T, TopDimCurrent):
        return float(dw.coeffs[0]) * (1 if T.theta > 0 else -1)
    if isinstance(T, ChartCurrent):
        w = _chart_tangent_2vector(T.chart, float(p[0]), float(p[1]))
        return float(np.dot(dw.coeffs, w)) / float(np.linalg.norm(w)) \
            * (1 if T.theta > 0 else -1)
    if isinstance(T, SurfaceCurrent):
        t1, t2, _ = T.model.tangent_frame(float(p[0]), float(p[1]))
        w = np.array([
            t1[0] * t2[1] - t1[1] * t2[0],
            t1[0] * t2[2] - t1[2] * t2[0],
            t1[1] * t2[2] - t1[2] * t2[1],
        ])
        return float(np.dot(dw.coeffs, w)) * (1 if T.theta > 0 else -1)
    raise NotImplementedError
