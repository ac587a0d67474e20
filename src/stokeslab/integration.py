"""Riemann sums, circulation, approximation tests, and the Stokes verdict.

Reference integrals come from an adaptive tensor Gauss-Legendre oracle that
is independent of the Riemann-sum route; circulation is an adaptive
boundary line integral.  Every tangential density <d omega, tau> here, at
quadrature nodes, at family tags or at one test point, takes d omega from
:meth:`~stokeslab.forms.FormField.d_many`.  ``stokes_check`` compares the
two sides of the boundary identity and corroborates the left side with
Riemann sums over gauge decompositions when the singular set admits them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
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
from .currents import Current, CurrentError, SurfaceCurrent, boundary_form_integral
from .dyadic import ExceptionalSet
from .quadrature import QuadResult, gauss_rule, ragged_panels

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
    """sigma(f, P) = sum of f(tag) * mass(piece); f maps the (N, n) tags to (N,) values at once."""
    if not len(family.pairs):
        return 0.0
    return math.fsum((f(family.pairs.tags) * family.pairs.mass).tolist())


def circulation(omega, S: Current, tol: float = 1e-10) -> QuadResult:
    """Boundary line integral of a degree-(m-1) form over the oriented boundary."""
    return boundary_form_integral(S, omega, tol=tol)


def scalar_integral_oracle(T: Current, f: Callable, tol: float = 1e-10) -> QuadResult:
    """Reference value of  integral of f d||T||, independent of Riemann sums.

    ``f`` maps a batch of ambient points (N, n) to values (N,).
    """
    return T.scalar_integral(f, tol)


def form_tangent_integral(T: Current, omega, tol: float = 1e-9,
                          surface_options: Optional[dict] = None) -> QuadResult:
    """integral of <d omega(x), unit tangent plane(x)> d||T|| for a 1-form field omega.

    Surface currents are sampled strip by strip, so that the differential
    is finite-differenced with strip-adapted steps.
    """
    if isinstance(T, SurfaceCurrent):
        return _surface_tangent_integral(T, omega, surface_options or {})
    return T.tangent_integral(omega, tol)


def _surface_tangent_integral(T: SurfaceCurrent, omega, options: dict) -> QuadResult:
    """Tangential differential of a 1-form over the surface, by sampling.

    The integrand is exactly zero where the form is the pullback of a
    closed planar form; finite differences verify this on the strips the
    step size can resolve, and deeper strips contribute only their mass to
    the error estimate.
    """
    model = T.model
    max_strip = options.get("max_strip", 8)
    y_panels = options.get("y_panels", 2)
    x_panels = options.get("x_panels", 4)
    order = options.get("order", 8)
    nodes, weights = gauss_rule(order)

    total = 0.0
    abs_total = 0.0
    checked_mass = 0.0
    windows = [window for window in model.strip_windows(T.y_lo, T.y_hi) if window[0] <= max_strip]
    for k, lo, hi in windows:
        P = min(model._x_period(k), model.x_hi)
        n_periods = model.x_hi / P
        step = 5e-6 * model.params.lam ** k
        margin = 2 * step
        # the y rule and the x rule as two ragged rows
        mids, halves = ragged_panels([lo + margin, 0.0], [hi - margin, P], [y_panels, x_panels])
        grid = (mids[:, None] + halves[:, None] * nodes).ravel()
        grid_weights = (halves[:, None] * weights).ravel()
        (ys, xs), (wy, wx) = (np.split(a, [y_panels * order]) for a in (grid, grid_weights))
        X, Y = np.meshgrid(xs, ys)
        curl = model.tangential_curls(X.ravel(), Y.ravel(), step, omega).reshape(X.shape)
        dens = model._area_density(X, Y)
        total += float(wy @ (curl * dens) @ wx) * n_periods
        abs_total += float(wy @ (np.abs(curl) * dens) @ wx) * n_periods
    for res in model.masses_between([(lo, hi) for _, lo, hi in windows]):
        checked_mass += res.value
    # strips past max_strip are not fd-verified; the integrand is the
    # tangential differential of a pullback of a closed form there, zero in
    # exact arithmetic, so only the fd floor enters the error estimate
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
        pts = T.support_samples(512, np.random.default_rng(0))
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
        sigma = riemann_sum(f, family)
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


def differentiation_test(omega, T: Current, x, eta: float, eps2: float,
                         shrink: float = 0.6, steps: int = 12,
                         start_fraction: float = 0.25) -> dict:
    """Shrinking eta-regular pieces at a point test the derivative identity.

    Builds squares through the chart shrinking geometrically and checks
    |<d omega(x), tangent(x)> M(S) - circulation(S)| < eps2 * M(S) from some
    threshold diameter on.
    """
    x = np.asarray(x, dtype=float)
    if omega.exceptional_set is not None and omega.exceptional_set.distance(x) <= 1e-9:
        return {"applicable": False, "reason": "form is not differentiable at the test point"}
    try:
        rects = T.domain_rects()
    except CurrentError:
        return {"applicable": False, "reason": f"unsupported current {type(T).__name__}"}
    planar = T.n == 2  # a cube set; the other kinds are graphs in R^3
    u = x[:2]
    inner = max((min(u[0] - r.x0, r.x1 - u[0], u[1] - r.y0, r.y1 - u[1]) for r in rects),
                default=0.0)
    if inner <= 0:
        where = "a cube" if planar else "the domain"
        return {"applicable": False, "reason": f"point is not interior to {where}"}
    s0 = 2.0 * float(inner) * start_fraction
    target = float(_tangent_densities(T, omega, T.lift(u)[None, :])[0])
    rows = []
    threshold = None
    for j in range(steps):
        piece, diam = T.square_at(u, s0 * shrink ** j)
        mres = piece.mass()
        theta_val = boundary_form_integral(piece, omega, tol=1e-12)
        gap = abs(target * mres.value - theta_val.value) / mres.value
        ok = gap < eps2
        rows.append({"diam": diam, "gap_per_mass": gap, "ok": ok})
        if ok and threshold is None:
            threshold = diam
        if not ok:
            threshold = None
    out = {
        "applicable": True,
        "target_density": target,
        "rows": rows,
        "threshold_diameter": threshold,
        "achieved": threshold is not None,
    }
    if planar:
        out["regularity"] = 2.0 ** (-2.5)
    out["eta"] = eta
    return out


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
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "refinement_curve": list(self.refinement_curve)}

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
    analytic = omega.differential is not None
    if tol is None:
        tol = 1e-6 if analytic else 1e-3

    lhs = form_tangent_integral(T, omega, surface_options=surface_options)
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
                sigma = riemann_sum(lambda tags: _tangent_densities(T, omega, tags), family)
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
    """<d omega(p), unit tangent plane at p> at every row p of tags, with the orientation's sign."""
    w, area = T.tangent_plane(tags)
    return np.vecdot(omega.d_many(tags), w) / area * (1 if T.theta > 0 else -1)
