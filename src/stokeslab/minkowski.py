"""Intrinsic (m-1)-dimensional content profiles and excisability evidence.

The profile samples ||T||(B(E, r)) / (2r) on a geometric radius grid; a
numerical artifact cannot decide a limsup, so the trend is classified by an
explicit rule and the full sequence is kept for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .currents import Current
from .dyadic import ExceptionalSet
from .quadrature import QuadResult

__all__ = [
    "ContentProfile",
    "ExcisabilityEvidence",
    "neighborhood_mass",
    "intrinsic_content",
    "hausdorff_comparison_check",
    "excisability_evidence",
]

BOUNDED = "BOUNDED"
DIVERGENT = "DIVERGENT"
VANISHING = "VANISHING"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ContentProfile:
    """Values v_j = ||T||(B(E, r_j)) / (2 r_j) on a geometric radius grid."""

    radii: tuple[float, ...]
    measures: tuple[float, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...]
    trend: str
    trend_detail: dict

    def supremum(self) -> float:
        return max(self.values)

    def growth_exponent(self) -> Optional[float]:
        return self.trend_detail.get("growth_exponent")

    def as_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "measures": list(self.measures),
            "values": list(self.values),
            "errors": list(self.errors),
            "trend": self.trend,
            "trend_detail": self.trend_detail,
        }


@dataclass(frozen=True)
class ExcisabilityEvidence:
    """Certificate (bounded content constant) or refusal with a reason."""

    accepted: bool
    constant: Optional[float]
    reason: str
    profile: Optional[ContentProfile] = None

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "constant": self.constant,
            "reason": self.reason,
            "profile": self.profile.as_dict() if self.profile else None,
        }


def neighborhood_mass(T: Current, E: ExceptionalSet, r: float) -> QuadResult:
    """||T||(B(E, r)) with an error estimate."""
    return T.neighborhood_mass(E, r)


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x, by the formula of scipy.stats.linregress."""
    ssxm, ssxym, _, _ = np.cov(x, y, bias=1).flat
    return float(ssxym / ssxm)


def _classify(radii: np.ndarray, values: np.ndarray) -> tuple[str, dict]:
    n = len(values)
    tail = values[-5:] if n >= 5 else values
    detail: dict = {}
    window = max(min(5, n), (2 * n) // 3)
    vwin, rwin = values[-window:], radii[-window:]
    slope = None
    if np.all(vwin > 0) and len(vwin) >= 3:
        slope = _slope(np.log(1.0 / rwin), np.log(vwin))
        detail["fitted_slope"] = slope
    if len(tail) >= 3:
        ratios = tail[1:] / np.maximum(tail[:-1], 1e-300)
        if np.all(ratios >= 1.1):
            detail["growth_exponent"] = slope
            detail["rule"] = "tail ratios >= 1.1"
            return DIVERGENT, detail
    spread = tail.max() - tail.min()
    if tail.max() > 0 and spread <= 0.05 * tail.max():
        detail["plateau"] = float(tail.mean())
        return BOUNDED, detail
    if np.all(np.diff(tail) <= 1e-12) and tail[-1] <= 0.2 * max(values.max(), 1e-300):
        detail["final_value"] = float(tail[-1])
        return VANISHING, detail
    if values.max() == 0.0:
        detail["final_value"] = 0.0
        return VANISHING, detail
    # sustained-growth fallback for grids not aligned with the geometry
    if slope is not None and slope >= 0.08 and vwin[-1] >= 1.3 * vwin[0]:
        detail["growth_exponent"] = slope
        detail["rule"] = "regression growth"
        return DIVERGENT, detail
    return INCONCLUSIVE, detail


def intrinsic_content(T: Current, E: ExceptionalSet, r0: float, q: float,
                      steps: int) -> ContentProfile:
    """Profile of ||T||(B(E, r)) / (2r) on the grid r_j = r0 * q^j."""
    if not 0.0 < q < 1.0:
        raise ValueError("grid ratio q must lie in (0, 1)")
    if r0 >= T.support_diameter():
        raise ValueError("initial radius must be below the support diameter")
    radii = [r0 * q ** j for j in range(steps)]
    measures, values, errors = [], [], []
    for r, res in zip(radii, T.neighborhood_masses(E, radii)):
        measures.append(res.value)
        values.append(res.value / (2.0 * r))
        errors.append(res.error / (2.0 * r))
    trend, detail = _classify(np.asarray(radii), np.asarray(values))
    return ContentProfile(tuple(radii), tuple(measures), tuple(values), tuple(errors),
                          trend, detail)


def hausdorff_comparison_check(T: Current, E: ExceptionalSet, known_measure: float,
                               profile: Optional[ContentProfile] = None,
                               r0: float = 0.2, q: float = 0.7, steps: int = 12,
                               constant: float = 0.5) -> dict:
    """Check inf of the profile tail >= constant * (known boundary measure of E)."""
    profile = profile or intrinsic_content(T, E, r0, q, steps)
    tail = list(profile.values)[-5:]
    inf_tail = min(tail) if tail else 0.0
    ratio = inf_tail / known_measure if known_measure > 0 else math.inf
    return {
        "inf_tail": inf_tail,
        "known_measure": known_measure,
        "constant": constant,
        "ratio": ratio,
        "holds": inf_tail >= constant * known_measure - 1e-9,
        "trend": profile.trend,
    }


def excisability_evidence(T: Current, E: ExceptionalSet, r0: float = 0.2,
                          q: float = 0.7, steps: int = 14) -> ExcisabilityEvidence:
    """Bounded-content certificate feeding the excision constant, or refusal."""
    if E.is_empty():
        return ExcisabilityEvidence(True, 0.0, "empty set")
    profile = intrinsic_content(T, E, r0, q, steps)
    if profile.trend in (BOUNDED, VANISHING):
        return ExcisabilityEvidence(True, profile.supremum(),
                                    f"content {profile.trend}", profile)
    if profile.trend == DIVERGENT:
        exponent = profile.growth_exponent()
        return ExcisabilityEvidence(False, None,
                                    f"content DIVERGENT with growth exponent {exponent:.4f}",
                                    profile)
    return ExcisabilityEvidence(False, None, "trend INCONCLUSIVE within budget", profile)
