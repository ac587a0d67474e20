"""Minimal exterior algebra in R^2 and R^3.

Vectors and covectors of degree k are stored densely over the canonical
basis of Lambda_k, ordered lexicographically.  Only the ambient dimensions
2 and 3 are supported; everything here is plain numpy arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "KVector",
    "KCovector",
    "FormField",
    "basis_tuples",
    "pair",
    "wedge",
    "interior_product",
    "numeric_differential",
    "DegreeError",
    "DomainError",
    "DIFFERENTIAL_STEP",
]

# Central-difference step of numeric exterior derivatives.
DIFFERENTIAL_STEP = 1e-5


class DegreeError(ValueError):
    """Degree or ambient-dimension mismatch between algebra elements."""


class DomainError(ValueError):
    """Evaluation requested too close to a field's exceptional set."""


def basis_tuples(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Lexicographically ordered index tuples for the degree-k basis in R^n."""
    if n not in (2, 3):
        raise DegreeError(f"ambient dimension must be 2 or 3, got {n}")
    if not 0 <= k <= n:
        raise DegreeError(f"degree {k} out of range for dimension {n}")
    return tuple(itertools.combinations(range(n), k))


_BASIS_INDEX = {
    (n, k): {t: i for i, t in enumerate(basis_tuples(n, k))}
    for n in (2, 3)
    for k in range(n + 1)
}


@dataclass(frozen=True)
class KVector:
    """A k-vector in R^n with dense coefficients over the canonical basis."""

    n: int
    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        expected = len(basis_tuples(self.n, self.k))
        if c.shape != (expected,):
            raise DegreeError(
                f"degree-{self.k} element in R^{self.n} needs {expected} "
                f"coefficients, got shape {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def basis(cls, n: int, indices: tuple[int, ...]):
        """Basis element e_{i1} ^ ... ^ e_{ik} (0-based, strictly increasing)."""
        k = len(indices)
        coeffs = np.zeros(len(basis_tuples(n, k)))
        coeffs[_BASIS_INDEX[(n, k)][tuple(indices)]] = 1.0
        return cls(n, k, coeffs)

    @classmethod
    def from_vector(cls, v) -> "KVector":
        v = np.asarray(v, dtype=float)
        return cls(len(v), 1, v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        self._check_compatible(other)
        return type(self)(self.n, self.k, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return type(self)(self.n, self.k, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return type(self)(self.n, self.k, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.n, self.k, -self.coeffs)

    def _check_compatible(self, other):
        if not isinstance(other, type(self)):
            raise DegreeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if (self.n, self.k) != (other.n, other.k):
            raise DegreeError(
                f"mismatch: (n={self.n}, k={self.k}) vs (n={other.n}, k={other.k})"
            )


class KCovector(KVector):
    """A k-covector; same dense layout as :class:`KVector`, dual role."""


def pair(xi: KCovector, v: KVector) -> float:
    """Bilinear pairing <xi, v> of a covector with a vector of equal degree."""
    if not isinstance(xi, KCovector):
        raise DegreeError("first argument of pair must be a KCovector")
    if isinstance(v, KCovector) or not isinstance(v, KVector):
        raise DegreeError("second argument of pair must be a KVector")
    if (xi.n, xi.k) != (v.n, v.k):
        raise DegreeError(f"pairing mismatch: (n={xi.n}, k={xi.k}) vs (n={v.n}, k={v.k})")
    return float(np.dot(xi.coeffs, v.coeffs))


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]):
    """Sorted merge of two strictly increasing tuples with permutation sign.

    Returns (merged tuple, sign) or (None, 0) when an index repeats.
    """
    if set(a) & set(b):
        return None, 0
    merged = sorted(a + b)
    seq = list(a + b)
    # count inversions of the concatenation relative to sorted order
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return tuple(merged), sign


def wedge(u, w):
    """Wedge product; arguments must share ambient dimension and kind."""
    if type(u) is not type(w):
        raise DegreeError("wedge arguments must both be vectors or both covectors")
    if u.n != w.n:
        raise DegreeError("wedge arguments must share the ambient dimension")
    n, k = u.n, u.k + w.k
    if k > n:
        raise DegreeError(f"wedge degree {k} exceeds ambient dimension {n}")
    out = np.zeros(len(basis_tuples(n, k)))
    tu, tw = basis_tuples(n, u.k), basis_tuples(n, w.k)
    idx = _BASIS_INDEX[(n, k)]
    for i, a in enumerate(tu):
        ca = u.coeffs[i]
        if ca == 0.0:
            continue
        for j, b in enumerate(tw):
            cb = w.coeffs[j]
            if cb == 0.0:
                continue
            merged, sign = _merge_sign(a, b)
            if sign:
                out[idx[merged]] += sign * ca * cb
    return type(u)(n, k, out)


def interior_product(v: KVector, xi: KCovector) -> KCovector:
    """Contraction v -| xi, the adjoint of wedging: <v -| xi, w> = <xi, v ^ w>."""
    if v.k != 1:
        raise DegreeError("interior product is defined for degree-1 vectors")
    if xi.k < 1:
        raise DegreeError("cannot contract a 0-covector")
    if v.n != xi.n:
        raise DegreeError("ambient dimension mismatch in interior product")
    n, k = xi.n, xi.k
    out = np.zeros(len(basis_tuples(n, k - 1)))
    idx_out = _BASIS_INDEX[(n, k - 1)]
    for j, t in enumerate(basis_tuples(n, k)):
        c = xi.coeffs[j]
        if c == 0.0:
            continue
        for pos, i in enumerate(t):
            vi = v.coeffs[i]
            if vi == 0.0:
                continue
            rest = t[:pos] + t[pos + 1:]
            out[idx_out[rest]] += ((-1) ** pos) * vi * c
    return KCovector(n, k - 1, out)


@dataclass
class FormField:
    """A continuous degree-k covector field on R^n, evaluated pointwise.

    ``differential`` is the analytic exterior derivative when available;
    otherwise :func:`numeric_differential` supplies a central-difference
    substitute.  ``exceptional_set`` is any object with a ``distance(x)``
    method describing where the field loses smoothness (None means smooth
    everywhere); ``sup_norm`` is an optional known bound on |omega|.
    ``evaluate_batch`` maps an (N, n) array of points to their (N, dim)
    coefficients at once; without it :meth:`evaluate_many` loops over
    ``evaluate``.
    """

    n: int
    k: int
    evaluate: Callable[[np.ndarray], KCovector]
    differential: Optional[Callable[[np.ndarray], KCovector]] = None
    exceptional_set: object = None
    sup_norm: Optional[float] = None
    name: str = ""
    evaluate_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> KCovector:
        return self.evaluate(np.asarray(x, dtype=float))

    def evaluate_many(self, points) -> np.ndarray:
        """Coefficients at every row of an (N, n) point array, as an (N, dim) array."""
        points = np.asarray(points, dtype=float)
        if self.evaluate_batch is not None:
            return np.asarray(self.evaluate_batch(points), dtype=float)
        dim = len(basis_tuples(self.n, self.k))
        return np.array([self.evaluate(p).coeffs for p in points],
                        dtype=float).reshape(len(points), dim)

    def d(self, x, step: float = DIFFERENTIAL_STEP) -> KCovector:
        """Exterior derivative at x: analytic when provided, else numeric."""
        x = np.asarray(x, dtype=float)
        if self.differential is not None:
            return self.differential(x)
        return numeric_differential(self, x, step)


def numeric_differential(omega: FormField, x, step: float = DIFFERENTIAL_STEP) -> KCovector:
    """Central-difference exterior derivative of a field at an interior point.

    Exact (up to rounding) whenever every coefficient is polynomial of
    degree <= 2 in each variable.
    """
    x = np.asarray(x, dtype=float)
    if omega.exceptional_set is not None:
        d = omega.exceptional_set.distance(x)
        if d <= step:
            raise DomainError(
                f"point {x.tolist()} is within step={step} of the exceptional set (dist={d})"
            )
    n, k = omega.n, omega.k
    out = None
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        hi = omega.evaluate(x + e)
        lo = omega.evaluate(x - e)
        partial = KCovector(n, k, (hi.coeffs - lo.coeffs) / (2.0 * step))
        term = wedge(KCovector.basis(n, (i,)), partial)
        out = term if out is None else out + term
    return out
