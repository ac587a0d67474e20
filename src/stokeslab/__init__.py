"""stokeslab: boundary identities on integral currents, verified numerically.

The package provides exact dyadic geometry, adaptive quadrature, gauge
decompositions of currents into tagged families, intrinsic Minkowski-content
profiles, and the explicit oscillating surface on which the boundary
identity fails.
"""

from . import certify, counterexample, cousin, currents, dyadic, forms, integration, minkowski
from .quadrature import QuadResult, QuadratureError

__all__ = [
    "forms",
    "dyadic",
    "currents",
    "cousin",
    "certify",
    "integration",
    "minkowski",
    "counterexample",
    "QuadResult",
    "QuadratureError",
]

__version__ = "0.1.0"
