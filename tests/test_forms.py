import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_refs import from_vector

from stokeslab import forms
from stokeslab.forms import (
    DegreeError,
    DomainError,
    FormField,
    KCovector,
    KVector,
    interior_product,
    numeric_differential,
    pair,
    wedge,
)


def test_pairing_dual_basis():
    xi = KCovector.basis(2, (0, 1))
    assert pair(xi, KVector.basis(2, (0, 1))) == 1.0


def test_pairing_antisymmetry():
    xi = KCovector.basis(2, (0, 1))
    e21 = wedge(KVector.basis(2, (1,)), KVector.basis(2, (0,)))
    assert pair(xi, e21) == -1.0


def test_pairing_linearity():
    xi = KCovector(2, 1, [2.0, 3.0])
    assert pair(xi, KVector.basis(2, (0,))) == 2.0


def test_pairing_mismatch_raises():
    xi = KCovector.basis(2, (0,))
    with pytest.raises(DegreeError):
        pair(xi, KVector.basis(3, (0,)))
    with pytest.raises(DegreeError):
        pair(xi, KVector.basis(2, (0, 1)))


def test_interior_product_basis_contraction():
    e12 = KCovector.basis(2, (0, 1))
    assert np.allclose(interior_product(KVector.basis(2, (0,)), e12).coeffs, [0.0, 1.0])
    assert np.allclose(interior_product(KVector.basis(2, (1,)), e12).coeffs, [-1.0, 0.0])


def test_interior_product_missing_factor():
    e12 = KCovector.basis(3, (0, 1))
    out = interior_product(KVector.basis(3, (2,)), e12)
    assert np.allclose(out.coeffs, 0.0)


def test_interior_product_degree_zero_raises():
    with pytest.raises(DegreeError):
        interior_product(KVector.basis(2, (0,)), KCovector(2, 0, [1.0]))


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_contraction_adjoint_to_wedge(seed):
    # <v -| xi, w> = <xi, v ^ w> for degree-1 v, w and degree-2 xi in R^3
    rng = np.random.default_rng(seed)
    v = KVector(3, 1, rng.normal(size=3))
    w = KVector(3, 1, rng.normal(size=3))
    xi = KCovector(3, 2, rng.normal(size=3))
    lhs = pair(interior_product(v, xi), w)
    rhs = pair(xi, wedge(v, w))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_wedge_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    v = KVector(3, 1, rng.normal(size=3))
    w = KVector(3, 1, rng.normal(size=3))
    assert np.allclose(wedge(v, w).coeffs, -wedge(w, v).coeffs)


def test_norm_is_euclidean():
    v = KVector(3, 2, [3.0, 0.0, 4.0])
    assert v.norm() == 5.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_pairing_cauchy_schwarz(seed):
    rng = np.random.default_rng(seed)
    xi = KCovector(3, 2, rng.normal(size=3))
    v = KVector(3, 2, rng.normal(size=3))
    assert abs(pair(xi, v)) <= xi.norm() * v.norm() + 1e-12


def _x(p):
    """The coefficients of x dy at the rows p."""
    return np.column_stack([np.zeros(len(p)), p[:, 0]])


def _x_dy():
    return FormField(2, 1, coeffs=_x, differential=lambda p: np.ones((len(p), 1)))


def test_numeric_differential_linear_exact():
    d = numeric_differential(_x_dy(), np.array([0.3, 0.7]), 1e-4)
    assert abs(d.coeffs[0] - 1.0) <= 1e-8


def test_numeric_differential_constant_is_zero():
    om = FormField(2, 1, coeffs=lambda p: np.tile([2.0, -1.0], (len(p), 1)))
    d = numeric_differential(om, np.array([0.1, 0.2]), 1e-5)
    assert np.allclose(d.coeffs, 0.0)


def _euler_contraction_oracle(xi_coeffs):
    """d((y - x0) -| xi) for constant 2-covector xi, by direct expansion.

    Writing xi = sum c_ij e*_i ^ e*_j, the contraction is
    sum c_ij [(y_i - a_i) e*_j - (y_j - a_j) e*_i] and applying d term by
    term gives  sum c_ij [e*_i ^ e*_j - e*_j ^ e*_i] = 2 xi.
    """
    return 2.0 * np.asarray(xi_coeffs)


def test_numeric_differential_of_contracted_translation_field():
    xi = KCovector(3, 2, [1.0, -2.0, 0.5])
    x0 = np.array([0.2, -0.1, 0.4])
    om = FormField(
        3, 1,
        coeffs=lambda p: np.array([interior_product(from_vector(KVector, q - x0), xi).coeffs
                                   for q in p]),
    )
    d = numeric_differential(om, np.array([0.5, 0.3, 0.9]), 1e-5)
    assert np.allclose(d.coeffs, _euler_contraction_oracle(xi.coeffs), atol=1e-8)


def test_numeric_differential_degree_one_contraction():
    # for a degree-1 constant covector the same construction returns xi itself
    xi = KCovector(2, 1, [1.5, -0.7])
    x0 = np.array([0.1, 0.9])

    om = FormField(2, 0, coeffs=lambda p: ((p - x0) @ xi.coeffs)[:, None])
    d = numeric_differential(om, np.array([0.4, 0.2]), 1e-5)
    assert np.allclose(d.coeffs, xi.coeffs, atol=1e-9)


def test_numeric_differential_respects_exceptional_set():
    from stokeslab.dyadic import ExceptionalSet

    om = FormField(2, 1, coeffs=_x, exceptional_set=ExceptionalSet.points([(0.5, 0.5)]))
    with pytest.raises(DomainError):
        numeric_differential(om, np.array([0.5, 0.5 + 1e-7]), 1e-5)


def _polynomial_form():
    # omega = yz dx + x^2 dy + xy dz; d omega = (2x - z) dxdy + 0 dxdz + x dydz
    return FormField(
        3, 1,
        coeffs=lambda p: np.column_stack([p[:, 1] * p[:, 2], p[:, 0] ** 2, p[:, 0] * p[:, 1]]),
        differential=lambda p: np.column_stack([2 * p[:, 0] - p[:, 2], np.zeros(len(p)),
                                                p[:, 0]]),
    )


def test_analytic_vs_numeric_on_random_points():
    om = _polynomial_form()
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-1, 1, 3)
        analytic = om.d(x)
        numeric = numeric_differential(om, x, 1e-5)
        bound = 1e-6 * (1.0 + float(np.linalg.norm(analytic.coeffs)))
        assert float(np.abs(analytic.coeffs - numeric.coeffs).max()) <= bound


def _ref_numeric_differential(omega, x, step):
    """The wedge-loop central difference that FormField.d_many replaced, kept as a reference."""
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
        hi, lo = omega.evaluate_many(np.stack([x + e, x - e]))
        partial = KCovector(n, k, (hi - lo) / (2.0 * step))
        term = wedge(KCovector.basis(n, (i,)), partial)
        out = term if out is None else out + term
    return out


def _random_field(n, k, rng):
    """A smooth field whose coefficients mix a sine and a square of random affine maps."""
    dim = len(forms.basis_tuples(n, k))
    a, b, c = rng.normal(size=(dim, n)), rng.normal(size=dim), rng.normal(size=(dim, n))
    return FormField(n, k, coeffs=lambda p: np.sin((p[:, None] * a).sum(-1) + b)
                     + (p[:, None] * c).sum(-1) ** 2)


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_d_many_keeps_the_bits_of_the_wedge_loop(n, k):
    rng = np.random.default_rng(10 * n + k)
    om = _random_field(n, k, rng)
    points = rng.uniform(-1.0, 1.0, (25, n))
    steps = rng.uniform(1e-6, 1e-4, len(points))
    for step in (steps, 1e-5):
        ref = np.array([_ref_numeric_differential(om, p, s).coeffs
                        for p, s in zip(points, np.broadcast_to(step, len(points)))])
        assert om.d_many(points, step).tobytes() == ref.tobytes()
        one = np.array([numeric_differential(om, p, s).coeffs
                        for p, s in zip(points, np.broadcast_to(step, len(points)))])
        assert one.tobytes() == ref.tobytes()


def test_d_many_of_a_top_degree_form_is_a_degree_error_like_the_wedge_loop():
    om = _random_field(2, 2, np.random.default_rng(0))
    with pytest.raises(DegreeError):
        _ref_numeric_differential(om, np.array([0.1, 0.2]), 1e-5)
    with pytest.raises(DegreeError):
        om.d_many(np.array([[0.1, 0.2]]))


def test_d_many_checks_each_point_against_its_own_step():
    from stokeslab.dyadic import ExceptionalSet

    om = FormField(2, 1, coeffs=_x, exceptional_set=ExceptionalSet.points([(0.5, 0.5)]))
    points = np.array([[0.1, 0.1], [0.5, 0.5 + 3e-5]])
    np.testing.assert_allclose(om.d_many(points, [1e-5, 1e-5]), [[1.0], [1.0]], atol=1e-9)
    with pytest.raises(DomainError):
        om.d_many(points, [1e-5, 1e-4])


def test_d_many_and_d_read_the_analytic_differential_of_the_points():
    om = _polynomial_form()
    points = np.random.default_rng(4).uniform(-1, 1, (7, 3))
    assert om.d_many(points).tobytes() == om.differential(points).tobytes()
    one = np.array([om.d(p).coeffs for p in points])
    assert one.tobytes() == om.differential(points).tobytes()
    assert om.d_many(np.empty((0, 3))).shape == (0, 3)
