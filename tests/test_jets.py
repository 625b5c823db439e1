import numpy as np
import pytest
from hypothesis import given, strategies as st

from osclab import expr as ex
from osclab.jets import (
    DegreeMismatch,
    Jet,
    JetDomainError,
    default_degree,
    jet_eval_expr,
)
from oracles import taylor_by_diff


def test_truncated_square():
    a = Jet([1.0, 1.0, 0.0])
    assert np.array_equal((a * a).coeffs, [1.0, 2.0, 1.0])


def test_mul_truncates():
    t = Jet([0.0, 1.0])
    assert np.array_equal((t * t).coeffs, [0.0, 0.0])


def test_sub_cancels():
    a = Jet([1.0, 1.0, 0.5])
    assert np.array_equal((a - a).coeffs, [0.0, 0.0, 0.0])


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Jet([1.0, 2.0]) + Jet([1.0, 2.0, 3.0])
    with pytest.raises(DegreeMismatch):
        jet_eval_expr(ex.parse("x + y"), {"x": Jet.variable(2), "y": Jet.variable(3)})
    with pytest.raises(DegreeMismatch):
        jet_eval_expr(ex.parse("x"), {"x": Jet.variable(3)}, degree=4)


def test_expr_environment_errors():
    with pytest.raises(ex.UnboundVariable):
        jet_eval_expr(ex.parse("x + y"), {"x": Jet.variable(3)})
    with pytest.raises(ValueError):
        jet_eval_expr(ex.parse("2*3"), {})
    out = jet_eval_expr(ex.parse("2*3"), {}, degree=2)
    assert np.array_equal(out.coeffs, [6.0, 0.0, 0.0])


def test_expr_square_of_t():
    out = jet_eval_expr(ex.parse("x^2"), {"x": Jet.variable(3)})
    assert np.array_equal(out.coeffs, [0.0, 0.0, 1.0, 0.0])


def test_expr_sin_of_t():
    out = jet_eval_expr(ex.parse("sin(x)"), {"x": Jet.variable(3)})
    assert np.allclose(out.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)


def test_quotient_zero_constant_term():
    with pytest.raises(JetDomainError):
        jet_eval_expr(ex.parse("1/x"), {"x": Jet.variable(3)})
    with pytest.raises(JetDomainError):
        jet_eval_expr(ex.parse("sqrt(x)"), {"x": Jet.variable(3)})


def test_default_degree_guard():
    assert default_degree(1, 2) == 5
    assert default_degree(2, 2) == 8


def test_derivatives_are_factorial_scaled():
    j = jet_eval_expr(ex.parse("exp(x)"), {"x": Jet.variable(4)})
    for order in range(5):
        assert j.derivative_at_zero(order) == pytest.approx(1.0, rel=1e-12)


def test_polynomial_coefficients_match_symbolic_diff():
    rng = np.random.default_rng(99)
    degree = 6
    for _ in range(40):
        coeffs = rng.integers(-3, 4, size=5).astype(float)
        e = ex.parse(" + ".join(f"{c}*x^{p}" for p, c in enumerate(coeffs)))
        a = float(rng.uniform(-1.5, 1.5))
        shifted = jet_eval_expr(
            e, {"x": Jet(np.array([a, 1.0] + [0.0] * (degree - 1)))})
        oracle = taylor_by_diff(e, "x", a, degree)
        assert np.allclose(shifted.coeffs, oracle, rtol=1e-12, atol=1e-12)


def test_analytic_composition_matches_symbolic_diff():
    e = ex.parse("exp(sin(x)) / (2 + x^2) + sqrt(1 + x^2)")
    a = 0.37
    degree = 6
    jet = jet_eval_expr(e, {"x": Jet(np.array([a, 1.0] + [0.0] * (degree - 1)))})
    oracle = taylor_by_diff(e, "x", a, degree)
    assert np.allclose(jet.coeffs, oracle, rtol=1e-10, atol=1e-12)


_coeffs = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=5, max_size=5)


@given(_coeffs, _coeffs, _coeffs)
def test_mul_associative_commutative(a, b, c):
    ja, jb, jc = Jet(a), Jet(b), Jet(c)
    left = ((ja * jb) * jc).coeffs
    right = (ja * (jb * jc)).coeffs
    scale = max(1.0, np.max(np.abs(left)))
    assert np.all(np.abs(left - right) <= 1e-13 * scale)
    assert np.all(np.abs((ja * jb).coeffs - (jb * ja).coeffs) <= 1e-13 * scale)


@given(_coeffs, _coeffs)
def test_ring_identities(a, b):
    ja, jb = Jet(a), Jet(b)
    zero = Jet.constant(0.0, 4)
    one = Jet.constant(1.0, 4)
    assert np.array_equal((ja + zero).coeffs, ja.coeffs)
    assert np.array_equal((ja * one).coeffs, ja.coeffs)
    assert np.array_equal((ja + jb).coeffs, (jb + ja).coeffs)


def test_division_roundtrip():
    a = Jet([0.5, -1.0, 2.0, 0.25])
    b = Jet([2.0, 0.3, -0.7, 1.0])
    q = a / b
    assert np.allclose((q * b).coeffs, a.coeffs, rtol=1e-13, atol=1e-14)
