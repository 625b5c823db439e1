import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

from osclab import expr as ex
from osclab.jets import (
    DegreeMismatch,
    Jet,
    JetDomainError,
    default_degree,
    jet_div,
    jet_eval_expr,
    jet_exp,
    jet_pow,
    jet_sin_cos,
    jet_sqrt,
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


# -- batched jets: (B, D+1) coefficients, one jet per row ---------------------

_UNARY = {
    "neg": lambda u: -u,
    "scale": lambda u: 2.5 * u,
    "pow3": lambda u: jet_pow(u, 3),
    "exp": jet_exp,
    "sin": lambda u: jet_sin_cos(u)[0],
    "cos": lambda u: jet_sin_cos(u)[1],
    "sqrt": jet_sqrt,
}
_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": jet_div,
}


@st.composite
def _stacks(draw):
    """Two (B, D+1) coefficient stacks; the second has constant terms in
    [0.5, 3], so quotients by it and square roots of it are defined."""
    rows = draw(st.integers(1, 5))
    size = draw(st.integers(1, 7))
    entry = st.floats(min_value=-3, max_value=3, allow_nan=False)
    a = draw(st.lists(entry, min_size=rows * size, max_size=rows * size))
    b = draw(st.lists(entry, min_size=rows * size, max_size=rows * size))
    lead = draw(st.lists(st.floats(0.5, 3.0), min_size=rows, max_size=rows))
    a = np.reshape(a, (rows, size))
    b = np.reshape(b, (rows, size))
    b[:, 0] = lead
    return a, b


def _assert_rowwise(batched: Jet, rows: list[Jet]):
    assert batched.coeffs.shape == (len(rows), rows[0].degree + 1)
    for got, want in zip(batched.coeffs, rows):
        assert np.all(np.abs(got - want.coeffs)
                      <= 1e-14 * max(1.0, np.max(np.abs(want.coeffs))))


@given(_stacks())
def test_batched_jets_match_rows(stacks):
    a, b = stacks
    for op in _UNARY.values():
        _assert_rowwise(op(Jet(b)), [op(Jet(row)) for row in b])
    for op in _BINARY.values():
        _assert_rowwise(op(Jet(a), Jet(b)), [op(Jet(x), Jet(y)) for x, y in zip(a, b)])
        # a 1-d jet broadcasts against every row
        _assert_rowwise(op(Jet(a), Jet(b[0])), [op(Jet(x), Jet(b[0])) for x in a])


@given(_stacks())
def test_batched_expression_matches_rows(stacks):
    a, b = stacks
    e = ex.parse("exp(sin(x)) / (2 + x^2) + sqrt(y) * x - 3*y^2")
    batched = jet_eval_expr(e, {"x": Jet(a), "y": Jet(b)})
    _assert_rowwise(batched, [jet_eval_expr(e, {"x": Jet(x), "y": Jet(y)})
                              for x, y in zip(a, b)])


@given(_stacks())
def test_product_matches_convolution(stacks):
    # the reference product is np.convolve, truncated; the two sum the same
    # terms in different orders, so they agree to the rounding bound
    a, b = stacks
    got = (Jet(a) * Jet(b)).coeffs
    size = a.shape[1]
    for x, y, row in zip(a, b, got):
        with np.errstate(under="ignore"):   # the bound of a tiny term
            bound = 2 * size * np.finfo(float).eps * np.convolve(abs(x), abs(y))[:size]
        assert np.all(np.abs(row - np.convolve(x, y)[:size]) <= bound)


def test_batched_domain_error_on_any_row():
    good = np.array([[1.0, 2.0, 0.5], [2.0, -1.0, 0.0], [0.5, 0.0, 1.0]])
    for bad_row in range(3):
        den = good.copy()
        den[bad_row, 0] = 0.0
        with pytest.raises(JetDomainError):
            jet_div(Jet(good), Jet(den))
        with pytest.raises(JetDomainError):
            jet_sqrt(Jet(den))
    negative = good.copy()
    negative[1, 0] = -1.0
    with pytest.raises(JetDomainError):
        jet_sqrt(Jet(negative))


def test_batched_degree_mismatch():
    a = Jet(np.ones((3, 4)))
    for b in (Jet(np.ones((3, 5))), Jet(np.ones(5))):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(DegreeMismatch):
                op(a, b)


def test_jet_needs_a_nonempty_last_axis():
    with pytest.raises(ValueError):
        Jet(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        Jet(1.0)


@given(st.integers(150, 300), st.integers(150, 300))
def test_underflowing_coefficients_raise_no_warning(p, q):
    # products of coefficients near 1e-300 underflow; the suite turns any
    # RuntimeWarning into an error
    a = Jet(np.full((2, 5), 10.0 ** -p))
    b = Jet(np.full((2, 5), 10.0 ** -q))
    assert np.all(np.isfinite((a * b).coeffs))
    assert np.all(np.isfinite(jet_pow(a, 3).coeffs))
    one = Jet(np.ones(5))
    assert np.all(np.isfinite(jet_div(a, one + b).coeffs))
    assert np.all(np.isfinite(jet_sqrt(one + a).coeffs))
