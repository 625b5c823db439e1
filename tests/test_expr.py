from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from osclab import corpus
from osclab import expr as ex


def test_parse_product_structure():
    assert ex.parse("x*y") == ex.Mul(ex.Var("x"), ex.Var("y"))


def test_constant_power_evaluates():
    assert ex.evaluate(ex.parse("2^3"), {}) == 8.0


def test_syntax_error_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x*(")
    assert err.value.offset == 3


def test_unknown_function():
    with pytest.raises(ex.ParseError):
        ex.parse("tan(x)")


def test_precedence():
    assert ex.evaluate(ex.parse("2 + 3*4"), {}) == 14.0
    assert ex.evaluate(ex.parse("2*3^2"), {}) == 18.0
    # '^' binds tighter than unary minus
    assert ex.evaluate(ex.parse("-x^2"), {"x": 2.0}) == -4.0
    # unary minus binds tighter than '*'
    assert ex.parse("-x*y") == ex.Mul(ex.Neg(ex.Var("x")), ex.Var("y"))
    assert ex.evaluate(ex.parse("1 - 2 + 3"), {}) == 2.0


def test_power_chain_is_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("x^2^3")


def test_fractional_exponent_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("x^2.5")


def test_number_formats():
    assert ex.evaluate(ex.parse("1.5e-3 + .5 + 2."), {}) == pytest.approx(2.5015)


def test_diff_examples():
    assert ex.diff(ex.parse("x*y"), "x") == ex.Var("y")
    assert ex.to_string(ex.diff(ex.parse("sin(x)"), "x")) == "cos(x)"
    assert ex.diff(ex.parse("3"), "x") == ex.Const(0.0)


def test_diff_quotient_by_a_constant():
    # d(u/c)/dv = u'/c for a denominator free of v: no c/c^2 to round
    d = ex.diff(ex.parse("x*y/3"), "x")
    assert d == ex.Div(ex.Var("y"), ex.Const(3.0))
    assert ex.evaluate(d, {"y": 0.1}) == 0.1 / 3


def test_diff_quotient_and_sqrt():
    d = ex.diff(ex.parse("1/x"), "x")
    assert ex.evaluate(d, {"x": 2.0}) == pytest.approx(-0.25)
    d = ex.diff(ex.parse("sqrt(x)"), "x")
    assert ex.evaluate(d, {"x": 4.0}) == pytest.approx(0.25)


def test_eval_examples():
    assert ex.evaluate(ex.parse("x*y"), {"x": 2.0, "y": 3.0}) == 6.0
    assert ex.evaluate(ex.parse("sqrt(x)"), {"x": 4.0}) == 2.0
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("1/x"), {"x": 0.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("sqrt(x)"), {"x": -1.0})
    with pytest.raises(ex.UnboundVariable):
        ex.evaluate(ex.parse("x + y"), {"x": 1.0})
    xs = {"x": np.array([1.0, 0.0])}
    with pytest.raises(ex.DomainError):
        ex.evaluate_many([ex.parse("x"), ex.parse("1/x")], xs, (2,))
    with pytest.raises(ex.DomainError):
        ex.evaluate_many([ex.parse("sqrt(x - 1)")], xs, (2,))
    with pytest.raises(ex.UnboundVariable):
        ex.evaluate_many([ex.parse("x + y")], xs, (2,))


def test_eval_broadcasts_arrays():
    v = ex.evaluate(ex.parse("x^2 + 1"), {"x": np.array([1.0, 2.0, 3.0])})
    assert np.allclose(v, [2.0, 5.0, 10.0])
    exprs = [ex.parse(s) for s in ("0", "x^2 + 1", "1")]
    X = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 4.0]])
    out = ex.evaluate_many(exprs, {"x": X}, X.shape)
    assert out.shape == (2, 3, 3)
    assert np.array_equal(out[..., 0], np.zeros_like(X))
    assert np.array_equal(out[..., 1], X**2 + 1)
    assert np.array_equal(out[..., 2], np.ones_like(X))
    assert np.array_equal(ex.evaluate_many(exprs, {"x": 2.0}, ()), [0.0, 5.0, 1.0])


# -- random finite-difference agreement -------------------------------------


def _random_expr(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.6:
            return ex.Var("x")
        return ex.Const(round(rng.uniform(-2.0, 2.0), 3))
    if roll < 0.45:
        return ex.Add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if roll < 0.65:
        return ex.Mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if roll < 0.75:
        # keep denominators away from zero
        return ex.Div(_random_expr(rng, depth - 1),
                      ex.Add(ex.Const(2.0), ex.Pow(ex.Var("x"), 2)))
    if roll < 0.83:
        return ex.Pow(_random_expr(rng, depth - 1), int(rng.integers(0, 4)))
    func = ("sin", "cos", "exp", "sqrt")[rng.integers(0, 4)]
    inner = _random_expr(rng, depth - 1)
    if func == "sqrt":
        inner = ex.Add(ex.Const(1.5), ex.Mul(ex.Call("sin", inner), ex.Const(1.0)))
    if func == "exp":
        inner = ex.Call("sin", inner)
    return ex.Call(func, inner)


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 100:
        e = _random_expr(rng, 3)
        a = float(rng.uniform(0.2, 1.8))
        d = ex.diff(e, "x")
        try:
            exact = ex.evaluate(d, {"x": a})
            h = 1e-6 * (1.0 + abs(a))
            fd = (ex.evaluate(e, {"x": a + h}) - ex.evaluate(e, {"x": a - h})) / (2 * h)
        except ex.DomainError:
            continue
        if not np.isfinite(exact) or not np.isfinite(fd) or abs(exact) > 1e3:
            continue
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact)), ex.to_string(e)
        checked += 1


# -- pretty-print round trip -------------------------------------------------

_exprs = st.deferred(
    lambda: st.one_of(
        st.floats(min_value=-5, max_value=5, allow_nan=False).map(
            lambda v: ex.Const(round(v, 4))),
        st.sampled_from(["x", "y", "z"]).map(ex.Var),
        st.tuples(_exprs, _exprs).map(lambda p: ex.Add(*p)),
        st.tuples(_exprs, _exprs).map(lambda p: ex.Mul(*p)),
        st.tuples(_exprs, _exprs).map(lambda p: ex.Div(*p)),
        st.tuples(_exprs, st.integers(0, 4)).map(lambda p: ex.Pow(*p)),
        _exprs.map(ex.Neg),
        st.tuples(st.sampled_from(ex.FUNCTIONS), _exprs).map(
            lambda p: ex.Call(*p)),
    )
)


# a negative constant prints with a leading '-': as a power base it needs
# parentheses (-2^2 parses as -(2^2)), and a + (-1) prints as a - 1
_NEGATIVE_CONSTANTS = (ex.Pow(ex.Const(-2.0), 2), ex.Add(ex.Var("x"), ex.Const(-1.0)))


@given(_exprs)
@example(_NEGATIVE_CONSTANTS[0])
@example(_NEGATIVE_CONSTANTS[1])
def test_print_parse_print_fixed_point(e):
    s1 = ex.to_string(e)
    s2 = ex.to_string(ex.parse(s1))
    assert s1 == s2
    assert ex.to_string(ex.parse(s2)) == s2


@given(_exprs)
@example(_NEGATIVE_CONSTANTS[0])
@example(_NEGATIVE_CONSTANTS[1])
def test_reparse_preserves_value(e):
    back = ex.parse(ex.to_string(e))
    env = {"x": 0.73, "y": -0.41, "z": 1.21}
    try:
        v1 = ex.evaluate(e, env)
    except ex.DomainError:
        return
    v2 = ex.evaluate(back, env)
    if np.isfinite(v1):
        assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12)


# -- interval enclosure ------------------------------------------------------

_unit = st.integers(0, 1000).map(lambda k: k / 1000)


def _sub_box(box, corner, width):
    """The sub-box of `box` whose lower corner and widths are the given
    fractions of the room left on each axis."""
    a, b = box[:, 0], box[:, 1]
    lo = a + (b - a) * np.asarray(corner[: len(box)])
    return lo, lo + (b - lo) * np.asarray(width[: len(box)])


def _assert_encloses(e, names, lo, hi, X):
    box = {v: ex.Interval(lo[i], hi[i]) for i, v in enumerate(names)}
    bound = ex.evaluate_with(e, box, ex.INTERVALS)
    with np.errstate(all="ignore"):
        vals = ex.evaluate(e, {v: X[:, i] for i, v in enumerate(names)})
    vals = np.broadcast_to(vals, X.shape[:1])
    finite = np.isfinite(vals)
    assert np.all(bound.lo <= vals[finite]) and np.all(vals[finite] <= bound.hi), \
        ex.to_string(e)


@pytest.fixture(scope="module")
def corpus_charts():
    return [corpus.load(name).manifold for name in corpus.names()]


@given(corner=st.tuples(_unit, _unit), width=st.tuples(_unit, _unit),
       seed=st.integers(0, 2**16))
def test_interval_encloses_corpus_charts(corpus_charts, corner, width, seed):
    rng = np.random.default_rng(seed)
    for M in corpus_charts:
        lo, hi = _sub_box(M.box, corner, width)
        X = np.concatenate([[lo, hi], rng.uniform(lo, hi, size=(62, M.m))])
        for e in M.components + M.jac_exprs:
            _assert_encloses(e, M.chart_vars, lo, hi, X)


@given(e=_exprs, corner=st.tuples(_unit, _unit, _unit),
       width=st.tuples(_unit, _unit, _unit), seed=st.integers(0, 2**16))
def test_interval_encloses_random_expressions(e, corner, width, seed):
    lo, hi = _sub_box(np.array([[-2.0, 2.0]] * 3), corner, width)
    X = np.concatenate([[lo, hi], np.random.default_rng(seed).uniform(lo, hi, size=(30, 3))])
    try:
        _assert_encloses(e, ("x", "y", "z"), lo, hi, X)
    except ex.DomainError:
        pass  # the float evaluation met a quotient by 0 or a negative sqrt


def test_interval_rounding_and_domain_errors():
    # the exact sum and product of the doubles 0.1 and 0.2 lie strictly
    # between the doubles nearest to them, so round-to-nearest alone misses them
    a, b = ex.Interval(0.1), ex.Interval(0.2)
    for bound, exact in ((a + b, Fraction(0.1) + Fraction(0.2)),
                         (a * b, Fraction(0.1) * Fraction(0.2)),
                         (a - b, Fraction(0.1) - Fraction(0.2))):
        assert Fraction(float(bound.lo)) < exact < Fraction(float(bound.hi))
    x = ex.Interval(-1.0, 0.5)
    sq = ex.evaluate_with(ex.parse("x^2"), {"x": x}, ex.INTERVALS)
    assert sq.lo == 0.0 and 1.0 <= sq.hi < 1.0 + 1e-15
    assert ex.evaluate_with(ex.parse("x^0"), {"x": x}, ex.INTERVALS).lo == 1.0
    # a quotient by an interval containing 0, or a sqrt reaching below 0,
    # is the entire line in its own row; the other row keeps its bound
    up, down = np.nextafter(2.0, np.inf), np.nextafter(1.0, -np.inf)
    for text, x in (("1/x", ex.Interval([-1.0, 0.5], [1.0, 1.0])),
                    ("sqrt(x)", ex.Interval([-1.0, 1.0], [0.0, 4.0]))):
        bound = ex.evaluate_with(ex.parse(text), {"x": x}, ex.INTERVALS)
        assert bound.lo[0] == -np.inf and bound.hi[0] == np.inf, text
        assert bound.lo[1] == down and bound.hi[1] == up, text


def test_roundtrip_fixed_point_on_scene_strings():
    for text in ["x*y", "sqrt(1 - x^2 - y^2)", "-x/sqrt(1 - x^2 - y^2)",
                 "2*x - 2*y", "x^2 - y^3", "sin(u + t)", "1 - 2 + 3",
                 "-(x + y)^2/(1 + x^2)"]:
        s1 = ex.to_string(ex.parse(text))
        assert ex.to_string(ex.parse(s1)) == s1


def test_negative_exponent_rejected():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x^-2")
    assert err.value.offset == 2


@pytest.mark.parametrize("text, message, offset", [
    (".", "malformed number", 0),
    ("x + .", "malformed number", 4),
    # a mantissa needs a digit, before or after the point
    (".e3", "malformed number", 0),
    (".E-2", "malformed number", 0),
    ("1+.e3", "malformed number", 2),
    ("(x", "expected ')'", 2),
    # str.isdigit takes these, and float() and int() refuse them
    ("\u00b2", "expected a number, variable, function call or '('", 0),
    ("x^\u00b2", "expected nonnegative integer exponent", 2),
    ("\u0663", "expected a number, variable, function call or '('", 0),
])
def test_parse_errors_name_their_offset(text, message, offset):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(text)
    assert str(err.value) == f"{message} at offset {offset}"
    assert err.value.offset == offset


@pytest.mark.parametrize("build, message", [
    (lambda: ex.power(ex.Var("x"), -1), "power exponents must be nonnegative"),
    (lambda: ex.call("tan", ex.Var("x")), "unknown function 'tan'"),
])
def test_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_number_then_identifier_is_trailing_garbage():
    with pytest.raises(ex.ParseError):
        ex.parse("2e")


# -- the exact ring ------------------------------------------------------------

_GENERATORS = {v: ex.Poly.generator(v) for v in ("x", "y", "t")}


def _exact(text: str) -> ex.Poly:
    return ex.evaluate_with(ex.parse(text), _GENERATORS, ex.EXACT)


def _poly_value(p: ex.Poly, env: dict) -> tuple[float, float]:
    """The float value of an exact polynomial, each variable taken from env
    and each atom its function at its argument's value, and the sum of the
    magnitudes of its terms."""

    def generator(key):
        if isinstance(key, str):
            return env[key]
        func, arg = key
        return getattr(np, func)(_poly_value(ex.Poly(dict(arg)), env)[0])

    terms = [float(c) * float(np.prod([generator(g) ** e for g, e in mono]))
             for mono, c in p.terms.items()]
    return sum(terms), sum(abs(v) for v in terms)


def test_exact_constants_are_the_doubles():
    assert _exact("0.1").terms == {frozenset(): Fraction(0.1)}
    assert Fraction(0.1) != Fraction(1, 10)
    assert _exact("0").is_zero() and _exact("x - x").is_zero()


def test_exact_quotient_by_a_constant_only():
    assert _exact("(x*y + t)/3 - x*y/3 - t/3").is_zero()
    assert _exact("x/0.25 - 4*x").is_zero()
    # 1/0.1 is not the double 10
    assert _exact("x/0.1 - 10*x").terms == {
        frozenset({("x", 1)}): 1 / Fraction(0.1) - 10}
    # a constant that overflows the double has no exact value either
    for text in ("1/x", "x/(1 + t)", "x/0", "x/(y - y)", "sqrt(x)", "sqrt(4)",
                 "1e400*x", "x*(1e400 - 1e400)"):
        with pytest.raises(ex.DomainError):
            _exact(text)


def test_constructors_fold_only_identities():
    x, zero, one = ex.Var("x"), ex.Const(0.0), ex.Const(1.0)
    two, three = ex.Const(2.0), ex.Const(3.0)
    # two constants stay two nodes: a folded double would round
    assert ex.add(two, three) == ex.Add(two, three)
    assert ex.mul(two, three) == ex.Mul(two, three)
    assert ex.div(two, three) == ex.Div(two, three)
    assert ex.power(two, 3) == ex.Pow(two, 3)
    # a 0 or 1 operand, an exponent 0 or 1, and a sign flip never round
    assert ex.add(zero, three) is three and ex.add(three, zero) is three
    assert ex.mul(zero, x) == zero and ex.mul(x, zero) == zero
    assert ex.mul(one, three) is three and ex.mul(three, one) is three
    assert ex.div(zero, three) == zero and ex.div(three, one) is three
    assert ex.div(zero, zero) == ex.Div(zero, zero)
    assert ex.power(x, 0) == one and ex.power(three, 1) is three
    assert ex.neg(three) == ex.Const(-3.0)


def test_diff_keeps_constant_quotients_exact():
    # d(x/1000)/dx is 1/1000 in the exact ring, not the double 0.001
    d = ex.diff(ex.parse("x/1000"), "x")
    assert ex.evaluate_with(d, {}, ex.EXACT).terms == {frozenset(): Fraction(1, 1000)}
    assert ex.evaluate(d, {}) == 0.001
    # a height rescaled by 1000 keeps its exact partials: y/1000 here
    d = ex.diff(ex.parse("1000*((x/1000)*(y/1000))"), "x")
    assert ex.evaluate_with(d, _GENERATORS, ex.EXACT).terms == {
        frozenset({("y", 1)}): Fraction(1, 1000)}


def test_exact_atoms_are_free_generators():
    # equal arguments give one atom, whatever the order of their terms
    assert _exact("sin(x + t)*cos(t + x) - cos(x + t)*sin(x + t)").is_zero()
    assert _exact("exp(2*x)^2 - exp(x*2)*exp(2*x)").is_zero()
    # the ring knows no identity between atoms: these are not certified zero
    assert not _exact("sin(x)^2 + cos(x)^2 - 1").is_zero()
    assert not _exact("exp(x)*exp(y) - exp(x + y)").is_zero()
    assert not _exact("sin(x) - sin(y)").is_zero()


def test_exact_ring_matches_floats_on_random_expressions():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        e = _random_expr(rng, 3)
        a = float(rng.uniform(0.2, 1.8))
        try:
            p = ex.evaluate_with(e, _GENERATORS, ex.EXACT)
        except ex.DomainError:
            continue  # a sqrt or a quotient by 2 + x^2
        value, size = _poly_value(p, {"x": a})
        assert value == pytest.approx(ex.evaluate(e, {"x": a}), rel=1e-9,
                                      abs=1e-12 * (1.0 + size)), ex.to_string(e)
        checked += 1
