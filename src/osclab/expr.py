"""Symbolic expressions over named real variables.

Every geometric object in a scene (chart maps, height functions, sweep
fields, reparametrizations) is an expression tree built from this module.
The grammar is deliberately tiny:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' nonneg-integer)?
    base   := number | identifier | identifier '(' expr ')' | '(' expr ')'

Functions: sin, cos, exp, sqrt.  Numbers are decimal literals of ASCII
digits, with a digit before or after the point, and an optional exponent.
'^' binds tighter than unary minus, which binds tighter than '*'/'/';
'+'/'-' bind loosest.  Exponents are nonnegative integer literals, so
reciprocal powers are written with '/'.

Trees are immutable; parse/diff/evaluate are pure functions. One tree
walker, `evaluate_with`, evaluates every kind of value: it applies +, -
and * itself and takes constants, quotients, powers and sin/cos/exp/sqrt
from an `Arithmetic`. `evaluate` and `evaluate_many` run it on floats and
numpy arrays (broadcasting), `jets.jet_eval_expr` runs it on truncated
Taylor series, and `INTERVALS` runs it on `Interval`s: outward-rounded
bounds that enclose the float values over boxes of the variables, which
the manifold projection uses to screen its seed cells and a graph's reach
bound uses for its Hessian bound. Where the float
evaluation raises DomainError (a quotient by 0, a sqrt below 0), an
interval row gets the entire line, so one stacked pass bounds every box.

A fourth arithmetic, `EXACT`, runs the walker over `Poly`, sparse
polynomials with `fractions.Fraction` coefficients, which a sweep's
zero-volume certificate reads. Constants are the exact rational values of
the doubles (an inf or nan constant has none and raises DomainError); a
quotient is allowed only by a nonzero constant, and sqrt or any other
quotient raises DomainError. sin, cos and exp each give an atom:
a fresh free generator keyed by the function and the canonical form of its
exact argument, so equal arguments give one atom. The argument is sound one
way only. A polynomial that is zero in free generators is zero for every
value of them, the true values of the atoms included, so a zero result
proves the expression zero wherever it is defined. A nonzero result proves
nothing, since the ring knows no relation between atoms (sin(x)^2 +
cos(x)^2 - 1 stays nonzero), and the caller then falls back to floats.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "sqrt")

#: chart variables may never shadow the time variable
TIME_VAR = "t"

#: a number literal: a mantissa with at least one digit, and an exponent
#: only where digits follow it ("2e" is the number 2 and the identifier e);
#: ASCII, since str.isdigit also takes "²" and "٣"
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
#: the nonnegative integer literal after '^'
_INTEGER = re.compile(r"\d+", re.ASCII)


class NumericalError(Exception):
    """The base of every failure that a valid scene can meet: an expression
    left its domain, a projection did not converge, a flow left the box, and
    so on. `verify` records one at the step that raises it; the other
    commands exit 2 on it. Errors in the input (ParseError here, SceneError,
    the CLI's UsageError) are not numerical."""


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class DomainError(NumericalError):
    """Division by zero, or an elementary function left its domain."""


class UnboundVariable(NumericalError):
    pass


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# smart constructors: they eliminate identities (0 and 1 operands, exponents
# 0 and 1) and never round, so two constants stay two nodes and every ring
# evaluates their operation itself


def const(x) -> Const:
    return Const(float(x))


def var(name: str) -> Var:
    return Var(name)


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def power(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent < 0:
        raise ValueError("power exponents must be nonnegative")
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    return Pow(base, exponent)


def call(func: str, arg: Expr) -> Expr:
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    return Call(func, arg)


# ---------------------------------------------------------------------------
# parsing


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def scan(self, literal: re.Pattern, message: str) -> str:
        """The literal that starts at the next non-space character; else a
        ParseError with `message` there."""
        self.skip_ws()
        match = literal.match(self.text, self.pos)
        if not match:
            self.error(message)
        self.pos = match.end()
        return match.group()

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                e = Add(e, self.term())
            elif c == "-":
                self.pos += 1
                e = Add(e, Neg(self.term()))
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = Mul(e, self.factor())
            elif c == "/":
                self.pos += 1
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self.accept("-"):
            return Neg(self.factor())
        e = self.base()
        if self.peek() == "^":
            self.pos += 1
            digits = self.scan(_INTEGER, "expected nonnegative integer exponent")
            try:
                e = Pow(e, int(digits))
            except ValueError:          # int() refuses more than 4300 digits
                raise ParseError("exponent literal too long", self.pos - len(digits)) from None
        return e

    def base(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c == "." or "0" <= c <= "9":
            return Const(float(self.scan(_NUMBER, "malformed number")))
        if c.isalpha() or c == "_":
            return self.identifier()
        self.error("expected a number, variable, function call or '('")

    def identifier(self) -> Expr:
        self.skip_ws()
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start : self.pos]
        if self.peek() == "(":
            if name not in FUNCTIONS:
                self.pos = start
                self.error(f"unknown function {name!r}")
            self.pos += 1
            arg = self.expr()
            self.expect(")")
            return Call(name, arg)
        return Var(name)


def parse(text: str) -> Expr:
    """Parse an expression string. Raises ParseError with a byte offset."""
    return _Parser(text).parse()


def as_exprs(items) -> list[Expr]:
    """The items as expressions: each string parsed, each Expr kept."""
    return [parse(e) if isinstance(e, str) else e for e in items]


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, v: str) -> Expr:
    """Exact symbolic partial derivative of `e` with respect to variable `v`."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == v else 0.0)
    if isinstance(e, Add):
        return add(diff(e.left, v), diff(e.right, v))
    if isinstance(e, Neg):
        return neg(diff(e.arg, v))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, v), e.right), mul(e.left, diff(e.right, v)))
    if isinstance(e, Div):
        if v not in variables(e.den):
            return div(diff(e.num, v), e.den)
        num = sub(mul(diff(e.num, v), e.den), mul(e.num, diff(e.den, v)))
        return div(num, power(e.den, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        inner = diff(e.base, v)
        return mul(mul(Const(float(e.exponent)), power(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        u, du = e.arg, diff(e.arg, v)
        if e.func == "sin":
            return mul(call("cos", u), du)
        if e.func == "cos":
            return neg(mul(call("sin", u), du))
        if e.func == "exp":
            return mul(call("exp", u), du)
        if e.func == "sqrt":
            return div(du, mul(Const(2.0), call("sqrt", u)))
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation


class Arithmetic:
    """The operations of float and numpy-array evaluation that the walker
    does not apply directly; jets.JetArithmetic supplies its own."""

    def const(self, value: float):
        return value

    def div(self, num, den):
        if np.any(np.asarray(den) == 0.0):
            raise DomainError("division by zero")
        return num / den

    def pow(self, base, exponent: int):
        return base**exponent

    sin = staticmethod(np.sin)
    cos = staticmethod(np.cos)
    exp = staticmethod(np.exp)

    def sqrt(self, u):
        if np.any(np.asarray(u) < 0.0):
            raise DomainError("sqrt of a negative value")
        return np.sqrt(u)


FLOATS = Arithmetic()


#: interval bounds may overflow to +-inf and meet inf - inf or 0 * inf;
#: rounding 0 outward gives a subnormal
_QUIET = {"over": "ignore", "invalid": "ignore", "under": "ignore"}


def _outward(lo, hi) -> "Interval":
    """[lo, hi] widened by one ulp at each end; a NaN bound widens to inf."""
    with np.errstate(**_QUIET):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return Interval(np.where(np.isnan(lo), -np.inf, lo), np.where(np.isnan(hi), np.inf, hi))


def _hull(*ends) -> "Interval":
    """The outward-rounded span of candidate end values."""
    return _outward(reduce(np.minimum, ends), reduce(np.maximum, ends))


class Interval:
    """Elementwise closed intervals [lo, hi] of floats or numpy arrays.

    +, - and * round each bound outward by one ulp, so the result encloses
    the exact result for every choice of real values inside the operands;
    IntervalArithmetic supplies the rest of the evaluator's operations, and
    its constants are Intervals, so every variable is bound to one too.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = self.lo if hi is None else np.asarray(hi, dtype=float)

    def __add__(self, other):
        with np.errstate(**_QUIET):
            return _outward(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        with np.errstate(**_QUIET):
            return _hull(self.lo * other.lo, self.lo * other.hi,
                         self.hi * other.lo, self.hi * other.hi)

    def magnitude(self):
        """max |v| over the interval, elementwise."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))


def _unbounded_where(rows, bound: Interval) -> Interval:
    """`bound` with the entire line [-inf, inf] in the given rows."""
    return Interval(np.where(rows, -np.inf, bound.lo), np.where(rows, np.inf, bound.hi))


class IntervalArithmetic(Arithmetic):
    """Interval evaluation: every result encloses the float function's
    values over the variables' intervals, wherever they are defined. The
    bounds are total: in the rows where a quotient's denominator interval
    contains 0, or a sqrt's interval reaches below 0, the result is the
    entire line [-inf, inf], and every other row keeps its finite bound."""

    def const(self, value: float):
        return Interval(value)

    def div(self, num, den):
        with np.errstate(divide="ignore", **_QUIET):
            hull = _hull(num.lo / den.lo, num.lo / den.hi,
                         num.hi / den.lo, num.hi / den.hi)
        return _unbounded_where((den.lo <= 0.0) & (den.hi >= 0.0), hull)

    def pow(self, base, exponent: int):
        # an even power is the power of |base|, which is nonnegative; an odd
        # one is that times base
        if exponent <= 1:
            return Interval(np.ones(np.shape(base.lo))) if exponent == 0 else base
        straddles = (base.lo < 0.0) & (base.hi > 0.0)
        mag = Interval(np.where(straddles, 0.0, np.minimum(np.abs(base.lo), np.abs(base.hi))),
                       base.magnitude())
        power = mag
        for _ in range(exponent - exponent % 2 - 1):
            with np.errstate(**_QUIET):
                power = _outward(power.lo * mag.lo, power.hi * mag.hi)
            power = Interval(np.maximum(power.lo, 0.0), power.hi)
        return power * base if exponent % 2 else power

    def exp(self, u):
        # libm's exp is faithful, not correctly rounded: widen by two ulps
        with np.errstate(**_QUIET):
            once = _outward(np.exp(u.lo), np.exp(u.hi))
        twice = _outward(once.lo, once.hi)
        return Interval(np.maximum(twice.lo, 0.0), twice.hi)

    def sqrt(self, u):
        with np.errstate(**_QUIET):
            root = _outward(np.sqrt(u.lo), np.sqrt(u.hi))
        return _unbounded_where(u.lo < 0.0, Interval(np.maximum(root.lo, 0.0), root.hi))

    def sin(self, u):
        return Interval(-1.0, 1.0)

    cos = sin


INTERVALS = IntervalArithmetic()


class Poly:
    """A sparse polynomial with exact rational coefficients in free
    generators: `terms` maps each monomial to its nonzero Fraction, a
    monomial being a frozenset of (generator, exponent) pairs, the empty one
    for the constant term. A generator is a variable name or an atom
    (func, canonical form of its argument) made by ExactArithmetic. +, -, *
    and nonnegative integer powers are exact, so the zero polynomial is the
    one with no terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @classmethod
    def constant(cls, value) -> "Poly":
        value = Fraction(value)
        return cls({frozenset(): value} if value else {})

    @classmethod
    def generator(cls, key) -> "Poly":
        return cls({frozenset({(key, 1)}): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def canonical(self) -> frozenset:
        """A hashable form, equal for equal polynomials."""
        return frozenset(self.terms.items())

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            total = terms.pop(mono, 0) + c
            if total:
                terms[mono] = total
        return Poly(terms)

    def __neg__(self):
        return Poly({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        terms: dict = {}
        for mono_a, a in self.terms.items():
            for mono_b, b in other.terms.items():
                powers = dict(mono_a)
                for g, e in mono_b:
                    powers[g] = powers.get(g, 0) + e
                mono = frozenset(powers.items())
                terms[mono] = terms.get(mono, 0) + a * b
        return Poly({mono: c for mono, c in terms.items() if c})

    def __pow__(self, exponent: int):
        return reduce(Poly.__mul__, [self] * exponent, Poly.constant(1))


class ExactArithmetic(Arithmetic):
    """Exact evaluation over Poly: constants are the exact rational values
    of the finite doubles, a quotient is taken only by a nonzero constant,
    and sqrt raises DomainError, as does a quotient by anything else or a
    constant that is inf or nan. sin, cos and exp give an atom, a free
    generator keyed by the function and the canonical form of its exact
    argument, so equal arguments give one atom.
    A result that is the zero polynomial is zero for every value of the
    variables and of the atoms, the true sin, cos and exp values included;
    a nonzero result proves nothing, since the relations between atoms
    (sin^2 + cos^2 = 1) are not known to the ring."""

    def const(self, value: float):
        if not math.isfinite(value):
            raise DomainError(f"no exact value for the constant {value}")
        return Poly.constant(value)

    def div(self, num, den):
        if den.terms.keys() - {frozenset()}:
            raise DomainError("exact quotient by a non-constant")
        if den.is_zero():
            raise DomainError("division by zero")
        return num * Poly.constant(1 / den.terms[frozenset()])

    def sqrt(self, u):
        raise DomainError("sqrt has no exact polynomial value")

    def sin(self, u):
        return Poly.generator(("sin", u.canonical()))

    def cos(self, u):
        return Poly.generator(("cos", u.canonical()))

    def exp(self, u):
        return Poly.generator(("exp", u.canonical()))


EXACT = ExactArithmetic()


def evaluate(e: Expr, env):
    """Evaluate `e` in IEEE doubles. env maps variable names to floats or arrays."""
    v = evaluate_with(e, env, FLOATS)
    if isinstance(v, np.ndarray):
        return v
    return float(v)


def evaluate_many(exprs, env, shape) -> np.ndarray:
    """Values of `exprs` in IEEE doubles, stacked on a last axis of an array
    of shape (*shape, len(exprs)); constant results broadcast to `shape`."""
    out = np.empty((*shape, len(exprs)))
    for i, e in enumerate(exprs):
        out[..., i] = evaluate_with(e, env, FLOATS)
    return out


def evaluate_with(e: Expr, env, arith: Arithmetic):
    """Evaluate `e` over the values in env, with `arith` for everything but
    variables, sums, differences and products."""
    if isinstance(e, Const):
        return arith.const(e.value)
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariable(f"variable {e.name!r} is not bound") from None
    if isinstance(e, Add):
        return evaluate_with(e.left, env, arith) + evaluate_with(e.right, env, arith)
    if isinstance(e, Mul):
        return evaluate_with(e.left, env, arith) * evaluate_with(e.right, env, arith)
    if isinstance(e, Neg):
        return -evaluate_with(e.arg, env, arith)
    if isinstance(e, Div):
        return arith.div(evaluate_with(e.num, env, arith),
                         evaluate_with(e.den, env, arith))
    if isinstance(e, Pow):
        return arith.pow(evaluate_with(e.base, env, arith), e.exponent)
    if isinstance(e, Call) and e.func in FUNCTIONS:
        return getattr(arith, e.func)(evaluate_with(e.arg, env, arith))
    raise TypeError(f"not an Expr node: {e!r}")


def variables(e: Expr) -> frozenset[str]:
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, (Add, Mul)):
            stack.extend((node.left, node.right))
        elif isinstance(node, Div):
            stack.extend((node.num, node.den))
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, (Neg, Call)):
            stack.append(node.arg)
    return frozenset(out)


def check_declared(exprs, names, where: str) -> None:
    """Raise ValueError for the first of `exprs` that reads a variable not
    in `names`, naming those variables and `where` they were read."""
    for e in exprs:
        extra = variables(e) - set(names)
        if extra:
            raise ValueError(f"undeclared variables {sorted(extra)} in {where}")


# ---------------------------------------------------------------------------
# pretty printing (canonical enough that print/parse/print is a fixed point)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_const(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _prec(e: Expr) -> int:
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG  # printed with a leading '-', which binds like one
    if isinstance(e, (Const, Var, Call)):
        return _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    return _PREC_ADD


def _wrap(e: Expr, minimum: int) -> str:
    s = to_string(e)
    return f"({s})" if _prec(e) < minimum else s


def to_string(e: Expr) -> str:
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        left, right = _wrap(e.left, _PREC_ADD), e.right
        if isinstance(right, Const) and right.value < 0:
            right = Neg(Const(-right.value))  # a + (-c) prints as a - c
        if isinstance(right, Neg):
            return f"{left} - {_wrap(right.arg, _PREC_MUL)}"
        return f"{left} + {_wrap(right, _PREC_MUL)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_NEG)}"
    if isinstance(e, Div):
        return f"{_wrap(e.num, _PREC_MUL)}/{_wrap(e.den, _PREC_NEG)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, _PREC_NEG)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an Expr node: {e!r}")
