"""Truncated Taylor arithmetic in the time variable.

A Jet stores the coefficients c0..cD of a power series in t, truncated at
a fixed degree bound D. Arithmetic is the exact truncated ring arithmetic,
so t-derivatives extracted from jets carry no finite-difference noise:
the j-th derivative at 0 equals j! * c_j.

Coefficients may carry leading batch axes: a jet of shape (..., D+1) is a
stack of jets of one degree bound, and every operation acts along the last
axis and broadcasts over the rest, so one expression walk evaluates a whole
batch of curves (the class-k fit runs all of its starts this way). A
quotient by a jet whose constant term is 0, or a sqrt of one whose
constant term is 0 or negative, in any row raises expr.DomainError, the
error of the float operations, with a message that names the jet.

Only the single time variable is jet-valued. Partials in chart variables
are always taken symbolically first (expr.diff) and the result is then
jet-evaluated in t.

jet_eval_many stacks the jets of several expressions into one array, as
expr.evaluate_many stacks floats; other modules pass jets as such arrays.

Expressions are jet-evaluated by the one tree walker of the expr module
(expr.evaluate_with): Jet supplies +, negation and * (the walker
subtracts as a + (-b)), and JetArithmetic the quotient, power and
elementary functions. Chart values may be bound as floats or arrays (one
value per row) beside the jet of t: a subexpression that holds no jet then
stays a float or array and takes the float operations, and the first
operation that meets a jet broadcasts it over the jet's rows.
"""

from __future__ import annotations

import functools

import numpy as np

from . import expr as ex


class JetError(Exception):
    pass


class DegreeMismatch(JetError):
    pass


class Jet:
    __slots__ = ("coeffs",)
    # numpy operators defer to Jet's, so ndarray * Jet is a Jet
    __array_ufunc__ = None

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim == 0 or c.shape[-1] == 0:
            raise ValueError("jet coefficients need a nonempty last axis")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    @classmethod
    def constant(cls, value, degree: int) -> "Jet":
        """The constant jet of a float, or the stack of constant jets of an
        array of values, shape (*value.shape, degree+1)."""
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (degree + 1,))
        c[..., 0] = value
        return cls(c)

    @classmethod
    def variable(cls, degree: int) -> "Jet":
        """The jet of t itself."""
        c = np.zeros(degree + 1)
        if degree >= 1:
            c[1] = 1.0
        return cls(c)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.degree != self.degree:
                raise DegreeMismatch(
                    f"jet degrees differ: {self.degree} vs {other.degree}"
                )
            return other
        return Jet.constant(other, self.degree)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs - other.coeffs)

    def __neg__(self):
        return Jet(-self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * np.asarray(other, dtype=float)[..., None])
        other = self._coerce(other)
        return Jet(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __repr__(self):
        return f"Jet({self.coeffs.tolist()})"


@functools.cache
def _cauchy(size: int) -> np.ndarray:
    """0/1 matrix of shape (size*size, size) that sends the flattened outer
    product a_i b_k to the coefficient of t^(i+k), dropping i+k >= size."""
    i, k = np.divmod(np.arange(size * size), size)
    out = (i[:, None] + k[:, None] == np.arange(size)).astype(float)
    out.setflags(write=False)     # shared by every caller through the cache
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product along the last axis, broadcast over the rest.

    einsum builds the outer product because it never reports underflow
    (coefficients may be subnormal); the 0/1 matmul that sums it is exact
    term by term, so it sets no underflow flag either."""
    size = a.shape[-1]
    outer = np.einsum("...i,...k->...ik", a, b)
    return outer.reshape(outer.shape[:-2] + (size * size,)) @ _cauchy(size)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum of products along the last axis, by einsum as above."""
    return np.einsum("...i,...i->...", x, y)


def _series(u: Jet, *rest: Jet) -> np.ndarray:
    """Zero coefficients for the broadcast shape of the operands."""
    shape = np.broadcast_shapes(u.coeffs.shape, *(r.coeffs.shape for r in rest))
    return np.zeros(shape)


# jet_div, jet_exp, jet_sin_cos and jet_sqrt ignore underflow: numpy's sin
# of a subnormal constant term, or a division in a recurrence, may underflow,
# which a truncated series shrugs off as the product does.


@np.errstate(under="ignore")
def jet_div(a: Jet, b: Jet) -> Jet:
    b0 = b.coeffs[..., 0]
    if np.any(b0 == 0.0):
        raise ex.DomainError("quotient by a jet with zero constant term")
    q = _series(a, b)
    for j in range(a.degree + 1):
        acc = a.coeffs[..., j] - _dot(q[..., :j], b.coeffs[..., j:0:-1])
        q[..., j] = acc / b0
    return Jet(q)


def jet_pow(a: Jet, p: int) -> Jet:
    if p < 0:
        raise ValueError("jet powers must have nonnegative exponent")
    if p == 0:
        return Jet.constant(1.0, a.degree)
    out, base = None, a
    while True:          # square-and-multiply, with no square left unused
        if p & 1:
            out = base if out is None else out * base
        p >>= 1
        if not p:
            return out
        base = base * base


@np.errstate(under="ignore")
def jet_exp(u: Jet) -> Jet:
    e = _series(u)
    e[..., 0] = np.exp(u.coeffs[..., 0])
    for j in range(1, u.degree + 1):
        iu = np.arange(1, j + 1) * u.coeffs[..., 1 : j + 1]
        e[..., j] = _dot(iu, e[..., j - 1 :: -1]) / j
    return Jet(e)


@np.errstate(under="ignore")
def jet_sin_cos(u: Jet) -> tuple[Jet, Jet]:
    s = _series(u)
    c = _series(u)
    s[..., 0] = np.sin(u.coeffs[..., 0])
    c[..., 0] = np.cos(u.coeffs[..., 0])
    for j in range(1, u.degree + 1):
        iu = np.arange(1, j + 1) * u.coeffs[..., 1 : j + 1]
        s[..., j] = _dot(iu, c[..., j - 1 :: -1]) / j
        c[..., j] = -_dot(iu, s[..., j - 1 :: -1]) / j
    return Jet(s), Jet(c)


@np.errstate(under="ignore")
def jet_sqrt(u: Jet) -> Jet:
    u0 = u.coeffs[..., 0]
    if np.any(u0 == 0.0):
        raise ex.DomainError("sqrt of a jet with zero constant term")
    if np.any(u0 < 0.0):
        raise ex.DomainError("sqrt of a jet with negative constant term")
    s = _series(u)
    s[..., 0] = np.sqrt(u0)
    for j in range(1, u.degree + 1):
        acc = u.coeffs[..., j] - _dot(s[..., 1:j], s[..., j - 1 : 0 : -1])
        s[..., j] = acc / (2.0 * s[..., 0])
    return Jet(s)


@np.errstate(under="ignore")
def _quiet(op, *args):
    """A float operation, ignoring underflow as the jet operations do."""
    return op(*args)


class JetArithmetic(ex.Arithmetic):
    """Jet operations for expr.evaluate_with. A value that holds no jet (a
    constant, or an expression of floats and arrays only) stays a float or
    array and takes the float operations of expr.Arithmetic.

    sin and cos are paired: jet_sin_cos gives both series, and the
    instance keeps them, keyed by the argument's coefficients, for any later
    sin or cos of an equal argument. The kept series grow with every new
    argument, so an instance serves one evaluation: jet_eval_many makes one
    per call."""

    def __init__(self):
        self._trig: dict[tuple, tuple[Jet, Jet]] = {}

    def _sin_cos(self, u: Jet) -> tuple[Jet, Jet]:
        key = (u.coeffs.shape, u.coeffs.tobytes())
        if key not in self._trig:
            self._trig[key] = jet_sin_cos(u)
        return self._trig[key]

    def div(self, num, den):
        jet = den if isinstance(den, Jet) else num
        if isinstance(jet, Jet):
            return jet_div(jet._coerce(num), jet._coerce(den))
        return _quiet(super().div, num, den)

    def pow(self, base, exponent: int):
        if isinstance(base, Jet):
            return jet_pow(base, exponent)
        return _quiet(super().pow, base, exponent)

    def exp(self, u):
        return jet_exp(u) if isinstance(u, Jet) else _quiet(super().exp, u)

    def sqrt(self, u):
        return jet_sqrt(u) if isinstance(u, Jet) else _quiet(super().sqrt, u)

    def sin(self, u):
        return self._sin_cos(u)[0] if isinstance(u, Jet) else _quiet(super().sin, u)

    def cos(self, u):
        return self._sin_cos(u)[1] if isinstance(u, Jet) else _quiet(super().cos, u)


def jet_eval_expr(e: ex.Expr, env: dict, degree: int,
                  arith: JetArithmetic | None = None) -> Jet:
    """Jet of e composed with the values in env, exact to the degree bound.

    env binds jets, all of degree `degree`, and floats or arrays, which are
    constants. `arith` is a JetArithmetic that other evaluations may share,
    pairing their sin and cos, and by default a new one.
    """
    if any(isinstance(v, Jet) and v.degree != degree for v in env.values()):
        raise DegreeMismatch(f"environment jets differ from degree {degree}")
    value = ex.evaluate_with(e, env, arith or JetArithmetic())
    return value if isinstance(value, Jet) else Jet.constant(value, degree)


def jet_eval_many(exprs, env: dict, shape, degree: int) -> np.ndarray:
    """Coefficients of jet_eval_expr over each of `exprs`, stacked as
    expr.evaluate_many stacks floats: shape (*shape, len(exprs), degree+1),
    where a jet free of the batch broadcasts to `shape`. The expressions
    share one JetArithmetic, so sin and cos of one argument run once."""
    out = np.empty((*shape, len(exprs), degree + 1))
    arith = JetArithmetic()
    for i, e in enumerate(exprs):
        out[..., i, :] = jet_eval_expr(e, env, degree, arith).coeffs
    return out
