"""Truncated Taylor arithmetic in the time variable.

A Jet stores the coefficients c0..cD of a power series in t, truncated at
a fixed degree bound D. Arithmetic is the exact truncated ring arithmetic,
so t-derivatives extracted from jets carry no finite-difference noise:
the j-th derivative at 0 equals j! * c_j.

Coefficients may carry leading batch axes: a jet of shape (..., D+1) is a
stack of jets of one degree bound, and every operation acts along the last
axis and broadcasts over the rest, so one expression walk evaluates a whole
batch of curves (the class-k fit runs all of its starts this way). A domain
error is raised when any row breaks the rule.

Only the single time variable is jet-valued. Partials in chart variables
are always taken symbolically first (expr.diff) and the result is then
jet-evaluated in t.

Expressions are jet-evaluated by the one tree walker of the expr module
(expr.evaluate_with): Jet supplies +, - and *, and JetArithmetic the
constants, quotient, power and elementary functions with their domain
errors.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import expr as ex


class JetError(Exception):
    pass


class DegreeMismatch(JetError):
    pass


class JetDomainError(JetError):
    """Quotient or sqrt applied to a jet whose constant term vanishes."""


def default_degree(k: int, m: int) -> int:
    # three guard coefficients above the critical polynomial degree k*(m+1)-1
    return k * (m + 1) + 2


class Jet:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim == 0 or c.shape[-1] == 0:
            raise ValueError("jet coefficients need a nonempty last axis")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    @classmethod
    def constant(cls, value: float, degree: int) -> "Jet":
        c = np.zeros(degree + 1)
        c[0] = value
        return cls(c)

    @classmethod
    def variable(cls, degree: int) -> "Jet":
        """The jet of t itself."""
        c = np.zeros(degree + 1)
        if degree >= 1:
            c[1] = 1.0
        return cls(c)

    def derivative_at_zero(self, j: int):
        if j > self.degree:
            raise IndexError("derivative order exceeds the degree bound")
        return math.factorial(j) * self.coeffs[..., j]

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.degree != self.degree:
                raise DegreeMismatch(
                    f"jet degrees differ: {self.degree} vs {other.degree}"
                )
            return other
        return Jet.constant(float(other), self.degree)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(-self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * float(other))
        other = self._coerce(other)
        return Jet(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs / float(other))
        return jet_div(self, self._coerce(other))

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
        raise JetDomainError("quotient by a jet with zero constant term")
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
        raise JetDomainError("sqrt of a jet with zero constant term")
    if np.any(u0 < 0.0):
        raise JetDomainError("sqrt of a jet with negative constant term")
    s = _series(u)
    s[..., 0] = np.sqrt(u0)
    for j in range(1, u.degree + 1):
        acc = u.coeffs[..., j] - _dot(s[..., 1:j], s[..., j - 1 : 0 : -1])
        s[..., j] = acc / (2.0 * s[..., 0])
    return Jet(s)


class JetArithmetic(ex.Arithmetic):
    """Jet operations for expr.evaluate_with, at a fixed degree bound."""

    def __init__(self, degree: int):
        self.degree = degree

    def const(self, value: float) -> Jet:
        return Jet.constant(value, self.degree)

    div = staticmethod(jet_div)
    pow = staticmethod(jet_pow)
    exp = staticmethod(jet_exp)
    sqrt = staticmethod(jet_sqrt)

    def sin(self, u: Jet) -> Jet:
        return jet_sin_cos(u)[0]

    def cos(self, u: Jet) -> Jet:
        return jet_sin_cos(u)[1]


def jet_eval_expr(e: ex.Expr, env: dict[str, Jet], degree: int | None = None) -> Jet:
    """Jet of e composed with the jets in env, exact to the degree bound.

    All jets in env must share one degree; `degree` is only needed when
    env is empty (e contains no variables at all).
    """
    if degree is None:
        for jet in env.values():
            degree = jet.degree
            break
        if degree is None:
            raise ValueError("degree is required for a variable-free expression")
    for name, jet in env.items():
        if jet.degree != degree:
            raise DegreeMismatch(f"environment jet for {name!r} has wrong degree")
    return ex.evaluate_with(e, env, JetArithmetic(degree))
