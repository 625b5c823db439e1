"""Truncated Taylor arithmetic in the time variable.

A Jet stores the coefficients c0..cD of a power series in t, truncated at
a fixed degree bound D. Arithmetic is the exact truncated ring arithmetic,
so t-derivatives extracted from jets carry no finite-difference noise:
the j-th derivative at 0 equals j! * c_j.

Only the single time variable is jet-valued. Partials in chart variables
are always taken symbolically first (expr.diff) and the result is then
jet-evaluated in t.

Expressions are jet-evaluated by the one tree walker of the expr module
(expr.evaluate_with): Jet supplies +, - and *, and JetArithmetic the
constants, quotient, power and elementary functions with their domain
errors.
"""

from __future__ import annotations

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
        if c.ndim != 1 or c.size == 0:
            raise ValueError("jet coefficients must be a nonempty 1-d array")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

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

    def derivative_at_zero(self, j: int) -> float:
        if j > self.degree:
            raise IndexError("derivative order exceeds the degree bound")
        return math.factorial(j) * float(self.coeffs[j])

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
        return Jet(np.convolve(self.coeffs, other.coeffs)[: self.degree + 1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs / float(other))
        return jet_div(self, self._coerce(other))

    def __repr__(self):
        return f"Jet({self.coeffs.tolist()})"


def jet_div(a: Jet, b: Jet) -> Jet:
    if b.coeffs[0] == 0.0:
        raise JetDomainError("quotient by a jet with zero constant term")
    D = a.degree
    q = np.zeros(D + 1)
    for j in range(D + 1):
        acc = a.coeffs[j] - np.dot(q[:j], b.coeffs[j:0:-1])
        q[j] = acc / b.coeffs[0]
    return Jet(q)


def jet_pow(a: Jet, p: int) -> Jet:
    if p < 0:
        raise ValueError("jet powers must have nonnegative exponent")
    out = Jet.constant(1.0, a.degree)
    base = a
    while p:
        if p & 1:
            out = out * base
        base = base * base
        p >>= 1
    return out


def jet_exp(u: Jet) -> Jet:
    D = u.degree
    e = np.zeros(D + 1)
    e[0] = math.exp(u.coeffs[0])
    for j in range(1, D + 1):
        e[j] = np.dot(np.arange(1, j + 1) * u.coeffs[1 : j + 1], e[j - 1 :: -1][:j]) / j
    return Jet(e)


def jet_sin_cos(u: Jet) -> tuple[Jet, Jet]:
    D = u.degree
    s = np.zeros(D + 1)
    c = np.zeros(D + 1)
    s[0] = math.sin(u.coeffs[0])
    c[0] = math.cos(u.coeffs[0])
    for j in range(1, D + 1):
        iu = np.arange(1, j + 1) * u.coeffs[1 : j + 1]
        s[j] = np.dot(iu, c[j - 1 :: -1][:j]) / j
        c[j] = -np.dot(iu, s[j - 1 :: -1][:j]) / j
    return Jet(s), Jet(c)


def jet_sqrt(u: Jet) -> Jet:
    u0 = u.coeffs[0]
    if u0 == 0.0:
        raise JetDomainError("sqrt of a jet with zero constant term")
    if u0 < 0.0:
        raise JetDomainError("sqrt of a jet with negative constant term")
    D = u.degree
    s = np.zeros(D + 1)
    s[0] = math.sqrt(u0)
    for j in range(1, D + 1):
        acc = u.coeffs[j] - np.dot(s[1:j], s[j - 1 : 0 : -1])
        s[j] = acc / (2.0 * s[0])
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
