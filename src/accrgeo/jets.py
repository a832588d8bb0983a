"""Truncated multivariate Taylor arithmetic (jets).

A jet carries the value of a scalar together with all partial derivatives
up to a fixed total order K <= 3 in m seed variables.  Coefficients are
Taylor-normalized (partial derivative divided by the factorial of the
multi-index) and stored densely in graded lexicographic order, so
truncating to a lower order is a prefix slice of the coefficient vector.

Besides the scalar :class:`Jet` used by the expression evaluator, this
module provides coefficient-first ndarray helpers (``tmul``, ``tgrad``,
``tminv`` ...) used by the tensor machinery: an array of shape
``(ncoeff, *tensor_shape)`` holds one jet per tensor component.

Scalar and tensor jets share one truncated-product kernel: a product
gathers both operands along the :class:`JetSpace` coefficient-pair table,
which is sorted by target coefficient, multiplies them, and sums each
target's segment (:func:`_segment_sum`).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 3


class JetDomainError(ArithmeticError):
    """A function was evaluated outside its domain (ln/sqrt of a
    nonpositive value, division by zero, arcsin outside (-1, 1), ...)."""


@lru_cache(maxsize=None)
def jet_space(m: int, order: int) -> "JetSpace":
    return JetSpace(m, order)


def _multi_indices(m: int, order: int):
    out = []
    for deg in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(m), deg):
            e = [0] * m
            for v in combo:
                e[v] += 1
            out.append(tuple(e))
    return out


class JetSpace:
    """Index bookkeeping for dense jets in m variables at a given order."""

    def __init__(self, m: int, order: int):
        if m < 1:
            raise ValueError("need at least one seed variable")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}")
        self.m = m
        self.order = order
        self.indices = _multi_indices(m, order)
        self.ncoeff = len(self.indices)
        self.index_of = {a: i for i, a in enumerate(self.indices)}
        # prefix length of the coefficient block up to each degree
        self.degree_offsets = [0] * (order + 2)
        for a in self.indices:
            self.degree_offsets[sum(a) + 1] += 1
        for d in range(order + 1):
            self.degree_offsets[d + 1] += self.degree_offsets[d]
        self._build_mul_table()
        self._build_deriv_maps()

    def _build_mul_table(self):
        I, J, T = [], [], []
        for i, a in enumerate(self.indices):
            da = sum(a)
            for j, b in enumerate(self.indices):
                if da + sum(b) > self.order:
                    continue
                I.append(i)
                J.append(j)
                T.append(self.index_of[tuple(x + y for x, y in zip(a, b))])
        by_target = np.argsort(T, kind="stable")
        self._mul_i = np.array(I)[by_target]
        self._mul_j = np.array(J)[by_target]
        self._mul_t = np.array(T)[by_target]
        # every target t has the pair (0, t): segment k sums coefficient k
        self._mul_starts = np.searchsorted(self._mul_t, range(self.ncoeff))

    def _build_deriv_maps(self):
        # d/dx_v maps coefficient at b+e_v to coefficient (b_v+1)*c at b
        # in the space of order-1 lower.
        self.deriv_maps = []
        if self.order == 0:
            return
        child = jet_space(self.m, self.order - 1)
        for v in range(self.m):
            src, dst, fac = [], [], []
            for j, b in enumerate(child.indices):
                a = list(b)
                a[v] += 1
                src.append(self.index_of[tuple(a)])
                dst.append(j)
                fac.append(float(b[v] + 1))
            self.deriv_maps.append(
                (np.array(src), np.array(dst), np.array(fac))
            )

    @property
    def child(self) -> "JetSpace":
        return jet_space(self.m, self.order - 1)

    # -- scalar constructors -------------------------------------------------

    def constant(self, value: float) -> "Jet":
        return Jet(self, tconst(self, value))

    def var(self, i: int, value: float) -> "Jet":
        if not 0 <= i < self.m:
            raise IndexError(f"seed index {i} out of range for m={self.m}")
        c = tconst(self, value)
        if self.order >= 1:
            c[1 + i] = 1.0
        return Jet(self, c)


class Jet:
    """Immutable truncated Taylor value; all operations are pure."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- accessors -----------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def partial(self, *vars_: int) -> float:
        """Raw partial derivative for the given (unordered) variable list."""
        e = [0] * self.space.m
        for v in vars_:
            e[v] += 1
        a = tuple(e)
        if sum(a) > self.space.order:
            raise ValueError("derivative order exceeds jet order")
        fact = 1.0
        for k in a:
            fact *= math.factorial(k)
        return float(self.coeffs[self.space.index_of[a]] * fact)

    def gradient(self) -> np.ndarray:
        if self.space.order < 1:
            raise ValueError("order-0 jet has no gradient")
        return self.coeffs[1 : 1 + self.space.m].copy()

    # -- arithmetic ----------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jet spaces do not match")
            return other
        return self.space.constant(float(other))

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __add__(self, other):
        other = self._lift(other)
        return Jet(self.space, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return Jet(self.space, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeffs * float(other))
        other = self._lift(other)
        sp = self.space
        return Jet(sp, _segment_sum(sp, self.coeffs[sp._mul_i]
                                    * other.coeffs[sp._mul_j]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeffs / float(other))
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, exponent):
        return jpow(self, exponent)

    def __repr__(self):
        return (f"Jet(m={self.space.m}, K={self.space.order}, "
                f"coeffs={self.coeffs!r})")


def _compose(a: Jet, derivs) -> Jet:
    """Value of f(a) given [f(a0), f'(a0), f''(a0), f'''(a0)]: the Taylor
    polynomial of f at a0 in s = a - a0, by Horner's rule."""
    sp = a.space
    s = a.coeffs.copy()
    s[0] = 0.0
    out = s * (derivs[sp.order] / math.factorial(sp.order))
    for k in range(sp.order - 1, 0, -1):
        out[0] += derivs[k] / math.factorial(k)
        out = _segment_sum(sp, out[sp._mul_i] * s[sp._mul_j])
    out[0] += derivs[0]
    return Jet(sp, out)


def _reciprocal(a: Jet) -> Jet:
    v = a.value
    if v == 0.0:
        raise JetDomainError("division by zero")
    return _compose(a, [1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4])


def jpow(base: Jet, exponent: float) -> Jet:
    """Integer exponents square and multiply, left to right, so x^n takes
    at most 2 log2(n) products (x^2 is x*x, x^3 is (x*x)*x) for any base;
    real exponents are exp(e*ln(base)) and require a positive base value."""
    e = float(exponent)
    if e.is_integer():
        n = int(e)
        if n == 0:
            return base.space.constant(1.0)
        if n < 0:
            return jpow(_reciprocal(base), -n)
        out = base
        for bit in bin(n)[3:]:              # the binary digits after the lead
            out = out * out
            if bit == "1":
                out = out * base
        return out
    if base.value <= 0.0:
        raise JetDomainError("non-integer power of a nonpositive base")
    return jexp(jln(base) * e)


def jsin(a: Jet) -> Jet:
    v = a.value
    return _compose(a, [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)])


def jcos(a: Jet) -> Jet:
    v = a.value
    return _compose(a, [math.cos(v), -math.sin(v), -math.cos(v), math.sin(v)])


def jtan(a: Jet) -> Jet:
    t = math.tan(a.value)
    d1 = 1.0 + t * t
    return _compose(a, [t, d1, 2.0 * t * d1, 2.0 * d1 * (1.0 + 3.0 * t * t)])


def jsinh(a: Jet) -> Jet:
    v = a.value
    return _compose(a, [math.sinh(v), math.cosh(v),
                        math.sinh(v), math.cosh(v)])


def jcosh(a: Jet) -> Jet:
    v = a.value
    return _compose(a, [math.cosh(v), math.sinh(v),
                        math.cosh(v), math.sinh(v)])


def jtanh(a: Jet) -> Jet:
    t = math.tanh(a.value)
    d1 = 1.0 - t * t
    return _compose(a, [t, d1, -2.0 * t * d1, -2.0 * d1 * (1.0 - 3.0 * t * t)])


def jexp(a: Jet) -> Jet:
    e = math.exp(a.value)
    return _compose(a, [e, e, e, e])


def jln(a: Jet) -> Jet:
    v = a.value
    if v <= 0.0:
        raise JetDomainError("ln of a nonpositive value")
    return _compose(a, [math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3])


def jsqrt(a: Jet) -> Jet:
    v = a.value
    if v <= 0.0:
        raise JetDomainError("sqrt of a nonpositive value")
    r = math.sqrt(v)
    return _compose(a, [r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)])


def jarctan(a: Jet) -> Jet:
    v = a.value
    d = 1.0 + v * v
    return _compose(a, [math.atan(v), 1.0 / d, -2.0 * v / d**2,
                        (6.0 * v * v - 2.0) / d**3])


def jarcsin(a: Jet) -> Jet:
    v = a.value
    if not -1.0 < v < 1.0:
        raise JetDomainError("arcsin outside (-1, 1)")
    d = 1.0 - v * v
    r = math.sqrt(d)
    return _compose(a, [math.asin(v), 1.0 / r, v / (r * d),
                        (1.0 + 2.0 * v * v) / (r * d * d)])


# ---------------------------------------------------------------------------
# Coefficient-first tensor helpers.  An array of shape (ncoeff, *shape)
# holds one jet per tensor component; all components share one JetSpace.
# ---------------------------------------------------------------------------

def tconst(space: JetSpace, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.zeros((space.ncoeff,) + values.shape)
    out[0] = values
    return out


def tsym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a jet-valued matrix."""
    return 0.5 * (a + np.einsum("pij->pji", a))


def tvalue(a: np.ndarray) -> np.ndarray:
    return a[0]


def ttrunc(space: JetSpace, a: np.ndarray, new_order: int) -> np.ndarray:
    if new_order == space.order:
        return a
    if new_order > space.order:
        raise ValueError("cannot raise jet order by truncation")
    return a[: space.degree_offsets[new_order + 1]]


def _segment_sum(space: JetSpace, prod: np.ndarray) -> np.ndarray:
    """Sum the pair products of a truncated product (one row per entry of
    the pair table) into their target coefficients."""
    return np.add.reduceat(prod, space._mul_starts, axis=0)


def tmul(space: JetSpace, a: np.ndarray, b: np.ndarray, sub: str) -> np.ndarray:
    """Jet-valued einsum: ``sub`` is a plain einsum spec over the tensor
    axes, e.g. ``"ij,jk->ik"``; the coefficient axis is convolved."""
    lhs, rhs = sub.split("->")
    sa, sb = lhs.split(",")
    return _segment_sum(space, np.einsum(f"p{sa},p{sb}->p{rhs}",
                                         a[space._mul_i], b[space._mul_j]))


def tscale(space: JetSpace, scalar: Jet, a: np.ndarray) -> np.ndarray:
    """Multiply a tensor-jet array by a scalar jet."""
    s = scalar.coeffs[space._mul_i].reshape((-1,) + (1,) * (a.ndim - 1))
    return _segment_sum(space, s * a[space._mul_j])


def tgrad(space: JetSpace, a: np.ndarray) -> np.ndarray:
    """Partial derivatives of every component: output has one extra
    trailing axis of length m and lives in the order-(K-1) space."""
    if space.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    child = space.child
    out = np.zeros((child.ncoeff,) + a.shape[1:] + (space.m,))
    for v, (src, dst, fac) in enumerate(space.deriv_maps):
        facr = fac.reshape((-1,) + (1,) * (a.ndim - 1))
        out[dst, ..., v] = a[src] * facr
    return out


class SingularMetricError(ArithmeticError):
    """Metric (or frame) matrix is numerically singular."""


def tminv(space: JetSpace, g: np.ndarray) -> np.ndarray:
    """Inverse of a jet-valued square matrix.

    The value part is inverted by LU (numpy); the derivative parts follow
    from the truncated Neumann series, which is exact because the
    non-constant part is nilpotent in the truncated algebra.  The value
    part is singular when sigma_min <= 1e-12 sigma_max, at any scale.
    """
    g0 = g[0]
    d = g0.shape[0]
    sv = np.linalg.svd(g0, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise SingularMetricError(f"singular values {sv[-1]:.3e} .. "
                                  f"{sv[0]:.3e}: ratio below threshold")
    g0i = np.linalg.inv(g0)
    n = g.copy()
    n[0] = 0.0
    # X = -g0i @ N  (constant matrix times jet matrix)
    x = -np.einsum("ab,pbc->pac", g0i, n)
    eye = tconst(space, np.eye(d))
    series = eye
    for _ in range(space.order):
        series = eye + tmul(space, series, x, "ab,bc->ac")
    return np.einsum("pab,bc->pac", series, g0i)


FUNCTION_TABLE = {
    "sin": jsin, "cos": jcos, "tan": jtan,
    "sinh": jsinh, "cosh": jcosh, "tanh": jtanh,
    "exp": jexp, "ln": jln, "sqrt": jsqrt,
    "arctan": jarctan, "arcsin": jarcsin,
}
