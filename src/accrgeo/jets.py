"""Truncated multivariate Taylor arithmetic (jets).

A jet carries the value of a scalar together with all partial derivatives
up to a fixed total order K <= 3 in m seed variables.  Coefficients are
Taylor-normalized (partial derivative divided by the factorial of the
multi-index) and stored densely in graded lexicographic order, so
truncating to a lower order is a prefix slice of the coefficient vector.

Every jet is a coefficient-first ndarray: an array of shape
``(ncoeff, *tensor_shape)`` holds one jet per tensor component, and a
scalar jet is an array of shape ``(ncoeff,)``.  Scalar arithmetic
(``jmul``, ``jpow`` and the elementary functions of ``FUNCTION_TABLE``)
is used only by the expression evaluator; the tensor machinery uses
``tmul``, ``tgrad``, ``tminv`` ...  Every function takes the
:class:`JetSpace` of its operands first.

Scalar and tensor jets share one truncated-product kernel: a product
gathers both operands along the :class:`JetSpace` coefficient-pair table,
which is sorted by target coefficient, multiplies them, and sums each
target's segment (:func:`_segment_sum`).  A tensor product (:func:`tmul`)
multiplies matrix stacks planned once per spec: densely for the pairs
with a value part, by one batched ``np.matmul`` for the cross pairs.
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
        # the cross pairs (i, j > 0) reach the targets of degree 2 and up
        cross = (self._mul_i > 0) & (self._mul_j > 0)
        self._cross_i, self._cross_j = self._mul_i[cross], self._mul_j[cross]
        self._cross_first = self.degree_offsets[min(2, self.order + 1)]
        self._cross_starts = np.searchsorted(
            self._mul_t[cross], range(self._cross_first, self.ncoeff))

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

    def partial(self, a: np.ndarray, *vars_: int) -> float:
        """Raw partial derivative of the scalar jet ``a`` for the given
        (unordered) variable list."""
        e = [0] * self.m
        for v in vars_:
            e[v] += 1
        if sum(e) > self.order:
            raise ValueError("derivative order exceeds jet order")
        fact = 1.0
        for k in e:
            fact *= math.factorial(k)
        return float(a[self.index_of[tuple(e)]] * fact)


# ---------------------------------------------------------------------------
# Scalar jets: arrays of shape (ncoeff,), combined only by the expression
# evaluator.
# ---------------------------------------------------------------------------

def jmul(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two scalar jets: every pair of the table."""
    return _segment_sum(space, a[space._mul_i] * b[space._mul_j])


def _compose(space: JetSpace, a: np.ndarray, derivs) -> np.ndarray:
    """Jet of f(a) given [f(a0), f'(a0), f''(a0), f'''(a0)]: the Taylor
    polynomial of f at a0 in s = a - a0, by Horner's rule."""
    s = a.copy()
    s[0] = 0.0
    out = s * (derivs[space.order] / math.factorial(space.order))
    for k in range(space.order - 1, 0, -1):
        out[0] += derivs[k] / math.factorial(k)
        out = jmul(space, out, s)
    out[0] += derivs[0]
    return out


def _reciprocal(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    if v == 0.0:
        raise JetDomainError("division by zero")
    return _compose(space, a, [1.0 / v, -1.0 / v**2, 2.0 / v**3,
                               -6.0 / v**4])


def jpow(space: JetSpace, base: np.ndarray, exponent: float) -> np.ndarray:
    """Integer exponents square and multiply, left to right, so x^n takes
    at most 2 log2(n) products (x^2 is x*x, x^3 is (x*x)*x) for any base;
    real exponents are exp(e*ln(base)) and require a positive base value."""
    e = float(exponent)
    if e.is_integer():
        n = int(e)
        if n == 0:
            return tconst(space, 1.0)
        if n < 0:
            return jpow(space, _reciprocal(space, base), -n)
        out = base
        for bit in bin(n)[3:]:              # the binary digits after the lead
            out = jmul(space, out, out)
            if bit == "1":
                out = jmul(space, out, base)
        return out
    if base[0] <= 0.0:
        raise JetDomainError("non-integer power of a nonpositive base")
    return jexp(space, jln(space, base) * e)


def jsin(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    return _compose(space, a, [math.sin(v), math.cos(v),
                               -math.sin(v), -math.cos(v)])


def jcos(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    return _compose(space, a, [math.cos(v), -math.sin(v),
                               -math.cos(v), math.sin(v)])


def jtan(space: JetSpace, a: np.ndarray) -> np.ndarray:
    t = math.tan(float(a[0]))
    d1 = 1.0 + t * t
    return _compose(space, a, [t, d1, 2.0 * t * d1,
                               2.0 * d1 * (1.0 + 3.0 * t * t)])


def jsinh(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    return _compose(space, a, [math.sinh(v), math.cosh(v),
                               math.sinh(v), math.cosh(v)])


def jcosh(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    return _compose(space, a, [math.cosh(v), math.sinh(v),
                               math.cosh(v), math.sinh(v)])


def jtanh(space: JetSpace, a: np.ndarray) -> np.ndarray:
    t = math.tanh(float(a[0]))
    d1 = 1.0 - t * t
    return _compose(space, a, [t, d1, -2.0 * t * d1,
                               -2.0 * d1 * (1.0 - 3.0 * t * t)])


def jexp(space: JetSpace, a: np.ndarray) -> np.ndarray:
    e = math.exp(float(a[0]))
    return _compose(space, a, [e, e, e, e])


def jln(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    if v <= 0.0:
        raise JetDomainError("ln of a nonpositive value")
    return _compose(space, a, [math.log(v), 1.0 / v, -1.0 / v**2,
                               2.0 / v**3])


def jsqrt(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    if v <= 0.0:
        raise JetDomainError("sqrt of a nonpositive value")
    r = math.sqrt(v)
    return _compose(space, a, [r, 0.5 / r, -0.25 / (r * v),
                               0.375 / (r * v * v)])


def jarctan(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    d = 1.0 + v * v
    return _compose(space, a, [math.atan(v), 1.0 / d, -2.0 * v / d**2,
                               (6.0 * v * v - 2.0) / d**3])


def jarcsin(space: JetSpace, a: np.ndarray) -> np.ndarray:
    v = float(a[0])
    if not -1.0 < v < 1.0:
        raise JetDomainError("arcsin outside (-1, 1)")
    d = 1.0 - v * v
    r = math.sqrt(d)
    return _compose(space, a, [math.asin(v), 1.0 / r, v / (r * d),
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


def _segment_sum(space: JetSpace, prod: np.ndarray, starts=None):
    """Sum the pair products of a truncated product (one row per entry of
    the pair table, or of the segments ``starts``) into their targets."""
    starts = space._mul_starts if starts is None else starts
    return np.add.reduceat(prod, starts, axis=0)


@lru_cache(maxsize=None)
def _tmul_plan(sub: str, ashape: tuple, bshape: tuple):
    """Axis orders and shapes that make (free, summed) and (summed, free)
    matrix stacks of the operands, the product, and the output order."""
    lhs, out = sub.split("->")
    sa, sb = lhs.split(",")
    con = [c for c in sa if c in sb]
    free = [c for c in sa if c not in sb] + [c for c in sb if c not in sa]
    size = dict(zip(sa, ashape))
    if (len(set(sa)) < len(sa) or len(set(sb)) < len(sb)
            or sorted(out) != sorted(free)
            or (len(sa), len(sb)) != (len(ashape), len(bshape))
            or any(size.setdefault(c, n) != n for c, n in zip(sb, bshape))):
        raise ValueError(f"tmul cannot run {sub!r} on {ashape}, {bshape}")
    na = len(sa) - len(con)
    m, k, n = (math.prod(size[c] for c in part)
               for part in (free[:na], con, free[na:]))
    return ((0, *(1 + sa.index(c) for c in free[:na] + con)), (m, k),
            (0, *(1 + sb.index(c) for c in con + free[na:])), (k, n),
            np.matmul if con else np.multiply,
            tuple(size[c] for c in free),
            (0, *(1 + free.index(c) for c in out)))


def tmul(space: JetSpace, a: np.ndarray, b: np.ndarray, sub: str) -> np.ndarray:
    """Jet-valued einsum: ``sub`` is an einsum spec over the tensor axes,
    e.g. ``"ij,jk->ik"``; the coefficient axis is convolved.

    A spec may name an index once per operand; an index of both operands
    is summed and every other one is an output axis (no trace, diagonal,
    batch axis or one-sided sum), else ``ValueError``.  The pairs with a
    value part multiply as dense matrix stacks, the cross pairs in one
    batched ``np.matmul`` (broadcast when nothing is summed) over their
    part of the pair table, summed by :func:`_segment_sum`."""
    perm_a, mk, perm_b, kn, op, shape, perm_out = _tmul_plan(
        sub, a.shape[1:], b.shape[1:])
    a = a.transpose(perm_a).reshape((-1,) + mk)
    b = b.transpose(perm_b).reshape((-1,) + kn)
    out = op(a[0], b)                       # the pairs (0, t)
    out[1:] += op(a[1:], b[0])              # the pairs (t, 0), t > 0
    if space.order >= 2:
        out[space._cross_first:] += _segment_sum(
            space, op(a[space._cross_i], b[space._cross_j]),
            space._cross_starts)
    return out.reshape((-1,) + shape).transpose(perm_out)


def tscale(space: JetSpace, scalar: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Multiply a tensor-jet array by a scalar jet: one :func:`tmul`
    with the spec ``",ij->ij"`` for a matrix, ``",i->i"`` for a vector."""
    axes = "ijklmn"[:a.ndim - 1]
    return tmul(space, scalar, a, f",{axes}->{axes}")


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
