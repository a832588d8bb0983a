"""Truncated multivariate Taylor arithmetic (jets).

A jet carries the value of a scalar together with all partial derivatives
up to a fixed total order K <= 3 in m seed variables.  Coefficients are
Taylor-normalized (partial derivative divided by the factorial of the
multi-index) and stored densely in graded lexicographic order, so
truncating to a lower order is a prefix slice of the coefficient vector.

Every jet is a coefficient-first ndarray of shape
``(ncoeff, *batch, *tensor_shape)``: the batch axes (one jet per sample
point) sit where numpy's ``...`` puts them, before the tensor axes, so a
single point is the empty batch: a scalar jet at one point has shape
``(ncoeff,)``, the metric at P points ``(ncoeff, P, d, d)``.  Scalar
arithmetic (``jmul``, ``jpow`` and ``FUNCTION_TABLE``) is used only by
the expression evaluator; it takes the value row ``a[0]`` as an array,
and a domain error at any point fails the batch.  The tensor machinery
(``tmul``, ``tgrad``, ``tminv`` ...) reads the tensor axes from the end.
Every function takes the :class:`JetSpace` of its operands first.

Scalar and tensor products read one table: the :class:`JetSpace`
coefficient pairs, sorted by target coefficient.  A scalar product
(:func:`jmul`) gathers both operands along it, multiplies them, and sums
each target's segment by ``np.add.reduceat`` (:func:`_segment_sum`).  A
tensor product (:func:`tmul`) multiplies matrix stacks planned once per
spec and shape, the batch axes folded into the stacks: densely for the
pairs with a value part, and for the cross pairs by one broadcast
``np.matmul`` per block of degrees (di, dj), folded into the targets in
pair-table order by gathers and adds, without ``reduceat``, which is slow
at tensor shapes.
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
        self._build_fold()

    def _build_fold(self):
        # the cross pairs (i, j > 0) reach the targets of degree 2 and up;
        # tmul computes them as the degree blocks (di, dj), each one
        # broadcast product of a's degree-di and b's degree-dj
        # coefficients, and _fold[r] gathers the r-th pair of each target,
        # in pair-table order, from the blocks flattened one after another
        off = self.degree_offsets
        self._blocks = [(di, dj) for di in range(1, self.order)
                        for dj in range(1, self.order + 1 - di)]
        self._cross_first = off[min(2, self.order + 1)]
        cross = (self._mul_i > 0) & (self._mul_j > 0)
        i, j, t = self._mul_i[cross], self._mul_j[cross], self._mul_t[cross]
        deg = np.array([sum(a) for a in self.indices])
        flat, base = np.zeros_like(i), 0
        for di, dj in self._blocks:
            sel = (deg[i] == di) & (deg[j] == dj)
            width = off[dj + 1] - off[dj]
            flat[sel] = base + (i[sel] - off[di]) * width + j[sel] - off[dj]
            base += (off[di + 1] - off[di]) * width
        rank = np.arange(len(t)) - np.searchsorted(t, t)
        self._fold = [(t[rank == r] - self._cross_first, flat[rank == r])
                      for r in range(1 + rank.max(initial=-1))]

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


# ---------------------------------------------------------------------------
# Scalar jets: arrays of shape (ncoeff, *batch), combined only by the
# expression evaluator.
# ---------------------------------------------------------------------------

def jmul(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two scalar jets: every pair of the table."""
    return _segment_sum(space, a.take(space._mul_i, axis=0)
                        * b.take(space._mul_j, axis=0))


def _compose(space: JetSpace, a: np.ndarray, derivs) -> np.ndarray:
    """Jet of f(a) given [f(a0), f'(a0), f''(a0), f'''(a0)], each of the
    batch shape: the Taylor polynomial of f at a0 in s = a - a0, by
    Horner's rule."""
    s = a.copy()
    s[0] = 0.0
    out = s * (derivs[space.order] / math.factorial(space.order))
    for k in range(space.order - 1, 0, -1):
        out[0] += derivs[k] / math.factorial(k)
        out = jmul(space, out, s)
    out[0] += derivs[0]
    return out


def jpow(space: JetSpace, base: np.ndarray, exponent: float) -> np.ndarray:
    """Integer exponents square and multiply, left to right, so x^n takes
    at most 2 log2(n) products (x^2 is x*x, x^3 is (x*x)*x) for any base;
    real exponents are exp(e*ln(base)) and require a positive base value."""
    e = float(exponent)
    if e.is_integer():
        n = int(e)
        if n == 0:
            return tconst(space, np.ones(base.shape[1:]))
        if n < 0:
            return jpow(space, _reciprocal(space, base), -n)
        out = base
        for bit in bin(n)[3:]:              # the binary digits after the lead
            out = jmul(space, out, out)
            if bit == "1":
                out = jmul(space, out, base)
        return out
    if np.count_nonzero(base[0] <= 0.0):
        raise JetDomainError("non-integer power of a nonpositive base")
    return jexp(space, jln(space, base) * e)


def _elementary(name: str, derivs, inside=None, outside: str = ""):
    """The jet function of f from ``derivs``, four functions giving f and
    its first three derivatives at the value row v, each from v and the
    list d of the ones before it; only those up to the jet order k are
    computed, so an unused high derivative can neither overflow nor
    divide by zero.  ``inside(v, k)`` is false outside the domain of f
    and its first k derivatives.  A value beyond the float range (numpy
    raises it under the evaluator's ``np.errstate``) is the
    ``OverflowError`` of :mod:`math`, with its message."""
    def jet(space: JetSpace, a: np.ndarray) -> np.ndarray:
        v = a[0]
        if inside is not None and (np.count_nonzero(inside(v, space.order))
                                   < np.size(v)):
            raise JetDomainError(outside)
        values = []
        try:
            for f in derivs[:space.order + 1]:
                values.append(f(v, values))
        except FloatingPointError:
            raise OverflowError("math range error") from None
        return _compose(space, a, values)
    jet.__name__ = jet.__qualname__ = f"j{name}"
    return jet


def _oscillator_derivs(f, df, s: float):
    """Derivatives of f with f'' = s f: sin and cos (s = -1), sinh and
    cosh (s = 1), given f and f'."""
    return (lambda v, d: f(v), lambda v, d: df(v),
            lambda v, d: s * d[0], lambda v, d: s * d[1])


def _tan_derivs(f, s: float):
    """Derivatives of tan (s = 1) or tanh (s = -1), the later ones from
    the value t = d[0]."""
    return (lambda v, d: f(v),
            lambda v, d: 1.0 + s * d[0] * d[0],
            lambda v, d: 2.0 * s * d[0] * d[1],
            lambda v, d: 2.0 * s * d[1] * (1.0 + 3.0 * s * d[0] * d[0]))


# the series of 1/v to order k divides by v, ..., v^(k+1)
_reciprocal = _elementary("reciprocal", (
    lambda v, d: 1.0 / v, lambda v, d: -1.0 / v**2,
    lambda v, d: 2.0 / v**3, lambda v, d: -6.0 / v**4),
    lambda v, k: v**(k + 1) != 0.0, "division by zero")
jsin = _elementary("sin", _oscillator_derivs(np.sin, np.cos, -1.0))
jcos = _elementary("cos", _oscillator_derivs(np.cos, lambda v: -np.sin(v),
                                             -1.0))
jtan = _elementary("tan", _tan_derivs(np.tan, 1.0))
jsinh = _elementary("sinh", _oscillator_derivs(np.sinh, np.cosh, 1.0))
jcosh = _elementary("cosh", _oscillator_derivs(np.cosh, np.sinh, 1.0))
jtanh = _elementary("tanh", _tan_derivs(np.tanh, -1.0))
jexp = _elementary("exp", (lambda v, d: np.exp(v), lambda v, d: d[0],
                           lambda v, d: d[0], lambda v, d: d[0]))
jln = _elementary("ln", (
    lambda v, d: np.log(v), lambda v, d: 1.0 / v,
    lambda v, d: -1.0 / v**2, lambda v, d: 2.0 / v**3),
    lambda v, k: v > 0.0, "ln of a nonpositive value")
jsqrt = _elementary("sqrt", (
    lambda v, d: np.sqrt(v), lambda v, d: 0.5 / d[0],
    lambda v, d: -0.25 / (d[0] * v), lambda v, d: 0.375 / (d[0] * v * v)),
    lambda v, k: v > 0.0, "sqrt of a nonpositive value")
jarctan = _elementary("arctan", (
    lambda v, d: np.arctan(v), lambda v, d: 1.0 / (1.0 + v * v),
    lambda v, d: -2.0 * v / (1.0 + v * v)**2,
    lambda v, d: (6.0 * v * v - 2.0) / (1.0 + v * v)**3))
jarcsin = _elementary("arcsin", (
    lambda v, d: np.arcsin(v), lambda v, d: 1.0 / np.sqrt(1.0 - v * v),
    lambda v, d: v / (np.sqrt(1.0 - v * v) * (1.0 - v * v)),
    lambda v, d: (1.0 + 2.0 * v * v)
    / (np.sqrt(1.0 - v * v) * (1.0 - v * v) * (1.0 - v * v))),
    lambda v, k: (-1.0 < v) & (v < 1.0), "arcsin outside (-1, 1)")


# ---------------------------------------------------------------------------
# Coefficient-first tensor helpers.  An array of shape
# (ncoeff, *batch, *shape) holds one jet per point and tensor component;
# all of them share one JetSpace.
# ---------------------------------------------------------------------------

def tconst(space: JetSpace, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.zeros((space.ncoeff,) + values.shape)
    out[0] = values
    return out


def tsym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a jet-valued matrix."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def tvalue(a: np.ndarray) -> np.ndarray:
    return a[0]


def ttrunc(space: JetSpace, a: np.ndarray, new_order: int) -> np.ndarray:
    if new_order == space.order:
        return a
    if new_order > space.order:
        raise ValueError("cannot raise jet order by truncation")
    return a[: space.degree_offsets[new_order + 1]]


def _segment_sum(space: JetSpace, prod: np.ndarray):
    """Sum the pair products of a scalar truncated product, one row per
    entry of the pair table, into their targets by ``np.add.reduceat``:
    at scalar shapes faster than :func:`tmul`'s gathers and adds."""
    return np.add.reduceat(prod, space._mul_starts, axis=0)


@lru_cache(maxsize=None)
def _tmul_plan(sub: str, ashape: tuple, bshape: tuple):
    """Axis orders and shapes that make (batch, free, summed) and
    (batch, summed, free) matrix stacks of the operands, the product's
    shape, and the output order.  The batch axes, in front of the ones
    ``sub`` names and the same in both operands, fold into one stack axis
    (none for one point: numpy loops over fewer axes faster)."""
    lhs, out = sub.split("->")
    sa, sb = lhs.split(",")
    con = [c for c in sa if c in sb]
    free = [c for c in sa if c not in sb] + [c for c in sb if c not in sa]
    nb = len(ashape) - len(sa)
    size = dict(zip(sa, ashape[nb:]))
    if (len(set(sa)) < len(sa) or len(set(sb)) < len(sb)
            or sorted(out) != sorted(free) or nb < 0
            or ashape[:nb] != bshape[:len(bshape) - len(sb)]
            or any(size.setdefault(c, n) != n
                   for c, n in zip(sb, bshape[nb:]))):
        raise ValueError(f"tmul cannot run {sub!r} on {ashape}, {bshape}")
    batch = ashape[:nb]
    stack = () if math.prod(batch) == 1 else (math.prod(batch),)
    lead = tuple(range(1, 1 + nb))
    na = len(sa) - len(con)
    m, k, n = (math.prod(size[c] for c in part)
               for part in (free[:na], con, free[na:]))
    return ((0, *lead, *(1 + nb + sa.index(c) for c in free[:na] + con)),
            stack + (m, k),
            (0, *lead, *(1 + nb + sb.index(c) for c in con + free[na:])),
            stack + (k, n),
            np.matmul if con else np.multiply,
            batch + tuple(size[c] for c in free),
            (0, *lead, *(1 + nb + free.index(c) for c in out)))


def tmul(space: JetSpace, a: np.ndarray, b: np.ndarray, sub: str) -> np.ndarray:
    """Jet-valued einsum: ``sub`` is an einsum spec over the tensor axes,
    e.g. ``"ij,jk->ik"``; the coefficient axis is convolved, and the axes
    between it and the ones ``sub`` names are batch axes, carried
    through: they must be the same in both operands (no broadcasting).

    A spec may name an index once per operand; an index of both operands
    is summed and every other one is an output axis (no trace, diagonal
    or one-sided sum), else ``ValueError``.  The pairs with a value part
    multiply as dense matrix stacks.  The cross pairs (both coefficients
    of degree >= 1) multiply by degree blocks: x = op(a[deg di][:, None],
    b[None, deg dj]) for di + dj <= K, where op is ``np.matmul``, or
    ``np.multiply`` when nothing is summed.  At order 2 the one block is
    (1, 1), and the target e_p + e_q gets x[p, q] + x[q, p], 2e_p gets
    x[p, p]; in general each target's pairs are added in pair-table
    order, one gather of the flattened blocks per rank of pair."""
    perm_a, amk, perm_b, bkn, op, shape, perm_out = _tmul_plan(
        sub, a.shape[1:], b.shape[1:])
    a = a.transpose(perm_a).reshape((-1,) + amk)
    b = b.transpose(perm_b).reshape((-1,) + bkn)
    out = op(a[0], b)                       # the pairs (0, t)
    out[1:] += op(a[1:], b[0])              # the pairs (t, 0), t > 0
    if space.order >= 2:
        off, rows = space.degree_offsets, (-1,) + out.shape[1:]
        x = [op(a[off[di]:off[di + 1], None],
                b[None, off[dj]:off[dj + 1]]).reshape(rows)
             for di, dj in space._blocks]
        x = x[0] if len(x) == 1 else np.concatenate(x)
        (_, first), *rest = space._fold
        cross = x[first]
        for targets, pairs in rest:
            cross[targets] += x[pairs]
        out[space._cross_first:] += cross
    return out.reshape((-1,) + shape).transpose(perm_out)


def tscale(space: JetSpace, scalar: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Multiply a tensor-jet array by a scalar jet of the same batch: one
    :func:`tmul` with the spec ``",ij->ij"`` for a matrix, ``",i->i"``
    for a vector."""
    axes = "ijklmn"[:a.ndim - scalar.ndim]
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


def tgrad0(space: JetSpace, a: np.ndarray) -> np.ndarray:
    """The value row of :func:`tgrad`, ``(*batch, *shape, m)``: the
    degree-1 coefficients, which are the first partials as they stand."""
    if space.order < 1:
        raise ValueError("cannot differentiate an order-0 jet")
    return np.moveaxis(a[1:1 + space.m], 0, -1)


class SingularMetricError(ArithmeticError):
    """Metric (or frame) matrix is numerically singular."""


def tminv(space: JetSpace, g: np.ndarray) -> np.ndarray:
    """Inverse of a jet-valued square matrix, at every point.

    The value part is inverted by LU (numpy); the derivative parts follow
    from the truncated Neumann series, which is exact because the
    non-constant part is nilpotent in the truncated algebra.  A point is
    singular when sigma_min <= 1e-12 sigma_max, at any scale."""
    g0 = g[0]
    sv = np.linalg.svd(g0, compute_uv=False)
    singular = sv[..., -1] <= 1e-12 * sv[..., 0]
    if singular.any():
        sv = sv[singular][0]
        raise SingularMetricError(f"singular values {sv[-1]:.3e} .. "
                                  f"{sv[0]:.3e}: ratio below threshold")
    g0i = np.linalg.inv(g0)
    n = g.copy()
    n[0] = 0.0
    x = -(g0i @ n)                  # constant matrix times jet matrix
    eye = tconst(space, np.broadcast_to(np.eye(g0.shape[-1]), g0.shape))
    series = eye
    for _ in range(space.order):
        series = eye + tmul(space, series, x, "ab,bc->ac")
    return series @ g0i


FUNCTION_TABLE = {
    "sin": jsin, "cos": jcos, "tan": jtan,
    "sinh": jsinh, "cosh": jcosh, "tanh": jtanh,
    "exp": jexp, "ln": jln, "sqrt": jsqrt,
    "arctan": jarctan, "arcsin": jarcsin,
}
