"""Reference code the tests compare the package against.

Nothing here runs on a command's path.  Each helper either computes a
quantity by a route independent of the one it checks (a plain float
evaluation of an expression, the closed forms of a deformed F, the
ambient data of an embedding), or reads jets through the public data of
a ``JetSpace`` (its ``indices``, ``index_of`` and the factorials), so
that a test of a kernel such as ``tgrad``, or of the tables the kernels
read, does not go through that kernel.  The metric helpers build a
chart metric on the path the commands use: ``eval_expr_table`` over
``coordinate_bindings``, then ``FrameEval.from_metric``;
``torse_analysis`` evaluates a field table and its structure the way the
torse command does.
"""

import math
from dataclasses import replace

import numpy as np

from accrgeo import expr as ex
from accrgeo.accr import (AccrEval, _maxabs, _outer, _sym_yz, _T, _vm,
                          structure_eval, torse_forming_analyze)
from accrgeo.expr import Bin, Const, EvalError, Func, Neg, Pow, Var
from accrgeo.geometry import (FrameEval, coordinate_bindings, eval_expr_table,
                               ricci_from_riemann, riemann)
from accrgeo.jets import jet_space, tgrad, tscale, tsym, tvalue
from accrgeo.transform import Differentials, TransformTriple, deform


# ---------------------------------------------------------------------------
# Jets, triples and chart metrics
# ---------------------------------------------------------------------------

def einsum_op(sub):
    """The bilinear value map of an einsum spec over the tensor axes, as
    :func:`accrgeo.jets.tmul` takes it: the leading axes broadcast."""
    lhs, out = sub.split("->")
    sa, sb = lhs.split(",")
    return lambda x, y: np.einsum(f"...{sa},...{sb}->...{out}", x, y)


def partial(space, a: np.ndarray, *vars_: int) -> float:
    """Raw partial derivative of the scalar jet ``a`` at one point for
    the given (unordered) variable list: the Taylor coefficient times the
    factorials of the multi-index."""
    e = [0] * space.m
    for v in vars_:
        e[v] += 1
    if sum(e) > space.order:
        raise ValueError("derivative order exceeds jet order")
    fact = 1.0
    for k in e:
        fact *= math.factorial(k)
    return float(a[space.index_of[tuple(e)]] * fact)


def loop_tables(space) -> dict:
    """The product tables of ``space``, built by loops over its
    multi-indices: the degree offsets; the pairs (i, j) with deg i +
    deg j <= K, in row order, stably sorted by target, and the first
    pair of each target; the cross-pair blocks (di, dj), the first
    coefficient of degree 2, and the fold: for each rank r, the targets
    (less the first of degree 2) that have an r-th cross pair and its
    position in the blocks flattened one after another."""
    order, idx = space.order, space.indices
    deg = [sum(a) for a in idx]
    off = [0] * (order + 2)
    for d in deg:
        off[d + 1] += 1
    for d in range(order + 1):
        off[d + 1] += off[d]
    pairs = []
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            if deg[i] + deg[j] <= order:
                t = space.index_of[tuple(x + y for x, y in zip(a, b))]
                pairs.append((t, i, j))
    pairs.sort(key=lambda p: p[0])
    starts = [0] * len(idx)
    for k in reversed(range(len(pairs))):
        starts[pairs[k][0]] = k
    blocks, block_start, size = [], {}, 0
    for di in range(1, order + 1):
        for dj in range(1, order + 1):
            if di + dj <= order:
                blocks.append((di, dj))
                block_start[di, dj] = size
                size += (off[di + 1] - off[di]) * (off[dj + 1] - off[dj])
    cross_first = sum(d < 2 for d in deg)
    fold, rank = [], {}
    for t, i, j in pairs:
        if i and j:
            r = rank[t] = rank.get(t, -1) + 1
            if r == len(fold):
                fold.append(([], []))
            di, dj = deg[i], deg[j]
            fold[r][0].append(t - cross_first)
            fold[r][1].append(block_start[di, dj] + j - off[dj]
                              + (i - off[di]) * (off[dj + 1] - off[dj]))
    t, i, j = (np.array(c) for c in zip(*pairs))
    return {"degree_offsets": off, "_mul_i": i, "_mul_j": j, "_mul_t": t,
            "_mul_starts": np.array(starts), "_blocks": blocks,
            "_cross_first": cross_first,
            "_fold": [tuple(map(np.array, f)) for f in fold]}


def loop_tgrad(space, a: np.ndarray) -> np.ndarray:
    """:func:`accrgeo.jets.tgrad` by a loop over the child coefficients b
    and the variables v: d/dx_v takes the coefficient at b + e_v times
    b_v + 1 to b."""
    child = space.child
    out = np.zeros((child.ncoeff,) + a.shape[1:] + (space.m,))
    for k, b in enumerate(child.indices):
        for v in range(space.m):
            e = list(b)
            e[v] += 1
            out[k, ..., v] = a[space.index_of[tuple(e)]] * (b[v] + 1)
    return out


def uvw(u, v, w) -> TransformTriple:
    """The triple of three expressions, texts or numbers."""
    return TransformTriple(*map(ex.as_expr, (u, v, w)))


def deform_full_order(S, a, b, c, e_minus_w, e_w):
    """:func:`accrgeo.transform.deform` with xi_bar = e^-w xi and eta_bar
    = e^w eta kept at the base's order, each one ``tscale`` in the base
    space: a deformed structure that is a base for another deformation
    above order 1."""
    return replace(deform(S, a, b, c, e_minus_w, e_w),
                   xi=tscale(S.space, e_minus_w, S.xi),
                   eta=tscale(S.space, e_w, S.eta))


def metric_jets(coords, g, points, order: int):
    """(space, g): the symmetrized jets of the metric with components
    ``g`` (trees, texts or numbers) at chart points."""
    d = len(coords)
    space = jet_space(d, order)
    jets = eval_expr_table(space, ex.expr_table(g, (d, d)),
                           coordinate_bindings(coords, points, order))
    return space, tsym(jets)


def metric_frame(coords, g, points, order: int = 2) -> FrameEval:
    return FrameEval.from_metric(*metric_jets(coords, g, points, order))


def scalar_curvature(coords, g, point) -> float:
    return float(metric_frame(coords, g, point, order=2).tau)


def curvature(coords, g, point):
    """(g, R^l_ijk, R_ik): the values of the metric, its Riemann tensor and
    its Ricci tensor at a chart point, from the metric's order-2 jets."""
    space, g = metric_jets(coords, g, point, order=2)
    riem = riemann(space.child, FrameEval.from_metric(space, g).gamma)
    return tvalue(g), riem, ricci_from_riemann(riem)


# ---------------------------------------------------------------------------
# Plain float evaluation of an expression
# ---------------------------------------------------------------------------

_FLOAT_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
    "arctan": math.atan, "arcsin": math.asin,
}


def eval_float(e: ex.Expr, bindings: dict[str, float]) -> float:
    """Plain order-0 evaluation over floats."""
    match e:
        case Const(value):
            return value
        case Var(name):
            try:
                return float(bindings[name])
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None
        case Neg(arg):
            return -eval_float(arg, bindings)
        case Bin(op, left, right):
            a = eval_float(left, bindings)
            b = eval_float(right, bindings)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0.0:
                raise EvalError("division by zero")
            return a / b
        case Pow(base, exponent):
            b = eval_float(base, bindings)
            if exponent.is_integer():
                return b ** int(exponent)
            if b <= 0.0:
                raise EvalError("non-integer power of a nonpositive base")
            return math.exp(exponent * math.log(b))
        case Func(name, arg):
            v = eval_float(arg, bindings)
            if name in ("ln", "sqrt") and v <= 0.0:
                raise EvalError(f"{name} of a nonpositive value")
            if name == "arcsin" and not -1.0 < v < 1.0:
                raise EvalError("arcsin outside (-1, 1)")
            return _FLOAT_FUNCS[name](v)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Closed forms of the deformed F on a pure-F5 base; shapes of a triple
# ---------------------------------------------------------------------------

def fbar_f5_closed_form(ev: AccrEval, ev_bar: AccrEval, d: Differentials,
                        fk) -> dict:
    """Deviation of the directly computed deformed F from the two closed
    forms available for a pure-F5 input with vertical torse-forming data
    (conformal scalar ratio ``fk`` = f/k at each point).

    Returns max-norm deviations for the g-expressed and the
    gbar-expressed forms, relative to the deformed F's scale.
    """
    g0, phi0, eta0 = ev.g0, ev.phi0, ev.eta0
    gb, etab = ev_bar.g0, ev_bar.eta0
    c, s = np.cos(2.0 * d.v)[..., None], np.sin(2.0 * d.v)[..., None]
    e2u = np.exp(2.0 * d.u)[..., None, None, None]
    e2w = np.exp(2.0 * d.w)[..., None, None, None]
    bfk = d.beta + np.asarray(fk)[..., None] * eta0
    lam = c * d.alpha + s * bfk
    mu = c * bfk - s * d.alpha
    dwp = _vm(d.dw, phi0)
    F_g = (e2w * _sym_yz(_outer(eta0, eta0), dwp)
           - e2u * (_sym_yz(_T(phi0) @ g0 @ phi0, lam)
                    + _sym_yz(g0 @ phi0, mu)))
    F_gb = (_sym_yz(_outer(etab, etab), dwp)
            - _sym_yz(_T(phi0) @ gb @ phi0, d.alpha)
            - _sym_yz(gb @ phi0, bfk))
    scale = np.maximum(1.0, _maxabs(ev_bar.F, 3))
    return {
        "fbar_vs_g_form": _maxabs(ev_bar.F - F_g, 3) / scale,
        "fbar_vs_gbar_form": _maxabs(ev_bar.F - F_gb, 3) / scale,
    }


def shape_residuals(d: Differentials, phi0) -> dict:
    """Residuals of the shapes of the deformation's functions at each
    point, for the value ``phi0`` of phi: w horizontally constant
    (dw o phi^2 = 0), and (u, v) a holomorphic pair when both ``holo_*``
    vanish."""
    phi2 = phi0 @ phi0
    return {
        "w_horizontal_constant": _maxabs(_vm(d.dw, phi2), 1),
        "holo_1": _maxabs(_vm(d.du, phi0) - _vm(d.dv, phi2), 1),
        "holo_2": _maxabs(_vm(d.du, phi2) + _vm(d.dv, phi0), 1),
    }


def torse_analysis(provider, field, points):
    """``(residuals, sample)`` of the torse analysis of the field table
    ``field`` (an :func:`accrgeo.expr.expr_table` of shape ``(dim,)``) at
    chart points, from order-1 jets; the vertical identities are among
    the residuals only where every point is vertical, as the torse
    report holds them."""
    ev = structure_eval(provider, points)
    vf = eval_expr_table(ev.S.space, field, coordinate_bindings(
        provider.coords, ev.S.point, ev.S.space.order))
    res, vertical, sample = torse_forming_analyze(ev, vf)
    if not vertical.all():
        res = {k: res[k] for k in ("torse_fit", "dk_identity",
                                   "verticality")}
    return res, sample


# ---------------------------------------------------------------------------
# Ambient data of the embedded sphere
# ---------------------------------------------------------------------------

def embedding_invariants(model, point) -> dict[str, float]:
    """Residuals tying the intrinsic chart data to the ambient picture.

    * ``constraint``     : sum (z^j)^2 - cosh^2 t (real and imaginary).
    * ``jacobian_rank``  : 0 if the embedding differential has full rank.
    * ``normal_unit``    : G(N, N) + 1 for N = (1/cosh t) J Z.
    * ``normal_orth``    : G(N, d_j Z) for all j.
    * ``xi_position``    : ambient xi - Z / cosh t (so xi = -J N).
    * ``j_decomposition``: J dZ(X) - dZ(phi X) - eta(X) N over a basis.
    * ``gauss``          : tangential part of d_i d_j Z - Gamma^k_ij d_k Z
                           (the remainder must be purely normal).
    """
    d = model.dim
    parent, Z = model.embedding_jets(point, 2)
    space = parent.child
    dZ = tgrad(parent, Z)
    dZ0 = tvalue(dZ)                          # [m, c, j]
    Z0 = tvalue(Z)                            # [m, c]
    t = float(point[d - 1])
    ch, shv = np.cosh(t), np.sinh(t)

    zz = np.sum((Z0[:, 0] + 1j * Z0[:, 1]) ** 2)
    res = {"constraint": max(abs(zz.real - ch * ch), abs(zz.imag))}

    jac = dZ0.reshape(2 * (model.n + 1), d)
    sv = np.linalg.svd(jac, compute_uv=False)
    res["jacobian_rank"] = 0.0 if sv[d - 1] > 1e-8 * sv[0] else 1.0

    def G(x, y):
        z = np.sum((x[:, 0] + 1j * x[:, 1]) * (y[:, 0] + 1j * y[:, 1]))
        return z.real

    def J(x):
        return np.stack([-x[:, 1], x[:, 0]], axis=1)

    N = J(Z0) / ch
    res["normal_unit"] = abs(G(N, N) + 1.0)
    res["normal_orth"] = max(abs(G(N, dZ0[:, :, j])) for j in range(d))

    ev = structure_eval(model, point, order=1)
    xi0, eta0, phi0 = ev.xi0, ev.eta0, ev.phi0
    xi_amb = np.einsum("mcj,j->mc", dZ0, xi0)
    res["xi_position"] = float(_maxabs(xi_amb - Z0 / ch, 2))

    jd = 0.0
    for j in range(d):
        lhs = J(dZ0[:, :, j])
        rhs = np.einsum("mck,k->mc", dZ0, phi0[:, j]) + eta0[j] * N
        jd = max(jd, float(_maxabs(lhs - rhs, 2)))
    res["j_decomposition"] = jd

    # Gauss: ambient Hessian minus Christoffel part must be normal
    ddZ = tvalue(tgrad(space, dZ))            # [m, c, j, i] = d_i d_j Z
    gamma0 = tvalue(ev.frame.gamma)           # [k, i, j]
    rem = ddZ - np.einsum("mck,kij->mcji", dZ0, gamma0)
    gs = 0.0
    for i in range(d):
        for j in range(d):
            v = rem[:, :, j, i]
            c = -G(v, N)                      # G(N, N) = -1
            gs = max(gs, float(_maxabs(v - c * N, 2)))
    res["gauss"] = gs
    return res
