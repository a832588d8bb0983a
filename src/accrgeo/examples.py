"""Built-in example structures and sampling helpers.

Registry names:

* ``flat-f0``        -- flat chart with the canonical constant structure;
                        F vanishes identically.
* ``hypersurface-f5`` -- warped-product chart on R^(2n+1) whose fiber
                        metric is scaled by p(t) = exp(2 arctan(sinh t));
                        the structure is purely of the
                        eta-times-metric-of-phi shape (the "F5" class)
                        with theta*(xi) = 2n / cosh t, and xi is a
                        vertical torse-forming field with conformal
                        scalar f = 1 / cosh t.
* ``random``         -- structure obtained by conjugating the flat model
                        with a randomly generated near-identity frame
                        matrix of expression entries; exercises charts
                        with no special class membership.
* ``embedded-sphere`` -- the time-like sphere of complexified radius in
                        C^(n+1) (viewed as R^(2n+2) with its
                        canonical complex structure and the real part of
                        the complex bilinear dot product as metric), with
                        the induced structure: the classical F5 model,
                        with theta*(xi) = 2n / cosh t and the vertical
                        torse-forming xi = (1/sinh t) d/dt.  Its chart
                        pairs the coordinates as ``hypersurface-f5`` does,
                        so every command and preset runs on it; the tests
                        check it against its ambient data.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .accr import (ChartStructure, FrameStructure, StructureJets,
                   StructureProvider, _T, canonical_flat_fields)
from .geometry import coordinate_bindings, eval_expr_table
from .jets import jet_space, tgrad, tminv, tmul, tscale, tsym
from .transform import TransformTriple

DEFAULT_BOX = (0.5, 1.5)


def coord_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(2 * n)] + ["t"]


def build_flat_f0(n: int = 1) -> ChartStructure:
    g, phi, xi, eta = canonical_flat_fields(n)
    return ChartStructure(n, coord_names(n), g=g, phi=phi, xi=xi, eta=eta,
                          fk=lambda points: np.zeros(np.shape(points)[:-1]))


def sech_t(points):
    """f/k = 1 / cosh t of the warped model and the embedded sphere."""
    return 1.0 / np.cosh(np.asarray(points, dtype=float)[..., -1])


def build_hypersurface(n: int = 1) -> ChartStructure:
    """Chart model of the time-like-sphere hypersurface:

        g = p(t) Re( Q(w)^{s_n} sum_j dw_j^2 ) + dt^2,
        w_j = x^j + i x^{n+j},  Q = prod_k w_k^2,
        p(t) = exp(2 arctan(sinh t)),  s_1 = 0,  s_n = 1 for n >= 2,

    with the canonical constant phi (multiplication by i on each complex
    pair) and xi = d/dt.  The horizontal block is the real part of a
    holomorphic metric, so phi is parallel along horizontal directions
    and the whole deformation tensor F comes from the t-warp: the
    structure is exactly of the pure theta* class with theta = omega = 0,
    theta*(xi) = 2n p'/(2p) = 2n / cosh t, and xi is vertical
    torse-forming with conformal scalar f = p'/(2p) = 1 / cosh t.

    The exponent s_n fixes the holomorphic factor so that the standard
    deformation with u = (1/2) sum_j ln|w_j|^2 + ell(t),
    v = sum_j arctan(x^j / x^{n+j}) (whose joint factor
    e^{2u + 2iv} equals e^{2 ell} conj(Q) up to sign) produces a
    transformed horizontal metric of constant scalar curvature when
    e^{2 ell} p = const:

    * n = 1: the deformed block is Re(conj(w^2) dw^2), which is flat
      (Rindler form in the coordinates |w|^2/2, 2 arg w).
    * n = 2: the deformed block is |Q|^2 Re(sum dw_j^2), conformally
      flat with factor e^{2f}, f = sum 2 ln|w_j|; the neutral flat
      Laplacian satisfies box f = -|grad f|^2, and in real dimension 4
      the conformal curvature combination 2 box f + (m-2)|grad f|^2
      vanishes identically, so the scalar curvature is exactly zero.

    For n >= 3 the same s_n = 1 factor keeps all structural properties
    (axioms, pure theta* class, torse-forming data); constancy of the
    deformed scalar curvature is specific to n <= 2.
    Requires all w_j != 0; valid on the standard positive sample box.
    """
    d = 2 * n + 1
    p = ex.parse("exp(2 * arctan(sinh(t)))")
    s = 0 if n == 1 else 1
    # Q^s = R^s e^{2 i s Abar}, Abar = sum arctan(x^{n+j}/x^j)
    abar = ex.Const(0.0)
    big_r = ex.Const(1.0)
    for j in range(n):
        xj, xnj = ex.Var(f"x{j + 1}"), ex.Var(f"x{n + j + 1}")
        abar = abar + ex.func("arctan", xnj / xj)
        big_r = big_r * (xj ** 2 + xnj ** 2)
    if s == 0:
        a, b = p, ex.Const(0.0)
    else:
        a = p * big_r * ex.func("cos", 2.0 * abar)
        b = p * big_r * ex.func("sin", 2.0 * abar)
    g = [[ex.Const(0.0)] * d for _ in range(d)]
    for j in range(n):
        # Re((a + i b)(dx^j + i dx^{n+j})^2)
        g[j][j] = a
        g[n + j][n + j] = -a
        g[j][n + j] = -b
        g[n + j][j] = -b
    g[d - 1][d - 1] = ex.Const(1.0)
    _, phi, xi, eta = canonical_flat_fields(n)
    return ChartStructure(n, coord_names(n), g=g, phi=phi, xi=xi, eta=eta,
                          fk=sech_t)


def random_structure(n: int = 1, seed: int = 0) -> FrameStructure:
    """Near-identity random expression frame conjugating the flat model.

    Off-diagonal entries are eps * (c1 sin(x_a) + c2 x_b) with
    eps <= 0.2/d, which keeps ||A - I|| < 1 on any chart point, so A is
    invertible everywhere and no rejection step is needed.
    """
    rng = np.random.default_rng(seed)
    d = 2 * n + 1
    names = coord_names(n)
    eps = 0.2 / d
    frame = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            # floats: a numpy scalar first tries to make a tree an array
            c1, c2 = rng.uniform(-1.0, 1.0, size=2).tolist()
            a, b = rng.integers(0, d, size=2)
            entry = eps * (c1 * ex.func("sin", ex.Var(names[a]))
                           + c2 * ex.Var(names[b]))
            if i == j:
                entry = 1.0 + entry
            frame[i][j] = entry
    return FrameStructure(n, names, frame)


def sample_points(dim: int, count: int, seed: int = 0,
                  box=DEFAULT_BOX) -> np.ndarray:
    """Deterministic uniform sample of chart points inside the cube
    ``box`` = (lo, hi)."""
    lo, hi = map(float, box)
    return lo + (hi - lo) * np.random.default_rng(seed).random((count, dim))


# ---------------------------------------------------------------------------
# The transformation triple of the worked soliton construction
# ---------------------------------------------------------------------------

def soliton_uvw(n: int = 1, ell: str = "-arctan(sinh(t))", h: str = "t^2"):
    """The (u, v, w) triple that turns the warped model into a Yamabe
    soliton:

        u = (1/2) sum_i ln(x_i^2 + x_{n+i}^2) + ell(t),
        v = sum_i arctan(x_i / x_{n+i}),
        w = h(t).

    With the default ell = -arctan(sinh t) the vertical rate du(xi)
    equals -1/cosh t, exactly cancelling the torse-forming scalar of the
    warped model, while dv(xi) = 0 and dw is purely vertical.  Any
    vertical h keeps the soliton property; h = t^2 is a representative
    non-constant choice.
    """
    u = ex.parse(ell)
    v = ex.Const(0.0)
    for i in range(n):
        xi_, xni = ex.Var(f"x{i + 1}"), ex.Var(f"x{n + i + 1}")
        u = u + 0.5 * ex.func("ln", xi_ ** 2 + xni ** 2)
        v = v + ex.func("arctan", xi_ / xni)
    return TransformTriple(u, v, ex.parse(h))


def holomorphic_pair_uvw(n: int = 1):
    """A (u, v, 0) triple whose horizontal pair satisfies the
    Cauchy-Riemann relations u_,i = v_,{n+i}, u_,{n+i} = -v_,i for
    every i, so alpha and beta vanish against horizontal arguments on
    the flat model:  u = x1^2 - x_{n+1}^2, v = 2 x1 x_{n+1}."""
    x1, xn1 = ex.Var("x1"), ex.Var(f"x{n + 1}")
    return TransformTriple(x1 ** 2 - xn1 ** 2, 2.0 * x1 * xn1, ex.Const(0.0))


# ---------------------------------------------------------------------------
# Embedded model: time-like sphere in C^(n+1)
# ---------------------------------------------------------------------------

def _gram(x, y):
    """sum_m x_mj y_mk: the Gram matrix of the columns of x and y."""
    return _T(x) @ y


class EmbeddedSphere(StructureProvider):
    """Hypersurface sum_j (z^j)^2 = cosh^2(t) in C^(n+1), parametrized by
    n complex angles zeta_k = x_k + i x_{n+k} and the radial coordinate t
    (the chart of :func:`coord_names`):

        Z = cosh(t) * zhat(zeta),   zhat = spherical unit vector,
        zhat^1 = cos zeta_1, zhat^2 = sin zeta_1 cos zeta_2, ...,
        zhat^(n+1) = sin zeta_1 ... sin zeta_n.

    The ambient space R^(2n+2) carries the canonical complex structure J
    (multiplication by i) and the neutral metric G(X, Y) = Re(z_X . z_Y)
    with the complex bilinear dot product.  The induced data are

        g_jk  = Re(d_j Z . d_k Z),
        phi^k_j = g^{km} G(J d_j Z, d_m Z) = -g^{km} Im(d_j Z . d_m Z),
        xi = (1/sinh t) d/dt,   eta_j = g_{jt} / sinh t.

    Valid away from sinh t = 0 and the polar degeneracies of the angles.
    """

    def __init__(self, n: int = 1):
        self.n = n
        self.coords = coord_names(n)
        self.fk = sech_t
        a, b = ([ex.Var(c) for c in self.coords[k * n:(k + 1) * n]]
                for k in (0, 1))
        t = ex.Var("t")
        f = ex.func
        # complex trig of zeta = a + i b, as (Re, Im) pairs
        cos_z = [(f("cos", x) * f("cosh", y), -(f("sin", x) * f("sinh", y)))
                 for x, y in zip(a, b)]
        sin_z = [(f("sin", x) * f("cosh", y), f("cos", x) * f("sinh", y))
                 for x, y in zip(a, b)]

        def cmul(p, q):
            return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

        comps, prefix = [cos_z[0]], sin_z[0]    # prefix: sin zeta_1 ...
        for cz, sz in zip(cos_z[1:], sin_z[1:]):
            comps.append(cmul(prefix, cz))
            prefix = cmul(prefix, sz)
        comps.append(prefix)
        cosh_t = f("cosh", t)
        self.position = ex.expr_table(
            [[cosh_t * re, cosh_t * im] for re, im in comps], (n + 1, 2))
        self.csch = ex.expr_table([1.0 / f("sinh", t)], (1,))

    def embedding_jets(self, points, order: int):
        """Tensor-jet array Z[..., m, c] of the ambient position, with m
        the complex ambient index and c in {0: Re, 1: Im}."""
        space = jet_space(self.dim, order)
        return space, eval_expr_table(
            space, self.position,
            coordinate_bindings(self.coords, points, order))

    def structure_at(self, points, order: int) -> StructureJets:
        parent, Z = self.embedding_jets(points, order + 1)
        space = parent.child
        d = self.dim
        dZ = tgrad(parent, Z)                 # dZ[..., m, c, j] = d_j Z^m_c
        dZr, dZi = dZ[..., 0, :], dZ[..., 1, :]
        # complex Gram C_jk = d_j Z . d_k Z
        cre = tmul(space, dZr, dZr, _gram) - tmul(space, dZi, dZi, _gram)
        cim = tmul(space, dZr, dZi, _gram) + tmul(space, dZi, dZr, _gram)
        g = tsym(cre)
        ginv = tminv(space, g)
        # phi^k_j = -g^km Im C_jm = -g^km Im C_mj, as C is symmetric
        phi = tmul(space, ginv, -tsym(cim), np.matmul)
        pts = np.asarray(points, dtype=float)
        csch = eval_expr_table(space, self.csch, coordinate_bindings(
            self.coords, pts, space.order))[..., 0]
        xi = np.zeros(csch.shape + (d,))
        xi[..., d - 1] = csch
        eta = tscale(space, csch, g[..., d - 1])
        return StructureJets(space, pts, g, phi, xi, eta)


# ---------------------------------------------------------------------------
# The models the commands can name
# ---------------------------------------------------------------------------

REGISTRY = {
    "flat-f0": build_flat_f0,
    "hypersurface-f5": build_hypersurface,
    "random": random_structure,
    "embedded-sphere": EmbeddedSphere,
}


def get_example(name: str, n: int = 1, seed: int = 0) -> StructureProvider:
    if name not in REGISTRY:
        raise KeyError(f"unknown example {name!r}; "
                       f"choose from {sorted(REGISTRY)}")
    if name == "random":
        return random_structure(n=n, seed=seed)
    return REGISTRY[name](n=n)
