"""Chart-level pseudo-Riemannian machinery on coefficient-first tensor-jet
arrays of :mod:`accrgeo.jets`, carrying their batch axes through.
:func:`christoffels` turns metric jets into Christoffel jets one order
lower, the last jets built here, from g^-1 one order below g (no reader
needs more).  :func:`riemann` and the covariant and Lie derivatives take
jets of order >= 1 and return values of shape ``(*batch, *tensor_shape)``,
read off value rows and first partials.
Index conventions:

* Christoffel symbols ``gamma[k, i, j]`` = Gamma^k_ij,
* Riemann tensor ``riem[l, i, j, k]`` = R^l_ijk
  = d_j Gamma^l_ik - d_k Gamma^l_ij + Gamma^l_jm Gamma^m_ik
  - Gamma^l_km Gamma^m_ij,
* Ricci ``R_ik = R^l_ilk``; the sign is fixed so that the unit 2-sphere
  has scalar curvature +2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .jets import (JetSpace, SingularMetricError, jet_space, tgrad, tgrad0,
                   tminv, tmul, ttrunc)

__all__ = [
    "FrameEval", "SingularMetricError",
    "christoffels", "riemann", "ricci_from_riemann",
    "cov_deriv_tensor11", "cov_deriv_vector", "cov_deriv_covector",
    "cov_deriv_metric", "lie_metric_coord", "lie_metric_cov", "signature",
]


def coordinate_bindings(coords, points,
                        order: int) -> dict[str, np.ndarray]:
    """Jets of the coordinate functions at chart points in
    ``jet_space(len(coords), order)``, coordinate i seeding variable i:
    the bindings every chart evaluation uses.  ``points`` has shape
    ``(*batch, len(coords))``; one point is the empty batch."""
    points = np.asarray(points, dtype=float)
    m, nc = len(coords), jet_space(len(coords), order).ncoeff
    seeds = np.zeros((m, nc) + points.shape[:-1])
    seeds[:, 0] = points.transpose((-1, *range(points.ndim - 1)))
    seeds[:, 1:] = np.eye(m, nc - 1)[(..., *[None] * (points.ndim - 1))]
    return dict(zip(coords, seeds))


def eval_expr_table(space: JetSpace, table,
                    bindings: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate an object array of Expr (see :func:`accrgeo.expr.expr_table`)
    into a tensor-jet array of shape ``(ncoeff, *batch, *table.shape)``,
    under the bindings of chart points (see :func:`coordinate_bindings`);
    shared nodes are evaluated once."""
    jets = np.array(ex.eval_jets(space, table.flat, bindings))
    return jets.transpose((*range(1, jets.ndim), 0)).reshape(
        jets.shape[1:] + table.shape)


def christoffels(space: JetSpace, g: np.ndarray, ginv: np.ndarray):
    """Levi-Civita symbols Gamma^k_ij as jets in ``space.child`` (order
    K-1), from the metric jets g of order K and the inverse jets of order
    K-1."""
    dg = tgrad(space, g)                      # dg[i,j,l] = d_l g_ij
    # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, a matrix in l, (i, j)
    t = (np.einsum("...jli->...lij", dg) + np.einsum("...ilj->...lij", dg)
         - np.einsum("...ijl->...lij", dg))
    gamma = tmul(space.child, ginv, t.reshape(t.shape[:-2] + (-1,)),
                 np.matmul)
    return 0.5 * gamma.reshape(gamma.shape[:-1] + t.shape[-2:])


def _contract(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_m t_abm x^m... as ``[..., a, b, ...]`` by one matmul: Gamma's
    last lower index for t = Gamma, its upper one for t = ``np.moveaxis(
    Gamma, -3, -1)``."""
    b, d = t.shape[:-3], t.shape[-1]
    return (t.reshape(*b, d * d, d) @ x.reshape(*b, d, -1)).reshape(
        *b, d, d, *x.shape[len(b) + 1:])


def riemann(space: JetSpace, gamma: np.ndarray) -> np.ndarray:
    """Curvature R^l_ijk from Christoffel jets in ``space``."""
    dgam = tgrad0(space, gamma)               # dgam[l,i,j,m] = d_m Gamma^l_ij
    quad = np.swapaxes(_contract(gamma[0], gamma[0]), -3, -2)
    return (np.swapaxes(dgam, -1, -2) - dgam
            + quad - np.swapaxes(quad, -1, -2))


def ricci_from_riemann(riem: np.ndarray) -> np.ndarray:
    return np.einsum("...lilk->...ik", riem)


def cov_deriv_tensor11(space: JetSpace, gamma: np.ndarray, phi: np.ndarray):
    """nabla_i phi^k_j as ``[..., i, k, j]``."""
    dphi = tgrad0(space, phi)                 # dphi[k,j,i] = d_i phi^k_j
    up = np.moveaxis(gamma[0], -3, -1)        # up[i,j,m] = Gamma^m_ij
    return (np.moveaxis(dphi, -1, -3)
            + np.swapaxes(_contract(gamma[0], phi[0]), -3, -2)
            - np.swapaxes(_contract(up, np.swapaxes(phi[0], -1, -2)), -1, -2))


def cov_deriv_vector(space: JetSpace, gamma: np.ndarray, v: np.ndarray):
    """nabla_i v^k as ``[..., i, k]``."""
    dv = tgrad0(space, v)                     # dv[k,i] = d_i v^k
    return np.swapaxes(dv + _contract(gamma[0], v[0]), -1, -2)


def cov_deriv_covector(space: JetSpace, gamma: np.ndarray, a: np.ndarray):
    """nabla_i a_j as ``[..., i, j]``."""
    da = tgrad0(space, a)                     # da[j,i] = d_i a_j
    return (np.swapaxes(da, -1, -2)
            - _contract(np.moveaxis(gamma[0], -3, -1), a[0]))


def cov_deriv_metric(space: JetSpace, gamma: np.ndarray, g: np.ndarray):
    """nabla_l g_ij as ``[..., l, i, j]`` (metricity residual check)."""
    dg = tgrad0(space, g)                     # dg[i,j,l] = d_l g_ij
    up, g0 = np.moveaxis(gamma[0], -3, -1), g[0]
    return (np.moveaxis(dg, -1, -3) - _contract(up, g0)
            - np.swapaxes(_contract(up, np.swapaxes(g0, -1, -2)), -1, -2))


def lie_metric_coord(space: JetSpace, g: np.ndarray, v: np.ndarray):
    """(L_V g)_ij by the coordinate formula."""
    dg = tgrad0(space, g)                     # dg[i,j,k] = d_k g_ij
    dv = tgrad0(space, v)                     # dv[k,i] = d_i v^k
    g0 = g[0]
    return ((dg @ v[0][..., None, :, None])[..., 0]
            + np.swapaxes(dv, -1, -2) @ g0 + g0 @ dv)


def lie_metric_cov(g0: np.ndarray, nabla_v: np.ndarray) -> np.ndarray:
    """(L_V g)_ij = g_kj nabla_i V^k + g_ik nabla_j V^k, on values."""
    return nabla_v @ g0 + g0 @ np.swapaxes(nabla_v, -1, -2)


def signature(g0: np.ndarray):
    """(positive, negative) eigenvalue counts of a symmetric matrix, or
    of each matrix of a batch ``(*batch, d, d)``."""
    w = np.linalg.eigvalsh(0.5 * (g0 + np.swapaxes(g0, -1, -2)))
    return np.sum(w > 0, axis=-1), np.sum(w < 0, axis=-1)


@dataclass
class FrameEval:
    """All pointwise evaluated metric data at a batch of chart points.

    ginv and gamma are tensor-jet arrays one order below the metric's
    jets (ginv at order 0 too, for metric jets of order 0), the order
    their readers need; ``tau`` holds one scalar curvature per point,
    computed exactly when the metric jets have order >= 2.
    """

    ginv: np.ndarray
    gamma: np.ndarray = None
    tau: np.ndarray = None

    @classmethod
    def from_metric(cls, space: JetSpace, g: np.ndarray) -> "FrameEval":
        low = space.child if space.order else space
        ginv = tminv(low, ttrunc(space, g, low.order))
        ev = cls(ginv)
        if space.order >= 1:
            ev.gamma = christoffels(space, g, ginv)
        if space.order >= 2:
            ric = ricci_from_riemann(riemann(low, ev.gamma))
            ev.tau = (ginv[0].reshape(*ric.shape[:-2], 1, -1)
                      @ ric.reshape(*ric.shape[:-2], -1, 1))[..., 0, 0]
        return ev
