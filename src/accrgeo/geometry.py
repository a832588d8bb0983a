"""Chart-level pseudo-Riemannian machinery on jet-valued tensors.

All functions operate on coefficient-first tensor-jet arrays produced by
:mod:`accrgeo.jets` and carry their batch axes through.  Index conventions:

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
from .jets import (JetSpace, SingularMetricError, jet_space, tgrad, tminv,
                   tmul, ttrunc, tvalue)

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
    """Levi-Civita symbols Gamma^k_ij as jets of order K-1.

    Returns (child_space, gamma)."""
    child = space.child
    dg = tgrad(space, g)                      # dg[i,j,l] = d_l g_ij
    ginv_c = ttrunc(space, ginv, child.order)
    # T_ijl = d_i g_jl + d_j g_il - d_l g_ij
    t = (np.einsum("...jli->...ijl", dg) + np.einsum("...ilj->...ijl", dg)
         - dg)
    gamma = 0.5 * tmul(child, ginv_c, t, "kl,ijl->kij")
    return child, gamma


def riemann(space: JetSpace, gamma: np.ndarray):
    """Curvature R^l_ijk from Christoffel jets (order drops by one)."""
    child = space.child
    dgam = tgrad(space, gamma)                # dgam[l,i,j,m] = d_m Gamma^l_ij
    gam_c = ttrunc(space, gamma, child.order)
    quad = tmul(child, gam_c, gam_c, "ljm,mik->lijk")
    riem = (np.swapaxes(dgam, -1, -2) - dgam
            + quad - np.swapaxes(quad, -1, -2))
    return child, riem


def ricci_from_riemann(riem: np.ndarray) -> np.ndarray:
    return np.einsum("...lilk->...ik", riem)


def cov_deriv_tensor11(space: JetSpace, gamma: np.ndarray, phi: np.ndarray):
    """nabla_i phi^k_j; gamma must already live at the output order K-1."""
    child = space.child
    dphi = tgrad(space, phi)                  # dphi[k,j,i] = d_i phi^k_j
    phi_c = ttrunc(space, phi, child.order)
    out = (np.einsum("...kji->...ikj", dphi)
           + tmul(child, gamma, phi_c, "kim,mj->ikj")
           - tmul(child, gamma, phi_c, "mij,km->ikj"))
    return child, out


def cov_deriv_vector(space: JetSpace, gamma: np.ndarray, v: np.ndarray):
    """nabla_i v^k; gamma must share the output order K-1."""
    child = space.child
    dv = tgrad(space, v)                      # dv[k,i] = d_i v^k
    v_c = ttrunc(space, v, child.order)
    out = np.swapaxes(dv, -1, -2) + tmul(child, gamma, v_c, "kim,m->ik")
    return child, out


def cov_deriv_covector(space: JetSpace, gamma: np.ndarray, a: np.ndarray):
    """nabla_i a_j; gamma must share the output order K-1."""
    child = space.child
    da = tgrad(space, a)                      # da[j,i] = d_i a_j
    a_c = ttrunc(space, a, child.order)
    out = np.swapaxes(da, -1, -2) - tmul(child, gamma, a_c, "mij,m->ij")
    return child, out


def cov_deriv_metric(space: JetSpace, gamma: np.ndarray, g: np.ndarray):
    """nabla_l g_ij (metricity residual check); output order K-1."""
    child = space.child
    dg = tgrad(space, g)                      # dg[i,j,l]
    g_c = ttrunc(space, g, child.order)
    out = (np.einsum("...ijl->...lij", dg)
           - tmul(child, gamma, g_c, "mli,mj->lij")
           - tmul(child, gamma, g_c, "mlj,im->lij"))
    return child, out


def lie_metric_coord(space: JetSpace, g: np.ndarray, v: np.ndarray):
    """(L_V g)_ij by the coordinate formula; output order K-1."""
    child = space.child
    dg = tgrad(space, g)                      # dg[i,j,k] = d_k g_ij
    dv = tgrad(space, v)                      # dv[k,i] = d_i v^k
    g_c = ttrunc(space, g, child.order)
    v_c = ttrunc(space, v, child.order)
    dv_r = np.swapaxes(dv, -1, -2)
    out = (tmul(child, v_c, np.einsum("...ijk->...kij", dg), "k,kij->ij")
           + tmul(child, g_c, dv_r, "kj,ik->ij")
           + tmul(child, g_c, dv_r, "ik,jk->ij"))
    return child, out


def lie_metric_cov(child: JetSpace, g_c: np.ndarray, nabla_v: np.ndarray):
    """(L_V g)_ij = g_kj nabla_i V^k + g_ik nabla_j V^k, all at order K-1."""
    return (tmul(child, g_c, nabla_v, "kj,ik->ij")
            + tmul(child, g_c, nabla_v, "ik,jk->ij"))


def signature(g0: np.ndarray):
    """(positive, negative) eigenvalue counts of a symmetric matrix, or
    of each matrix of a batch ``(*batch, d, d)``."""
    w = np.linalg.eigvalsh(0.5 * (g0 + np.swapaxes(g0, -1, -2)))
    return np.sum(w > 0, axis=-1), np.sum(w < 0, axis=-1)


@dataclass
class FrameEval:
    """All pointwise evaluated metric data at a batch of chart points.

    Arrays are tensor-jet arrays; ``space`` is the metric's jet space and
    gamma lives in ``space.child``; ``tau`` holds one scalar curvature per
    point, computed exactly when the metric jets have order >= 2.
    """

    space: JetSpace
    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray = None
    tau: np.ndarray = None

    @classmethod
    def from_metric(cls, space: JetSpace, g: np.ndarray) -> "FrameEval":
        ginv = tminv(space, g)
        ev = cls(space=space, g=g, ginv=ginv)
        if space.order >= 1:
            gamma_space, ev.gamma = christoffels(space, g, ginv)
        if space.order >= 2:
            riem_space, riem = riemann(gamma_space, ev.gamma)
            ginv_r = ttrunc(space, ginv, riem_space.order)
            ev.tau = tvalue(tmul(riem_space, ginv_r,
                                 ricci_from_riemann(riem), "ik,ik->"))
        return ev
