"""Almost contact B-metric structure layer.

A *structure provider* supplies, at any chart point and jet order, the
metric g, the (1,1)-tensor phi, the Reeb field xi and its dual 1-form
eta as jet-valued component arrays.  On top of that this module computes
the fundamental (0,3)-tensor F(X,Y,Z) = g((nabla_X phi)Y, Z), the Lee
forms theta, theta*, omega, axiom and class-membership residuals, and
the torse-forming analysis of vector fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .geometry import (FrameEval, coordinate_bindings, cov_deriv_tensor11,
                       cov_deriv_vector, eval_expr_table, signature)
from .jets import JetSpace, jet_space, tgrad, tminv, tmul, tsym, tvalue

# tolerance ladder: structural identities, first-derivative identities,
# class verdicts (relative), absolute floor for near-zero tensors
TOL_STRUCT = 1e-9
TOL_DERIVED = 1e-8
TOL_CLASS = 1e-6
CLASS_FLOOR = 1e-10


@dataclass
class StructureJets:
    """Raw structure fields at one point, as tensor-jet arrays."""

    space: JetSpace
    point: np.ndarray
    g: np.ndarray       # (nc, d, d)
    phi: np.ndarray     # (nc, d, d), phi[k, j] = phi^k_j
    xi: np.ndarray      # (nc, d)
    eta: np.ndarray     # (nc, d)


class StructureProvider:
    """Base class: a chart of dimension 2n+1 with structure fields."""

    coords: list[str]
    n: int

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def structure_at(self, point, order: int) -> StructureJets:
        raise NotImplementedError


def canonical_flat_fields(n: int):
    """Constant component arrays of the canonical flat model:
    phi maps d/dx_i -> d/dx_{n+i}, xi is the last coordinate field,
    g is the block B-metric diag(1..1, -1..-1, 1)."""
    d = 2 * n + 1
    g = np.zeros((d, d))
    phi = np.zeros((d, d))
    xi = np.zeros(d)
    eta = np.zeros(d)
    for i in range(n):
        g[i, i] = 1.0
        g[n + i, n + i] = -1.0
        phi[n + i, i] = 1.0
        phi[i, n + i] = -1.0
    g[d - 1, d - 1] = 1.0
    xi[d - 1] = 1.0
    eta[d - 1] = 1.0
    return g, phi, xi, eta


class ChartStructure(StructureProvider):
    """Structure fields given as expression tables over the chart."""

    def __init__(self, n: int, coords, g, phi, xi, eta, name: str = "chart"):
        self.n = n
        self.coords = list(coords)
        if len(self.coords) != self.dim:
            raise ValueError("coordinate count must be 2n+1")
        d = self.dim
        self.g_expr = ex.expr_table(g, (d, d))
        self.phi_expr = ex.expr_table(phi, (d, d))
        self.xi_expr = ex.expr_table(xi, (d,))
        self.eta_expr = ex.expr_table(eta, (d,))
        self.name = name

    def structure_at(self, point, order: int) -> StructureJets:
        space = jet_space(self.dim, order)
        bindings = coordinate_bindings(self.coords, point, order)
        g = tsym(eval_expr_table(space, self.g_expr, bindings))
        phi = eval_expr_table(space, self.phi_expr, bindings)
        xi = eval_expr_table(space, self.xi_expr, bindings)
        eta = eval_expr_table(space, self.eta_expr, bindings)
        return StructureJets(space, np.asarray(point, dtype=float),
                             g, phi, xi, eta)


class FrameStructure(StructureProvider):
    """Structure obtained by conjugating the canonical flat model with an
    invertible expression-valued frame matrix A(x).

    Every invertible A yields a valid structure: phi = A phihat A^-1,
    xi = A xihat, eta = etahat A^-1, g = A^-T ghat A^-1.  The identity
    frame reproduces the flat model.
    """

    def __init__(self, n: int, coords, frame, name: str = "frame"):
        self.n = n
        self.coords = list(coords)
        d = self.dim
        self.frame_expr = ex.expr_table(frame, (d, d))
        self.name = name
        (self._ghat, self._phihat,
         self._xihat, self._etahat) = canonical_flat_fields(n)

    def structure_at(self, point, order: int) -> StructureJets:
        space = jet_space(self.dim, order)
        a = eval_expr_table(space, self.frame_expr,
                            coordinate_bindings(self.coords, point, order))
        ainv = tminv(space, a)
        phi = np.einsum("pab,bc->pac", a, self._phihat)
        phi = tmul(space, phi, ainv, "ab,bc->ac")
        xi = np.einsum("pab,b->pa", a, self._xihat)
        eta = np.einsum("b,pba->pa", self._etahat, ainv)
        g = tsym(tmul(space, np.einsum("pba,bc->pac", ainv, self._ghat),
                      ainv, "ab,bc->ac"))
        return StructureJets(space, np.asarray(point, dtype=float),
                             g, phi, xi, eta)


# ---------------------------------------------------------------------------
# Pointwise evaluation of the full structure
# ---------------------------------------------------------------------------

@dataclass
class AccrEval:
    """Structure plus derived tensors at one point (component values)."""

    S: StructureJets
    frame: FrameEval
    F: np.ndarray = None           # values, F[i, j, k] = F(e_i, e_j, e_k)
    gtilde: np.ndarray = None      # values
    theta: np.ndarray = None
    theta_star: np.ndarray = None
    omega: np.ndarray = None

    @classmethod
    def from_jets(cls, S: StructureJets,
                  curvature: bool = False) -> "AccrEval":
        """Derived tensors of already evaluated structure jets; curvature
        needs jets of order >= 2."""
        frame = FrameEval.from_metric(
            S.space, S.g, curvature=curvature and S.space.order >= 2)
        ev = cls(S=S, frame=frame)
        g0 = ev.g0
        ev.gtilde = g0 @ ev.phi0 + np.outer(ev.eta0, ev.eta0)
        if S.space.order >= 1:
            _, nphi = cov_deriv_tensor11(S.space, frame.gamma, S.phi)
            # F_ijk = g_kl (nabla_i phi)^l_j, nphi[i, l, j] = (nabla_i phi)^l_j
            ev.F = np.einsum("ilj,kl->ijk", tvalue(nphi), g0)
            gi = ev.ginv0
            ev.omega = np.einsum("i,j,ijk->k", ev.xi0, ev.xi0, ev.F)
            # the traces defining theta and theta* run over a basis of the
            # contact distribution ker eta, completed by xi; invariantly
            # that subtracts the xi-xi term (which vanishes for theta* as
            # phi xi = 0)
            ev.theta = np.einsum("ij,ijk->k", gi, ev.F) - ev.omega
            ev.theta_star = np.einsum("ij,mj,imk->k", gi, ev.phi0, ev.F)
        return ev

    @property
    def n(self) -> int:
        return (self.S.g.shape[1] - 1) // 2

    @property
    def g0(self):
        return tvalue(self.S.g)

    @property
    def ginv0(self):
        return tvalue(self.frame.ginv)

    @property
    def phi0(self):
        return tvalue(self.S.phi)

    @property
    def xi0(self):
        return tvalue(self.S.xi)

    @property
    def eta0(self):
        return tvalue(self.S.eta)


def structure_eval(provider: StructureProvider, point, order: int = 1,
                   curvature: bool = False) -> AccrEval:
    return AccrEval.from_jets(provider.structure_at(point, order), curvature)


# ---------------------------------------------------------------------------
# Residual reports
# ---------------------------------------------------------------------------

def _maxabs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def worst_of(families) -> dict[str, float]:
    """Key-wise worst (largest) residual over per-point families, keys in
    first-seen order.  ``max(previous, new)`` keeps the previous value
    against a NaN, so an undefined residual never masks a defined one."""
    worst = {}
    for fam in families:
        for k, v in fam.items():
            worst[k] = max(worst.get(k, 0.0), v)
    return worst


def all_of(verdicts) -> dict[str, bool]:
    """Key-wise AND of per-point verdict dicts."""
    merged = {}
    for ver in verdicts:
        for k, ok in ver.items():
            merged[k] = merged.get(k, True) and ok
    return merged


def check_axioms(ev: AccrEval) -> dict[str, float]:
    """Max-norm residuals of the defining structure identities plus the
    symmetry and signature of the associated metric."""
    d = ev.S.g.shape[1]
    n = ev.n
    g0, phi0, xi0, eta0 = ev.g0, ev.phi0, ev.xi0, ev.eta0
    res = {}
    res["phi_xi"] = _maxabs(phi0 @ xi0)
    res["phi_squared"] = _maxabs(phi0 @ phi0 + np.eye(d)
                                 - np.outer(xi0, eta0))
    res["eta_phi"] = _maxabs(eta0 @ phi0)
    res["eta_xi"] = abs(float(eta0 @ xi0) - 1.0)
    # the two metric identities are relative to the metric's scale
    gscale = max(1.0, _maxabs(g0))
    res["b_metric"] = _maxabs(g0 + phi0.T @ g0 @ phi0
                              - np.outer(eta0, eta0)) / gscale
    res["gtilde_symmetric"] = _maxabs(ev.gtilde - ev.gtilde.T) / gscale
    res["g_signature_ok"] = 0.0 if signature(g0) == (n + 1, n) else 1.0
    res["gtilde_signature_ok"] = (0.0 if signature(ev.gtilde) == (n + 1, n)
                                  else 1.0)
    return res


def f_prop_residual(ev: AccrEval) -> float:
    """Residual of the general symmetry of F:
    F(X,Y,Z) = F(X,Z,Y)
             = F(X,phiY,phiZ) + eta(Y)F(X,xi,Z) + eta(Z)F(X,Y,xi)."""
    F, phi0, eta0, xi0 = ev.F, ev.phi0, ev.eta0, ev.xi0
    sym = _maxabs(F - np.einsum("ijk->ikj", F))
    fxz = np.einsum("iak,a->ik", F, xi0)      # F(e_i, xi, e_k)
    fjx = np.einsum("ija,a->ij", F, xi0)      # F(e_i, e_j, xi)
    rhs = (np.einsum("iab,aj,bk->ijk", F, phi0, phi0)
           + np.einsum("j,ik->ijk", eta0, fxz)
           + np.einsum("k,ij->ijk", eta0, fjx))
    return max(sym, _maxabs(F - rhs))


def lee_identities_residual(ev: AccrEval) -> dict[str, float]:
    """General Lee-form identities: theta* o phi = -theta o phi^2 and
    omega(xi) = 0."""
    phi0, xi0 = ev.phi0, ev.xi0
    phi2 = phi0 @ phi0
    return {
        "theta_star_phi": _maxabs(ev.theta_star @ phi0 + ev.theta @ phi2),
        "omega_xi": abs(float(ev.omega @ xi0)),
    }


def tensor_norm_e(T: np.ndarray) -> float:
    return float(np.sqrt(np.sum(T * T)))


def f1_component(ev: AccrEval) -> np.ndarray:
    """Closed-form F^1 built from g, phi and the Lee form theta."""
    n = ev.n
    g0, phi0, th = ev.g0, ev.phi0, ev.theta
    phi2 = phi0 @ phi0
    gpp = phi0.T @ g0 @ phi0                  # g(phi x, phi y)
    gp = g0 @ phi0                            # g(x, phi y)
    th2 = th @ phi2                           # theta(phi^2 .)
    thp = th @ phi0                           # theta(phi .)
    F1 = (np.einsum("ij,k->ijk", gpp, th2) + np.einsum("ij,k->ijk", gp, thp)
          + np.einsum("ik,j->ijk", gpp, th2)
          + np.einsum("ik,j->ijk", gp, thp))
    return F1 / (2.0 * n)


def f5_component(ev: AccrEval) -> np.ndarray:
    """Closed-form F^5 = -(theta*(xi)/2n){g(x,phi y)eta(z)
    + g(x,phi z)eta(y)}."""
    n = ev.n
    gp = ev.g0 @ ev.phi0
    ts_xi = float(ev.theta_star @ ev.xi0)
    F5 = (np.einsum("ij,k->ijk", gp, ev.eta0)
          + np.einsum("ik,j->ijk", gp, ev.eta0))
    return -ts_xi / (2.0 * n) * F5


@dataclass
class ClassResiduals:
    """Euclidean component distance of F from the closed-form class
    components; ``res_F0`` is the norm of F itself."""

    res_F0: float
    res_F1: float
    res_F5: float
    res_F1_plus_F5: float
    is_F0: bool
    is_F1: bool
    is_F5: bool
    is_F1_plus_F5: bool
    denom: float

    def verdicts(self) -> dict[str, bool]:
        return {"is_F0": self.is_F0, "is_F1": self.is_F1,
                "is_F5": self.is_F5, "is_F1_plus_F5": self.is_F1_plus_F5}


def class_residuals(ev: AccrEval, tol: float = TOL_CLASS) -> ClassResiduals:
    F = ev.F
    F1 = f1_component(ev)
    F5 = f5_component(ev)
    r0 = tensor_norm_e(F)
    denom = max(r0, CLASS_FLOOR)
    r1 = tensor_norm_e(F - F1)
    r5 = tensor_norm_e(F - F5)
    r15 = tensor_norm_e(F - F1 - F5)
    return ClassResiduals(
        res_F0=r0, res_F1=r1, res_F5=r5, res_F1_plus_F5=r15,
        is_F0=r0 <= tol * denom + CLASS_FLOOR,
        is_F1=r1 <= tol * denom + CLASS_FLOOR,
        is_F5=r5 <= tol * denom + CLASS_FLOOR,
        is_F1_plus_F5=r15 <= tol * denom + CLASS_FLOOR,
        denom=denom,
    )


# ---------------------------------------------------------------------------
# Torse-forming analysis
# ---------------------------------------------------------------------------

def torse_forming_analyze(provider: StructureProvider, theta_field, point,
                          order: int = 1, tol: float = 1e-7):
    """Identify the conformal scalar f and generating form gamma of a
    candidate torse-forming field by least squares on
    nabla theta = f*id + theta (x) gamma.

    ``theta_field`` is the field's table of component expressions over
    the chart coordinates, as built by :func:`accrgeo.expr.expr_table`
    with shape ``(dim,)``.

    Returns ``(residuals, sample)``: ``torse_fit``, ``dk_identity``
    and ``verticality``, plus at a vertical point (k = eta(theta) away
    from 0) the vertical-case identities; and the report's sample record.
    """
    ev = structure_eval(provider, point, order=max(order, 1))
    S = ev.S
    space = S.space
    d = S.g.shape[1]
    n = ev.n
    vf = eval_expr_table(space, theta_field, coordinate_bindings(
        provider.coords, point, space.order))
    v0 = tvalue(vf)
    vscale = _maxabs(v0)
    if vscale == 0.0:
        raise ValueError("torse-forming analysis needs a nonzero field")
    child, nv = cov_deriv_vector(space, ev.frame.gamma, vf)
    A = tvalue(nv)                            # A[i, k] = (nabla_i v)^k
    # A^k_i = f delta^k_i + v^k gamma_i  ->  lstsq in (f, gamma)
    rows = np.zeros((d, d, d + 1))            # one row per (i, k)
    rows[:, :, 0] = np.eye(d)
    rows[np.arange(d), :, 1 + np.arange(d)] = v0
    rows = rows.reshape(d * d, d + 1)
    rhs = A.reshape(d * d)
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    f = float(sol[0])
    gamma_form = sol[1:]
    fit = rows @ sol - rhs
    scale = _maxabs(A)                        # an exactly zero A fits

    eta0, xi0, g0, phi0 = ev.eta0, ev.xi0, ev.g0, ev.phi0
    k_val = float(eta0 @ v0)
    verticality = _maxabs(v0 - k_val * xi0) / vscale
    # dk = f eta + k gamma: k as a jet via eta_i v^i
    dk = tvalue(tgrad(space, tmul(space, S.eta, vf, "i,i->")))
    res = {"torse_fit": _maxabs(fit) / scale if scale else 0.0,
           "dk_identity": _maxabs(dk - f * eta0 - k_val * gamma_form)
           / vscale,
           "verticality": verticality}
    # the vertical identities divide by k, so they need k away from 0
    if verticality <= tol and abs(k_val) > 1e-12 * vscale:
        fk = f / k_val
        _, nxi = cov_deriv_vector(space, ev.frame.gamma, S.xi)
        nxi0 = tvalue(nxi)                    # [i, k] = (nabla_i xi)^k
        phi2 = phi0 @ phi0
        fxi = np.einsum("ija,a->ij", ev.F, xi0)
        res.update({
            # (nabla_i xi)^k = -fk (phi^2)^k_i, F(x,y,xi) = -fk g(x,phi y)
            "nabla_xi": _maxabs(nxi0 + fk * phi2.T),
            "f_xyxi": _maxabs(fxi + fk * (g0 @ phi0)),
            # theta*(xi) = 2n fk, theta(xi) = 0, omega = 0
            "theta_star_xi": abs(float(ev.theta_star @ xi0) - 2.0 * n * fk),
            "theta_xi": abs(float(ev.theta @ xi0)),
            "omega": _maxabs(ev.omega),
        })
    sample = {"point": np.asarray(point, dtype=float).tolist(), "f": f,
              "k": k_val, "gamma": gamma_form.tolist(),
              "length_sq": float(v0 @ g0 @ v0)}
    return res, sample
