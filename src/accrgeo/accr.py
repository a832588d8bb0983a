"""Almost contact B-metric structure layer.

A *structure provider* supplies, at chart points and a jet order, the
metric g, the (1,1)-tensor phi, the Reeb field xi and its dual 1-form
eta as jet-valued component arrays.  On top of that this module computes
the fundamental (0,3)-tensor F(X,Y,Z) = g((nabla_X phi)Y, Z), the Lee
forms theta, theta*, omega, axiom and class-membership residuals, and
the torse-forming analysis of vector fields.

Everything runs on a batch of points ``(*batch, dim)``: values have shape
``(*batch, *tensor_shape)`` and a residual is one max-norm per point.  A
command evaluates its samples in :func:`chunks`, :func:`join` s the
residuals and folds them with :func:`worst_of` and :func:`all_of`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .geometry import (FrameEval, _contract, coordinate_bindings,
                       cov_deriv_tensor11, cov_deriv_vector, eval_expr_table,
                       signature)
from .jets import JetSpace, jet_space, tgrad0, tminv, tmul, tsym, tvalue

# tolerance ladder: structural identities, first-derivative identities,
# class verdicts (relative), absolute floor for near-zero tensors
TOL_STRUCT = 1e-9
TOL_DERIVED = 1e-8
TOL_CLASS = 1e-6
CLASS_FLOOR = 1e-10
# the working set of one chunk of sample points, as point_bytes counts it:
# at most 404, 100, 39 and 19 order-1 points at n = 1..4, and 191, 30, 8
# and 3 order-2 points
CHUNK_BYTES = 2 * 2**20


@dataclass
class StructureJets:
    """Raw structure fields at a batch of points, as tensor-jet arrays of
    ``space`` (xi and eta of a deformed structure at order at most 1)."""

    space: JetSpace
    point: np.ndarray   # (*batch, d)
    g: np.ndarray       # (nc, *batch, d, d)
    phi: np.ndarray     # (nc, *batch, d, d), phi[..., k, j] = phi^k_j
    xi: np.ndarray      # (nc, *batch, d)
    eta: np.ndarray     # (nc, *batch, d)


class StructureProvider:
    """Base class: a chart of dimension 2n+1 with structure fields."""

    coords: list[str]
    n: int
    # f/k of the vertical torse-forming Reeb field at a batch of points,
    # where the model knows it in closed form
    fk = None

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def structure_at(self, points, order: int) -> StructureJets:
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

    def __init__(self, n: int, coords, g, phi, xi, eta, fk=None):
        self.n = n
        self.coords = list(coords)
        if len(self.coords) != self.dim:
            raise ValueError("coordinate count must be 2n+1")
        d = self.dim
        self.g_expr = ex.expr_table(g, (d, d))
        self.phi_expr = ex.expr_table(phi, (d, d))
        self.xi_expr = ex.expr_table(xi, (d,))
        self.eta_expr = ex.expr_table(eta, (d,))
        self.fk = fk

    def structure_at(self, points, order: int) -> StructureJets:
        space = jet_space(self.dim, order)
        bindings = coordinate_bindings(self.coords, points, order)
        g = tsym(eval_expr_table(space, self.g_expr, bindings))
        phi = eval_expr_table(space, self.phi_expr, bindings)
        xi = eval_expr_table(space, self.xi_expr, bindings)
        eta = eval_expr_table(space, self.eta_expr, bindings)
        return StructureJets(space, np.asarray(points, dtype=float),
                             g, phi, xi, eta)


class FrameStructure(StructureProvider):
    """Structure obtained by conjugating the canonical flat model with an
    invertible expression-valued frame matrix A(x).

    Every invertible A yields a valid structure: phi = A phihat A^-1,
    xi = A xihat, eta = etahat A^-1, g = A^-T ghat A^-1.  The identity
    frame reproduces the flat model.
    """

    def __init__(self, n: int, coords, frame):
        self.n = n
        self.coords = list(coords)
        d = self.dim
        self.frame_expr = ex.expr_table(frame, (d, d))
        (self._ghat, self._phihat,
         self._xihat, self._etahat) = canonical_flat_fields(n)

    def structure_at(self, points, order: int) -> StructureJets:
        space = jet_space(self.dim, order)
        a = eval_expr_table(space, self.frame_expr,
                            coordinate_bindings(self.coords, points, order))
        ainv = tminv(space, a)
        phi = tmul(space, a @ self._phihat, ainv, np.matmul)
        g = tsym(tmul(space, _T(ainv) @ self._ghat, ainv, np.matmul))
        xi, eta = a @ self._xihat, self._etahat @ ainv
        return StructureJets(space, np.asarray(points, dtype=float),
                             g, phi, xi, eta)


# ---------------------------------------------------------------------------
# Evaluation of the full structure
# ---------------------------------------------------------------------------

def _T(m):
    return np.swapaxes(m, -1, -2)


def _vm(v, m):
    """v^i m_ij at each point."""
    return (v[..., None, :] @ m)[..., 0, :]


def _dot(a, b):
    return (a * b).sum(axis=-1)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _sym_yz(a, v):
    """a(x, y) v(z) + a(x, z) v(y) at each point."""
    t = a[..., :, :, None] * v[..., None, None, :]
    return t + _T(t)


@dataclass
class AccrEval:
    """Structure plus derived tensors at a batch of points (component
    values, of shape ``(*batch, *tensor_shape)``)."""

    S: StructureJets
    frame: FrameEval
    g0: np.ndarray = None
    ginv0: np.ndarray = None
    phi0: np.ndarray = None
    xi0: np.ndarray = None
    eta0: np.ndarray = None
    F: np.ndarray = None           # F[..., i, j, k] = F(e_i, e_j, e_k)
    gtilde: np.ndarray = None
    theta: np.ndarray = None
    theta_star: np.ndarray = None
    omega: np.ndarray = None

    @classmethod
    def from_jets(cls, S: StructureJets) -> "AccrEval":
        """Derived tensors of already evaluated structure jets, with
        curvature from jets of order >= 2."""
        frame = FrameEval.from_metric(S.space, S.g)
        ev = cls(S, frame, *map(tvalue, (S.g, frame.ginv, S.phi, S.xi,
                                         S.eta)))
        g0 = ev.g0
        ev.gtilde = g0 @ ev.phi0 + _outer(ev.eta0, ev.eta0)
        if S.space.order >= 1:
            nphi = cov_deriv_tensor11(S.space, frame.gamma, S.phi)
            # F_ijk = g_kl (nabla_i phi)^l_j, nphi[i, l, j] = (nabla_i phi)^l_j
            ev.F = np.einsum("...ilj,...kl->...ijk", nphi, g0)
            gi = ev.ginv0
            ev.omega = np.einsum("...ij,...ijk->...k",
                                 _outer(ev.xi0, ev.xi0), ev.F)
            # the traces defining theta and theta* run over a basis of the
            # contact distribution ker eta, completed by xi; invariantly
            # that subtracts the xi-xi term (which vanishes for theta* as
            # phi xi = 0)
            ev.theta = np.einsum("...ij,...ijk->...k", gi, ev.F) - ev.omega
            ev.theta_star = np.einsum("...im,...imk->...k",
                                      gi @ _T(ev.phi0), ev.F)
        return ev

    @property
    def n(self) -> int:
        return (self.S.g.shape[-1] - 1) // 2


def structure_eval(provider: StructureProvider, points,
                   order: int = 1) -> AccrEval:
    return AccrEval.from_jets(provider.structure_at(points, order))


# ---------------------------------------------------------------------------
# Chunks of sample points and the reductions over them
# ---------------------------------------------------------------------------

# how many rank-3 and rank-2 tensors of the Christoffel order (order - 1)
# make up a point's share of a chunk's peak, by the jet order the chunk is
# evaluated at: fitted to the tracemalloc peaks of the heaviest command of
# each order (transform at order 1, soliton at order 2) at n = 1..4
_PEAK_TENSORS = {1: (16, 24), 2: (10, 8)}


def point_bytes(dim: int, order: int) -> int:
    """The chunk budget's charge for one point evaluated at jet order 1 or
    2: 8 bytes times the coefficients of ``jet_space(dim, order - 1)``
    times dim^3 and dim^2 for each tensor of :data:`_PEAK_TENSORS`.  It is
    calibrated against the tracemalloc peak growth per point, the largest
    over the commands of that order (``tests/test_memory.py`` keeps it
    between 1 and 2 times that growth).  In KB at n = 1..4: 5.2, 20.8,
    53.3, 108.9 at order 1 and 10.9, 69.6, 244.6, 635.0 at order 2,
    against a growth on embedded-sphere of 3.4, 13.2, 34.8, 71.8
    (transform, 1.51 to 1.58 times) and 8.5, 52.4, 182.1, 469.0 (soliton,
    1.28 to 1.35 times)."""
    rank3, rank2 = _PEAK_TENSORS[order]
    ncoeff = jet_space(dim, order - 1).ncoeff
    return 8 * ncoeff * dim ** 2 * (rank3 * dim + rank2)


def chunks(points: np.ndarray, order: int):
    """The points ``(P, dim)`` split into consecutive chunks of equal size
    (up to one point), as few as keep each within :data:`CHUNK_BYTES`."""
    size = max(1, CHUNK_BYTES // point_bytes(points.shape[-1], order))
    return np.array_split(points, -(-len(points) // size))


def join(parts: list):
    """Per-chunk dicts (nested or not) of per-point arrays, each chunk's
    with the same keys, joined in point order; they must hold no view of
    a jet, which keeps it alive."""
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], dict):
        return {k: join([p[k] for p in parts]) for k in parts[0]}
    return np.concatenate(parts)


def over_chunks(fn, points: np.ndarray, order: int):
    """``fn`` of each chunk of the points, joined in point order."""
    return join([fn(pts) for pts in chunks(points, order)])


def worst_of(residuals: dict) -> dict[str, float]:
    """The largest value (at least 0) of each residual over the points; a
    NaN is a numeric fault, :class:`FloatingPointError` naming the check
    and the first sample where it is NaN."""
    table = np.array(list(residuals.values()), dtype=float).reshape(
        len(residuals), -1)
    worst = table.max(axis=1, initial=0.0).tolist()
    for name, w, row in zip(residuals, worst, table):
        if w != w:                  # max passes a NaN on
            raise FloatingPointError(f"residual {name!r} is NaN at sample "
                                     f"{np.flatnonzero(np.isnan(row))[0]}")
    return dict(zip(residuals, worst))


def all_of(verdicts: dict) -> dict[str, bool]:
    """Each verdict ANDed over the points."""
    table = np.array(list(verdicts.values())).reshape(len(verdicts), -1)
    return dict(zip(verdicts, table.all(axis=1).tolist()))


def _maxabs(a, rank: int):
    """max |a| over the last ``rank`` (tensor) axes; NaN stays NaN."""
    return np.abs(a).max(axis=tuple(range(-rank, 0)), initial=0.0)


# ---------------------------------------------------------------------------
# Residual reports
# ---------------------------------------------------------------------------

def check_axioms(ev: AccrEval) -> dict:
    """Max-norm residuals of the defining structure identities plus the
    symmetry and signature of the associated metric."""
    n = ev.n
    g0, phi0, xi0, eta0 = ev.g0, ev.phi0, ev.xi0, ev.eta0
    res = {"phi_xi": _maxabs(np.einsum("...ij,...j->...i", phi0, xi0), 1),
           "phi_squared": _maxabs(phi0 @ phi0 + np.eye(2 * n + 1)
                                  - _outer(xi0, eta0), 2),
           "eta_phi": _maxabs(_vm(eta0, phi0), 1),
           "eta_xi": np.abs(_dot(eta0, xi0) - 1.0)}
    # the two metric identities are relative to the metric's scale
    gscale = np.maximum(1.0, _maxabs(g0, 2))
    res["b_metric"] = _maxabs(g0 + _T(phi0) @ g0 @ phi0
                              - _outer(eta0, eta0), 2) / gscale
    res["gtilde_symmetric"] = _maxabs(ev.gtilde - _T(ev.gtilde), 2) / gscale
    for name, m in (("g_signature_ok", g0),
                    ("gtilde_signature_ok", ev.gtilde)):
        pos, neg = signature(m)
        res[name] = np.where((pos == n + 1) & (neg == n), 0.0, 1.0)
    return res


def f_prop_residual(ev: AccrEval):
    """Residual of the general symmetry of F:
    F(X,Y,Z) = F(X,Z,Y)
             = F(X,phiY,phiZ) + eta(Y)F(X,xi,Z) + eta(Z)F(X,Y,xi)."""
    F, phi0, eta0, xi0 = ev.F, ev.phi0, ev.eta0, ev.xi0
    fxz = np.einsum("...iak,...a->...ik", F, xi0)      # F(e_i, xi, e_k)
    fjx = np.einsum("...ija,...a->...ij", F, xi0)      # F(e_i, e_j, xi)
    rhs = (_T(phi0)[..., None, :, :] @ F @ phi0[..., None, :, :]
           + np.einsum("...j,...ik->...ijk", eta0, fxz)
           + np.einsum("...k,...ij->...ijk", eta0, fjx))
    return np.maximum(_maxabs(F - _T(F), 3), _maxabs(F - rhs, 3))


def lee_identities_residual(ev: AccrEval) -> dict:
    """General Lee-form identities: theta* o phi = -theta o phi^2 and
    omega(xi) = 0."""
    phi0 = ev.phi0
    return {"theta_star_phi": _maxabs(_vm(ev.theta_star, phi0)
                                      + _vm(ev.theta, phi0 @ phi0), 1),
            "omega_xi": np.abs(_dot(ev.omega, ev.xi0))}


def tensor_norm_e(T: np.ndarray):
    """Euclidean norm of a (0,3)-tensor, at each point."""
    return np.sqrt(np.sum(T * T, axis=(-3, -2, -1)))


def f1_component(ev: AccrEval) -> np.ndarray:
    """Closed-form F^1 built from g, phi and the Lee form theta."""
    g0, phi0, th = ev.g0, ev.phi0, ev.theta
    # g(phi x, phi y) theta(phi^2 z) + g(x, phi y) theta(phi z), in y, z
    return (_sym_yz(_T(phi0) @ g0 @ phi0, _vm(th, phi0 @ phi0))
            + _sym_yz(g0 @ phi0, _vm(th, phi0))) / (2.0 * ev.n)


def f5_component(ev: AccrEval) -> np.ndarray:
    """Closed-form F^5 = -(theta*(xi)/2n){g(x,phi y)eta(z)
    + g(x,phi z)eta(y)}."""
    ts_xi = _dot(ev.theta_star, ev.xi0)
    return ((-ts_xi / (2.0 * ev.n))[..., None, None, None]
            * _sym_yz(ev.g0 @ ev.phi0, ev.eta0))


def class_residuals(ev: AccrEval, tol: float = TOL_CLASS):
    """Euclidean component distance of F from each closed-form class
    component (F itself for F0), at each point.

    Returns ``(relative, verdicts)``: ``res_F0`` ... ``res_F1_plus_F5``
    over the norm of F (at least CLASS_FLOOR), with ``norm_F`` itself, and
    the ``is_*`` verdicts.
    """
    F, F1, F5 = ev.F, f1_component(ev), f5_component(ev)
    norm = tensor_norm_e(F)
    denom = np.maximum(norm, CLASS_FLOOR)
    res = {"res_F0": norm, "res_F1": tensor_norm_e(F - F1),
           "res_F5": tensor_norm_e(F - F5),
           "res_F1_plus_F5": tensor_norm_e(F - F1 - F5)}
    verdicts = {"is" + k[3:]: r <= tol * denom + CLASS_FLOOR
                for k, r in res.items()}
    relative = {k: r / denom for k, r in res.items()}
    relative["norm_F"] = norm
    return relative, verdicts


# ---------------------------------------------------------------------------
# Torse-forming analysis
# ---------------------------------------------------------------------------

def torse_forming_analyze(ev: AccrEval, vf: np.ndarray):
    """Identify the conformal scalar f and generating form gamma of a
    candidate torse-forming field by least squares on
    nabla v = f*id + v (x) gamma, at each point of the evaluation ``ev``
    (of order >= 1), from the field's jets ``vf`` (of order >= 1) at the
    same points.

    Returns ``(residuals, vertical, sample)``, per-point arrays:
    ``torse_fit``, ``dk_identity``, ``verticality`` and the vertical
    identities ``nabla_xi``, ``f_xyxi``, ``theta_star_xi``, ``theta_xi``
    and ``omega``, which read f/k only where the point is vertical; the
    verdict that the point is vertical (v = k xi, k away from 0); and the
    report's sample records.
    """
    S, space, v0 = ev.S, ev.S.space, tvalue(vf)
    d = v0.shape[-1]
    vscale = _maxabs(v0, 1)
    if np.count_nonzero(vscale == 0.0):
        raise ValueError("torse-forming analysis needs a nonzero field")
    A = cov_deriv_vector(space, ev.frame.gamma, vf)
    # A[i, k] = (nabla_i v)^k = f delta_ik + gamma_i v_k by least squares,
    # in closed form on u = v / max|v|, so that no square of the field's
    # scale under- or overflows: gamma max|v| = (A u - f u) / |u|^2, and
    # from the trace (d - 1) f = tr A - u.A u / |u|^2
    u = v0 / vscale[..., None]
    uu = _dot(u, u)
    au = np.einsum("...ik,...k->...i", A, u)
    f = (np.trace(A, axis1=-2, axis2=-1) - _dot(u, au) / uu) / (d - 1)
    gamma_v = (au - f[..., None] * u) / uu[..., None]
    gamma_form = gamma_v / vscale[..., None]
    fit = f[..., None, None] * np.eye(d) + _outer(gamma_v, u) - A
    # relative to the larger term of nabla v = dv + Gamma v; an exactly
    # zero A fits exactly, f = 0
    scale = np.maximum(_maxabs(tgrad0(space, vf), 2),
                       _maxabs(_contract(ev.frame.gamma[0], v0), 2))
    eta0, xi0, g0, phi0 = ev.eta0, ev.xi0, ev.g0, ev.phi0
    k_val = _dot(eta0, v0)
    verticality = _maxabs(v0 - k_val[..., None] * xi0, 1) / vscale
    # dk = f eta + k gamma, d(eta_i v^i) by the product rule; the residual
    # is relative to the largest of |v| and the three terms it cancels
    dk = _vm(eta0, tgrad0(space, vf)) + _vm(v0, tgrad0(space, S.eta))
    terms = (dk, f[..., None] * eta0, _dot(eta0, u)[..., None] * gamma_v)
    dk_scale = np.max([vscale, *(_maxabs(x, 1) for x in terms)], axis=0)
    # the vertical identities divide by k, so they need k away from 0
    vertical = (verticality <= 1e-7) & (np.abs(k_val) > 1e-12 * vscale)
    fk = np.divide(f, k_val, out=np.zeros_like(f), where=vertical)
    res = {"torse_fit": _maxabs(fit, 2) / np.where(scale > 0.0, scale, 1.0),
           "dk_identity": _maxabs(terms[0] - terms[1] - terms[2], 1)
           / dk_scale,
           "verticality": verticality,
           # (nabla_i xi)^k = -fk (phi^2)^k_i, F(x,y,xi) = -fk g(x,phi y)
           "nabla_xi": _maxabs(cov_deriv_vector(space, ev.frame.gamma, S.xi)
                               + fk[..., None, None] * _T(phi0 @ phi0), 2),
           "f_xyxi": _maxabs(np.einsum("...ija,...a->...ij", ev.F, xi0)
                             + fk[..., None, None] * (g0 @ phi0), 2),
           # theta*(xi) = 2n fk, theta(xi) = 0, omega = 0
           "theta_star_xi": np.abs(_dot(ev.theta_star, xi0)
                                   - 2.0 * ev.n * fk),
           "theta_xi": np.abs(_dot(ev.theta, xi0)),
           "omega": _maxabs(ev.omega, 1)}
    return res, vertical, {"point": S.point, "f": f, "k": k_val,
                           "gamma": gamma_form}
