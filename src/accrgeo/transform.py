"""Contact conformal deformation of a structure and the Yamabe-soliton
verification engine.

The deformation is driven by three scalar fields (u, v, w) on the chart:

    xi_bar  = e^-w xi,      eta_bar = e^w eta,
    g_bar   = e^2u cos(2v) g + e^2u sin(2v) gtilde
              + (e^2w - e^2u cos(2v) - e^2u sin(2v)) eta (x) eta,

with phi unchanged.  The deformed fields are composed at the jet level,
so derivatives of g_bar of any supported order are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from .accr import (TOL_CLASS, AccrEval, StructureJets, StructureProvider,
                   _dot, _maxabs, _outer, _T, _vm,
                   class_residuals, over_chunks, worst_of)
from .geometry import (coordinate_bindings, cov_deriv_vector, lie_metric_cov,
                       lie_metric_coord)
from .jets import jet_space, tgrad0, tmul, tscale, tsym, ttrunc, tvalue


@dataclass(frozen=True)
class TransformTriple:
    """The three scalar fields (u, v, w) of one deformation."""

    u: ex.Expr
    v: ex.Expr
    w: ex.Expr

    @classmethod
    def identity(cls) -> "TransformTriple":
        zero = ex.Const(0.0)
        return cls(zero, zero, zero)

    @cached_property
    def exprs(self) -> tuple[ex.Expr, ...]:
        """(u, v, w) and the scalar factors of the deformation:
        a = e^2u cos 2v, b = e^2u sin 2v, e^2w - a - b, e^-w and e^w."""
        two = ex.Const(2.0)
        e2u, v2 = ex.func("exp", two * self.u), two * self.v
        a = e2u * ex.func("cos", v2)
        b = e2u * ex.func("sin", v2)
        return (self.u, self.v, self.w, a, b,
                ex.func("exp", two * self.w) - a - b,
                ex.func("exp", -self.w), ex.func("exp", self.w))

    def jets(self, provider: StructureProvider, points, order: int):
        """Jets of :attr:`exprs` at chart points, from one evaluation."""
        return ex.eval_jets(jet_space(len(provider.coords), order),
                            self.exprs,
                            coordinate_bindings(provider.coords, points,
                                                order))


def deform(S: StructureJets, a, b, c, e_minus_w, e_w) -> StructureJets:
    """The deformed fields (phi, xi_bar, eta_bar, g_bar) from the base
    structure jets and the jets of the deformation factors at the same
    points (the last five of :attr:`TransformTriple.exprs`), g_bar as one
    product of (a, b, c) with the stack (g, gtilde, eta (x) eta).

    xi_bar and eta_bar are jets of order at most 1, as their readers take
    only values and first partials; so above order 1 the result is no
    base for another deformation, and :class:`ValueError` says so."""
    space = S.space
    if min(len(S.xi), len(S.eta)) < space.ncoeff:
        raise ValueError(f"xi and eta of the base are below order "
                         f"{space.order}: a deformed structure is no base "
                         f"for another deformation above order 1")
    eta_eta = tmul(space, S.eta, S.eta, "i,j->ij")
    gtilde = tmul(space, S.g, S.phi, "ia,aj->ij") + eta_eta
    gbar = tsym(tmul(space, np.stack((a, b, c), axis=-1),
                     np.stack((S.g, gtilde, eta_eta), axis=-3), "s,sij->ij"))
    k = min(space.order, 1)
    low = jet_space(space.m, k)
    xibar, etabar = (tscale(low, ttrunc(space, f, k), ttrunc(space, x, k))
                     for f, x in ((e_minus_w, S.xi), (e_w, S.eta)))
    return StructureJets(space, S.point, gbar, S.phi, xibar, etabar)


class TransformedStructure(StructureProvider):
    """Structure provider for the deformed (phi, xi_bar, eta_bar, g_bar)."""

    def __init__(self, base: StructureProvider, triple: TransformTriple):
        self.base = base
        self.triple = triple
        self.n = base.n
        self.coords = base.coords
        self.name = f"{getattr(base, 'name', 'chart')}+transform"

    def structure_at(self, points, order: int) -> StructureJets:
        S = self.base.structure_at(points, order)
        return deform(S, *self.triple.jets(self.base, points, order)[3:])

    def evaluate(self, points, order: int):
        """(base structure jets, deformed evaluation, differentials of
        (u, v, w)) at chart points, from one evaluation of the base
        structure and of the triple; needs ``order`` >= 1."""
        S = self.base.structure_at(points, order)
        u, v, w, *factors = self.triple.jets(self.base, points, order)
        ev_bar = AccrEval.from_jets(deform(S, *factors))
        return S, ev_bar, Differentials.from_jets(S.space, u, v, w, S.phi[0])


@dataclass
class Differentials:
    """Value-level differentials of (u, v, w) at each point, with the
    contractions used throughout the soliton machinery."""

    du: np.ndarray
    dv: np.ndarray
    dw: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    alpha: np.ndarray          # du o phi + dv
    beta: np.ndarray           # du - dv o phi

    @classmethod
    def from_jets(cls, space, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                  phi0: np.ndarray) -> "Differentials":
        """From jets of order >= 1 in ``space`` of (u, v, w) and the value
        of phi at the same points."""
        du, dv, dw = (tgrad0(space, x) for x in (u, v, w))
        return cls(du=du, dv=dv, dw=dw, u=u[0], v=v[0], w=w[0],
                   alpha=_vm(du, phi0) + dv, beta=du - _vm(dv, phi0))


def differentials(triple: TransformTriple, ev: AccrEval,
                  provider: StructureProvider) -> Differentials:
    """Evaluate du, dv, dw and the associated covectors alpha, beta at
    the points of ``ev`` (which must be an evaluation of ``provider``)."""
    order = max(1, ev.S.space.order)
    space = jet_space(len(provider.coords), order)
    u, v, w = ex.eval_jets(space, (triple.u, triple.v, triple.w),
                           coordinate_bindings(provider.coords, ev.S.point,
                                               order))
    return Differentials.from_jets(space, u, v, w, ev.phi0)


def alpha_beta_residuals(d: Differentials, ev: AccrEval,
                         ev_bar: AccrEval) -> dict:
    """Identities alpha o phi^2 + beta o phi = alpha o phi - beta o phi^2
    = 0 and alpha(xi_bar) = dv(xi_bar), beta(xi_bar) = du(xi_bar)."""
    phi0 = ev.phi0
    phi2 = phi0 @ phi0
    xibar = ev_bar.xi0
    return {
        "alpha_phi2_beta_phi": _maxabs(_vm(d.alpha, phi2)
                                       + _vm(d.beta, phi0), 1),
        "alpha_phi_beta_phi2": _maxabs(_vm(d.alpha, phi0)
                                       - _vm(d.beta, phi2), 1),
        "alpha_xibar": np.abs(_dot(d.alpha, xibar) - _dot(d.dv, xibar)),
        "beta_xibar": np.abs(_dot(d.beta, xibar) - _dot(d.du, xibar)),
    }


def _lee_scale(ev_bar: AccrEval):        # max(1, |theta|, |theta*|)
    return np.maximum(1.0, np.maximum(_maxabs(ev_bar.theta, 1),
                                      _maxabs(ev_bar.theta_star, 1)))


def lee_transformation_residuals(ev: AccrEval, ev_bar: AccrEval,
                                 d: Differentials) -> dict:
    """Lee transformation law: theta_bar = theta + 2n alpha,
    theta*_bar = theta* + 2n beta, omega_bar = omega + dw o phi.
    Both sides are computed independently (the left via full
    recomputation of the deformed structure's F)."""
    n = ev.n
    scale = _lee_scale(ev_bar)
    return {
        "theta_law": _maxabs(ev_bar.theta - ev.theta - 2 * n * d.alpha, 1)
        / scale,
        "theta_star_law": _maxabs(ev_bar.theta_star - ev.theta_star
                                  - 2 * n * d.beta, 1) / scale,
        "omega_law": _maxabs(ev_bar.omega - ev.omega - _vm(d.dw, ev.phi0),
                             1) / scale,
    }


def metric_roundtrip_residual(ev: AccrEval, ev_bar: AccrEval,
                              d: Differentials):
    """Reconstruct g(phi.,phi.) and g(.,phi.) from the deformed metric:
    g(phi.,phi.) = e^-2u{cos2v gbar(phi.,phi.) + sin2v gbar(.,phi.)},
    g(.,phi.)    = e^-2u{cos2v gbar(.,phi.) - sin2v gbar(phi.,phi.)}."""
    phi0 = ev.phi0
    g0, gb = ev.g0, ev_bar.g0
    e = np.exp(-2.0 * d.u)[..., None, None]
    c = np.cos(2.0 * d.v)[..., None, None]
    s = np.sin(2.0 * d.v)[..., None, None]
    gpp, gp = _T(phi0) @ g0 @ phi0, g0 @ phi0
    gbpp, gbp = _T(phi0) @ gb @ phi0, gb @ phi0
    r1 = gpp - e * (c * gbpp + s * gbp)
    r2 = gp - e * (c * gbp - s * gbpp)
    scale = np.maximum(1.0, _maxabs(gb, 2))
    return np.maximum(_maxabs(r1, 2), _maxabs(r2, 2)) / scale


def condition_residuals(d: Differentials, S: StructureJets, fk) -> dict:
    """Residuals of the three soliton conditions on the base structure
    ``S`` at each point: du(xi) = -f/k, dv(xi) = 0 and dw vertical."""
    xi0, eta0 = tvalue(S.xi), tvalue(S.eta)
    return {
        "du_xi_plus_fk": np.abs(_dot(d.du, xi0) + fk),
        "dv_xi": np.abs(_dot(d.dv, xi0)),
        "dw_vertical": _maxabs(d.dw - _dot(d.dw, xi0)[..., None] * eta0, 1),
    }


def yamabe_check(tstruct: TransformedStructure, points, sigma: float = None,
                 fk=None, tol: float = 1e-6, class_tol: float = TOL_CLASS):
    """Verify the soliton identity (1/2) L_{xi_bar} g_bar
    = (tau_bar - sigma) g_bar over the sample points, chunk by chunk, on
    jets of order 2: tau_bar reads the second derivatives of g_bar and
    every other check the first.

    If ``sigma`` is None it is set to the mean of the sampled scalar
    curvatures, so the reported standard deviation doubles as the
    constancy check.  ``fk`` (a callable giving the f/k ratio of the
    base structure's vertical torse-forming field at each of a batch of
    points) adds the condition residuals; ``class_tol`` is the tolerance
    of the F1 class verdict of the deformed structure.

    Returns ``(checks, values)``: the worst residual of each check over
    the points, in report order (``is_F1`` as 0/1, the ``cond:`` checks
    only with ``fk``), and the reported values.
    """
    n, dim = tstruct.n, 2 * tstruct.n + 1
    upper = np.triu_indices(dim)
    # per chunk, what the sigma-dependent residuals read, one row a point:
    # L_xi gbar and the right-hand side of its identity, the upper triangle
    # of gbar (exactly symmetric), etabar and dw o phi^2
    held = []
    cut = np.cumsum([dim * dim, dim * dim, len(upper[0]), dim])

    def chunk(pts):
        S, ev_bar, d = tstruct.evaluate(pts, 2)
        Sb, space = ev_bar.S, ev_bar.S.space
        lie0 = lie_metric_coord(space, Sb.g, Sb.xi)
        lie_v = lie_metric_cov(ev_bar.g0, cov_deriv_vector(
            space, ev_bar.frame.gamma, Sb.xi))
        etab = ev_bar.eta0
        gb0, phi0, tau = ev_bar.g0, ev_bar.phi0, ev_bar.frame.tau
        phi2 = phi0 @ phi0
        scale = np.maximum(1.0, _maxabs(gb0, 2))
        lscale = _lee_scale(ev_bar)
        # with L = 2(tau-sigma){-gbar(phi.,phi.) + etabar (x) etabar}
        held.append(np.concatenate([x.reshape(len(pts), -1) for x in (
            lie0, -(_T(phi0) @ gb0 @ phi0) + _outer(etab, etab),
            gb0[..., upper[0], upper[1]], etab, _vm(d.dw, phi2))], axis=1))
        out = {"tau": tau,
               "is_F1": class_residuals(ev_bar, tol=class_tol)[1]["is_F1"],
               "residuals": {
                   "killing": _maxabs(lie0, 2) / scale,
                   "lie_formula_mismatch": _maxabs(lie0 - lie_v, 2),
                   # theta_bar = 2n(du o phi + dv)
                   "lee_theta": _maxabs(ev_bar.theta - 2 * n * d.alpha, 1)
                   / lscale,
                   # theta*_bar = -2n(du o phi^2 + dv o phi)
                   "lee_theta_star": _maxabs(ev_bar.theta_star + 2 * n * (
                       _vm(d.du, phi2) + _vm(d.dv, phi0)), 1) / lscale,
                   "omega_bar": _maxabs(ev_bar.omega, 1) / lscale}}
        if fk is not None:
            c = condition_residuals(d, S, fk(pts))
            out["conditions"] = {"cond:du_xi": c["du_xi_plus_fk"],
                                 "cond:dv_xi": c["dv_xi"],
                                 "cond:dw_vertical": c["dw_vertical"]}
        return out

    def sigma_residuals(tau, rows):
        lie0, lrhs, gb_upper, etab, dwp2 = np.split(rows, cut, axis=1)
        lie0, lrhs = (x.reshape(-1, dim, dim) for x in (lie0, lrhs))
        # the scale of the chunk: gbar's largest entry is in its upper half
        scale = np.maximum(1.0, _maxabs(gb_upper, 1))
        gb0 = np.empty_like(lie0)
        gb0[..., upper[0], upper[1]] = gb0[..., upper[1], upper[0]] = gb_upper
        ts = (tau - sig)[:, None, None]
        return (_maxabs(0.5 * lie0 - ts * gb0, 2) / scale,
                _maxabs(2.0 * ts[:, 0] * etab - dwp2, 1),
                _maxabs(lie0 - 2.0 * ts * lrhs, 2) / scale)

    r = over_chunks(chunk, np.asarray(points, dtype=float), 2)
    taus = r["tau"]
    tau_mean = float(np.mean(taus))
    tau_std = float(np.std(taus))
    sigma_given = sigma is not None
    sig = float(sigma) if sigma_given else tau_mean
    try:
        with np.errstate(over="raise", invalid="raise"):
            soliton, tsdw, lxi00 = map(np.concatenate, zip(
                *map(sigma_residuals, np.split(taus, np.cumsum(
                    [len(rows) for rows in held])[:-1]), held)))
    except FloatingPointError as err:
        raise FloatingPointError(
            f"sigma={sig!r} takes the soliton residuals out of the float "
            f"range ({err})")
    # where tau = sigma a point counts only if the soliton identity holds
    counted = (np.abs(taus - sig) > 1e-12) | (soliton <= tol)
    worst = worst_of({"soliton": soliton, **r["residuals"],
                      "tsdw_residual": tsdw,
                      "lxi00_residual": np.where(counted, lxi00, 0.0)})
    checks = {"soliton": worst["soliton"],
              "tau_constancy": tau_std / (1.0 + abs(tau_mean)),
              "killing": worst["killing"],
              "is_F1": 0.0 if r["is_F1"].all() else 1.0,
              **{k: worst[k] for k in ("lee_theta", "lee_theta_star",
                                       "omega_bar")}}
    if fk is not None:
        checks.update(worst_of(r["conditions"]))
    values = {"sigma": sig, "sigma_given": sigma_given,
              "tau_mean": tau_mean, "tau_std": tau_std,
              "tau_values": taus.tolist(),
              "tsdw_residual": worst["tsdw_residual"],
              "lxi00_residual": worst["lxi00_residual"],
              "lie_formula_mismatch": worst["lie_formula_mismatch"]}
    return checks, values
