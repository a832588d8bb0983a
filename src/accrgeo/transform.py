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
                   _maxabs, class_residuals, worst_of)
from .geometry import (coordinate_bindings, cov_deriv_vector, lie_metric_cov,
                       lie_metric_coord)
from .jets import jet_space, tmul, tscale, tsym, ttrunc, tvalue


@dataclass(frozen=True)
class TransformTriple:
    """The three scalar fields (u, v, w) of one deformation."""

    u: ex.Expr
    v: ex.Expr
    w: ex.Expr

    @classmethod
    def make(cls, u, v, w) -> "TransformTriple":
        return cls(ex.as_expr(u), ex.as_expr(v), ex.as_expr(w))

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

    def jets(self, provider: StructureProvider, point, order: int):
        """Jets of :attr:`exprs` at a chart point, from one evaluation."""
        return ex.eval_jets(jet_space(len(provider.coords), order),
                            self.exprs,
                            coordinate_bindings(provider.coords, point, order))


def deform(S: StructureJets, a, b, c, e_minus_w, e_w) -> StructureJets:
    """The deformed fields (phi, xi_bar, eta_bar, g_bar) from the base
    structure jets and the jets of the deformation factors at the same
    point (the last five of :attr:`TransformTriple.exprs`)."""
    space = S.space
    eta_eta = tmul(space, S.eta, S.eta, "i,j->ij")
    gtilde = tmul(space, S.g, S.phi, "ia,aj->ij") + eta_eta
    gbar = tsym(tscale(space, a, S.g) + tscale(space, b, gtilde)
                + tscale(space, c, eta_eta))
    xibar = tscale(space, e_minus_w, S.xi)
    etabar = tscale(space, e_w, S.eta)
    return StructureJets(space, S.point, gbar, S.phi, xibar, etabar)


class TransformedStructure(StructureProvider):
    """Structure provider for the deformed (phi, xi_bar, eta_bar, g_bar)."""

    def __init__(self, base: StructureProvider, triple: TransformTriple):
        self.base = base
        self.triple = triple
        self.n = base.n
        self.coords = base.coords
        self.name = f"{getattr(base, 'name', 'chart')}+transform"

    def structure_at(self, point, order: int) -> StructureJets:
        S = self.base.structure_at(point, order)
        return deform(S, *self.triple.jets(self.base, point, order)[3:])

    def evaluate(self, point, order: int, curvature: bool = False):
        """(base structure jets, deformed evaluation, differentials of
        (u, v, w)) at a point, from one evaluation of the base structure
        and of the triple; needs ``order`` >= 1."""
        S = self.base.structure_at(point, order)
        u, v, w, *factors = self.triple.jets(self.base, point, order)
        ev_bar = AccrEval.from_jets(deform(S, *factors), curvature)
        return S, ev_bar, Differentials.from_jets(u, v, w, S)


@dataclass
class Differentials:
    """Value-level differentials of (u, v, w) at a point, with the
    contractions used throughout the soliton machinery."""

    du: np.ndarray
    dv: np.ndarray
    dw: np.ndarray
    u: float
    v: float
    w: float
    alpha: np.ndarray          # du o phi + dv
    beta: np.ndarray           # du - dv o phi
    du_xi: float
    dv_xi: float
    dw_xi: float

    @classmethod
    def from_jets(cls, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                  S: StructureJets) -> "Differentials":
        """From jets of order >= 1 of (u, v, w) and the base structure
        jets at the same point."""
        m = S.space.m
        du, dv, dw = u[1:1 + m], v[1:1 + m], w[1:1 + m]
        phi0, xi0 = tvalue(S.phi), tvalue(S.xi)
        return cls(
            du=du, dv=dv, dw=dw, u=float(u[0]), v=float(v[0]),
            w=float(w[0]),
            alpha=du @ phi0 + dv, beta=du - dv @ phi0,
            du_xi=float(du @ xi0), dv_xi=float(dv @ xi0),
            dw_xi=float(dw @ xi0),
        )


def differentials(triple: TransformTriple, ev: AccrEval,
                  provider: StructureProvider) -> Differentials:
    """Evaluate du, dv, dw and the associated covectors alpha, beta at
    the point of ``ev`` (which must be an evaluation of ``provider``)."""
    order = max(1, ev.S.space.order)
    u, v, w = ex.eval_jets(
        jet_space(len(provider.coords), order), (triple.u, triple.v, triple.w),
        coordinate_bindings(provider.coords, ev.S.point, order))
    return Differentials.from_jets(u, v, w, ev.S)


def alpha_beta_residuals(d: Differentials, ev: AccrEval,
                         ev_bar: AccrEval) -> dict[str, float]:
    """Identities alpha o phi^2 + beta o phi = alpha o phi - beta o phi^2
    = 0 and alpha(xi_bar) = dv(xi_bar), beta(xi_bar) = du(xi_bar)."""
    phi0 = ev.phi0
    phi2 = phi0 @ phi0
    xibar = ev_bar.xi0
    return {
        "alpha_phi2_beta_phi": _maxabs(d.alpha @ phi2 + d.beta @ phi0),
        "alpha_phi_beta_phi2": _maxabs(d.alpha @ phi0 - d.beta @ phi2),
        "alpha_xibar": abs(float(d.alpha @ xibar) - float(d.dv @ xibar)),
        "beta_xibar": abs(float(d.beta @ xibar) - float(d.du @ xibar)),
    }


def lee_transformation_residuals(ev: AccrEval, ev_bar: AccrEval,
                                 d: Differentials) -> dict[str, float]:
    """Lee transformation law: theta_bar = theta + 2n alpha,
    theta*_bar = theta* + 2n beta, omega_bar = omega + dw o phi.
    Both sides are computed independently (the left via full
    recomputation of the deformed structure's F)."""
    n = ev.n
    phi0 = ev.phi0
    scale = max(1.0, _maxabs(ev_bar.theta), _maxabs(ev_bar.theta_star))
    return {
        "theta_law": _maxabs(ev_bar.theta - ev.theta - 2 * n * d.alpha)
        / scale,
        "theta_star_law": _maxabs(ev_bar.theta_star - ev.theta_star
                                  - 2 * n * d.beta) / scale,
        "omega_law": _maxabs(ev_bar.omega - ev.omega - d.dw @ phi0) / scale,
    }


def metric_roundtrip_residual(ev: AccrEval, ev_bar: AccrEval,
                              d: Differentials) -> float:
    """Reconstruct g(phi.,phi.) and g(.,phi.) from the deformed metric:
    g(phi.,phi.) = e^-2u{cos2v gbar(phi.,phi.) + sin2v gbar(.,phi.)},
    g(.,phi.)    = e^-2u{cos2v gbar(.,phi.) - sin2v gbar(phi.,phi.)}."""
    phi0 = ev.phi0
    g0, gb = ev.g0, ev_bar.g0
    e = np.exp(-2.0 * d.u)
    c, s = np.cos(2.0 * d.v), np.sin(2.0 * d.v)
    gpp, gp = phi0.T @ g0 @ phi0, g0 @ phi0
    gbpp, gbp = phi0.T @ gb @ phi0, gb @ phi0
    r1 = gpp - e * (c * gbpp + s * gbp)
    r2 = gp - e * (c * gbp - s * gbpp)
    scale = max(1.0, _maxabs(gb))
    return max(_maxabs(r1), _maxabs(r2)) / scale


def fbar_f5_closed_form(ev: AccrEval, ev_bar: AccrEval, d: Differentials,
                        fk: float) -> dict[str, float]:
    """Deviation of the directly computed deformed F from the two closed
    forms available for a pure-F5 input with vertical torse-forming data
    (conformal scalar ratio ``fk`` = f/k).

    Returns max-norm deviations for the g-expressed and the
    gbar-expressed forms, relative to the deformed F's scale.
    """
    g0, phi0, eta0 = ev.g0, ev.phi0, ev.eta0
    gb, etab = ev_bar.g0, ev_bar.eta0
    c, s = np.cos(2.0 * d.v), np.sin(2.0 * d.v)
    e2u, e2w = np.exp(2.0 * d.u), np.exp(2.0 * d.w)
    bfk = d.beta + fk * eta0
    lam = c * d.alpha + s * bfk
    mu = c * bfk - s * d.alpha
    gpp, gp = phi0.T @ g0 @ phi0, g0 @ phi0
    dwp = d.dw @ phi0
    F_g = -e2u * (np.einsum("ij,k->ijk", gpp, lam)
                  + np.einsum("ik,j->ijk", gpp, lam)
                  + np.einsum("ij,k->ijk", gp, mu)
                  + np.einsum("ik,j->ijk", gp, mu))
    F_g += e2w * (np.einsum("i,j,k->ijk", eta0, eta0, dwp)
                  + np.einsum("i,k,j->ijk", eta0, eta0, dwp))
    gbpp, gbp = phi0.T @ gb @ phi0, gb @ phi0
    F_gb = -(np.einsum("ij,k->ijk", gbpp, d.alpha)
             + np.einsum("ik,j->ijk", gbpp, d.alpha)
             + np.einsum("ij,k->ijk", gbp, bfk)
             + np.einsum("ik,j->ijk", gbp, bfk))
    F_gb += (np.einsum("i,j,k->ijk", etab, etab, dwp)
             + np.einsum("i,k,j->ijk", etab, etab, dwp))
    scale = max(1.0, _maxabs(ev_bar.F))
    return {
        "fbar_vs_g_form": _maxabs(ev_bar.F - F_g) / scale,
        "fbar_vs_gbar_form": _maxabs(ev_bar.F - F_gb) / scale,
    }


def condition_residuals(d: Differentials, S: StructureJets,
                        fk: float) -> dict[str, float]:
    """Pointwise residuals of the three soliton conditions on the base
    structure ``S`` (du(xi) = -f/k, dv(xi) = 0, dw vertical) and of the
    function shapes: w horizontally constant, and (u, v) a holomorphic
    pair when both ``holo_*`` vanish."""
    phi0, eta0 = tvalue(S.phi), tvalue(S.eta)
    phi2 = phi0 @ phi0
    return {
        "du_xi_plus_fk": abs(d.du_xi + fk),
        "dv_xi": abs(d.dv_xi),
        "dw_vertical": _maxabs(d.dw - d.dw_xi * eta0),
        "w_horizontal_constant": _maxabs(d.dw @ phi2),     # |dw o phi^2|
        "holo_1": _maxabs(d.du @ phi0 - d.dv @ phi2),
        "holo_2": _maxabs(d.du @ phi2 + d.dv @ phi0),
    }


def yamabe_check(tstruct: TransformedStructure, points, sigma: float = None,
                 fk=None, order: int = 2, tol: float = 1e-6,
                 class_tol: float = TOL_CLASS):
    """Verify the soliton identity (1/2) L_{xi_bar} g_bar
    = (tau_bar - sigma) g_bar over the sample points.

    If ``sigma`` is None it is set to the mean of the sampled scalar
    curvatures, so the reported standard deviation doubles as the
    constancy check.  ``fk`` (a callable giving the f/k ratio of the
    base structure's vertical torse-forming field at a point) adds the
    condition residuals; ``class_tol`` is the tolerance of the F1 class
    verdict of the deformed structure.

    Returns ``(checks, values)``: the worst residual of each check over
    the points, in report order (``is_F1`` as 0/1, the ``cond:`` checks
    only with ``fk``), and the reported values.
    """
    if order < 2:
        raise ValueError("soliton verification needs jets of order >= 2")
    n = tstruct.n
    taus, families, records, conditions = [], [], [], []
    is_f1 = True
    for p in points:
        S, ev_bar, d = tstruct.evaluate(p, order, curvature=True)
        Sb = ev_bar.S
        space = Sb.space
        child, lie_c = lie_metric_coord(space, Sb.g, Sb.xi)
        _, nxi = cov_deriv_vector(space, ev_bar.frame.gamma, Sb.xi)
        lie_v = lie_metric_cov(child, ttrunc(space, Sb.g, child.order), nxi)
        # copies, not views: a view of a jet array keeps the jets alive
        lie0, gb0 = tvalue(lie_c).copy(), ev_bar.g0.copy()
        phi0, etab = ev_bar.phi0, ev_bar.eta0.copy()
        phi2 = phi0 @ phi0
        lscale = max(1.0, _maxabs(ev_bar.theta), _maxabs(ev_bar.theta_star))
        taus.append(ev_bar.frame.tau)
        families.append({
            "killing": _maxabs(lie0) / max(1.0, _maxabs(gb0)),
            "lie_formula_mismatch": _maxabs(tvalue(lie_c - lie_v)),
            # theta_bar = 2n(du o phi + dv)
            "lee_theta": _maxabs(ev_bar.theta - 2 * n * d.alpha) / lscale,
            # theta*_bar = -2n(du o phi^2 + dv o phi)
            "lee_theta_star": _maxabs(
                ev_bar.theta_star + 2 * n * (d.du @ phi2
                                             + d.dv @ phi0)) / lscale,
            "omega_bar": _maxabs(ev_bar.omega) / lscale,
        })
        # the value matrices the sigma-dependent residuals need, with
        # L = 2(tau-sigma){-gbar(phi.,phi.) + etabar (x) etabar}
        records.append((lie0, gb0, etab, d.dw @ phi2,
                        -(phi0.T @ gb0 @ phi0) + np.outer(etab, etab)))
        is_f1 = is_f1 and class_residuals(ev_bar, tol=class_tol).is_F1
        if fk is not None:
            conditions.append(condition_residuals(d, S, fk(p)))

    tau_mean = float(np.mean(taus))
    tau_std = float(np.std(taus))
    sigma_given = sigma is not None
    sig = float(sigma) if sigma_given else tau_mean
    try:
        with np.errstate(over="raise", invalid="raise"):
            for fam, tau, (lie0, gb0, etab, dwp2, lrhs) in zip(
                    families, taus, records):
                scale = max(1.0, _maxabs(gb0))
                ts = tau - sig
                fam["soliton"] = _maxabs(0.5 * lie0 - ts * gb0) / scale
                fam["tsdw_residual"] = _maxabs(2.0 * ts * etab - dwp2)
                # where tau = sigma the point counts only if the soliton
                # identity holds
                if abs(ts) > 1e-12 or fam["soliton"] <= tol:
                    fam["lxi00_residual"] = _maxabs(
                        lie0 - 2.0 * ts * lrhs) / scale
    except FloatingPointError as err:
        raise FloatingPointError(
            f"sigma={sig!r} takes the soliton residuals out of the float "
            f"range ({err})")

    worst = worst_of(families)
    checks = {"soliton": worst["soliton"],
              "tau_constancy": tau_std / (1.0 + abs(tau_mean)),
              "killing": worst["killing"], "is_F1": 0.0 if is_f1 else 1.0,
              **{k: worst[k] for k in ("lee_theta", "lee_theta_star",
                                       "omega_bar")}}
    if conditions:
        cond = worst_of(conditions)
        checks.update({"cond:du_xi": cond["du_xi_plus_fk"],
                       "cond:dv_xi": cond["dv_xi"],
                       "cond:dw_vertical": cond["dw_vertical"]})
    values = {"sigma": sig, "sigma_given": sigma_given,
              "tau_mean": tau_mean, "tau_std": tau_std, "tau_values": taus,
              "tsdw_residual": worst["tsdw_residual"],
              "lxi00_residual": worst.get("lxi00_residual", 0.0),
              "lie_formula_mismatch": worst["lie_formula_mismatch"]}
    return checks, values
