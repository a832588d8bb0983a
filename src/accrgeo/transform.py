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
                   class_residuals, over_chunks)
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


def _combine(s, t):
    """sum_s s_s t_sij, one matmul over the flattened (i, j)."""
    st = s[..., None, :] @ t.reshape(t.shape[:-2] + (-1,))
    return st.reshape(st.shape[:-2] + t.shape[-2:])


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
    eta_eta = tmul(space, S.eta, S.eta, _outer)
    gtilde = tmul(space, S.g, S.phi, np.matmul) + eta_eta
    gbar = tsym(tmul(space, np.stack((a, b, c), axis=-1),
                     np.stack((S.g, gtilde, eta_eta), axis=-3), _combine))
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
        "du_xi": np.abs(_dot(d.du, xi0) + fk),
        "dv_xi": np.abs(_dot(d.dv, xi0)),
        "dw_vertical": _maxabs(d.dw - _dot(d.dw, xi0)[..., None] * eta0, 1),
    }


def yamabe_check(tstruct: TransformedStructure, points, sigma: float = None,
                 class_tol: float = TOL_CLASS) -> dict:
    """Verify the soliton identity (1/2) L_{xi_bar} g_bar
    = (tau_bar - sigma) g_bar over the sample points, chunk by chunk, on
    jets of order 2: tau_bar reads the second derivatives of g_bar and
    every other check the first.

    If ``sigma`` is None it is set to the mean of the sampled scalar
    curvatures, so the reported standard deviation doubles as the
    constancy check.  The base structure's ``fk`` (a callable giving the
    f/k ratio of its vertical torse-forming field at each of a batch of
    points), where it declares one, adds the condition residuals;
    ``class_tol`` is the tolerance of the F1 class verdict of the
    deformed structure.  Until sigma is known, each chunk keeps copies of
    what the sigma-dependent residuals read: tau, L_{xi_bar} g_bar,
    g_bar, eta_bar and dw o phi^2.

    Returns per-point arrays keyed by the names the report prints, in a
    dict by tolerance family: ``identity`` (``soliton``,
    ``tau_constancy``, ``killing``), ``lee`` (``lee_theta``,
    ``lee_theta_star``, ``omega_bar``) and, with the base's ``fk``,
    ``conditions`` (those of :func:`condition_residuals`); beside them
    ``is_F1``, the F1 verdict at each point, ``values``, the residuals
    behind ``tsdw_residual`` (2(tau - sigma) eta_bar = dw o phi^2) and
    ``lie_formula_mismatch``, and ``tau``: ``sigma``, ``tau_mean``,
    ``tau_std`` and ``tau_values``.
    """
    n, fk = tstruct.n, tstruct.base.fk
    held = []

    def chunk(pts):
        S, ev_bar, d = tstruct.evaluate(pts, 2)
        Sb, space = ev_bar.S, ev_bar.S.space
        lie0 = lie_metric_coord(space, Sb.g, Sb.xi)
        lie_v = lie_metric_cov(ev_bar.g0, cov_deriv_vector(
            space, ev_bar.frame.gamma, Sb.xi))
        gb0, phi0 = ev_bar.g0, ev_bar.phi0
        phi2 = phi0 @ phi0
        scale = np.maximum(1.0, _maxabs(gb0, 2))
        lscale = _lee_scale(ev_bar)
        held.append((ev_bar.frame.tau, lie0, gb0.copy(), ev_bar.eta0.copy(),
                     _vm(d.dw, phi2)))
        out = {"identity": {"killing": _maxabs(lie0, 2) / scale},
               "is_F1": class_residuals(ev_bar, tol=class_tol)[1]["is_F1"],
               "lee": {
                   # theta_bar = 2n(du o phi + dv)
                   "lee_theta": _maxabs(ev_bar.theta - 2 * n * d.alpha, 1)
                   / lscale,
                   # theta*_bar = -2n(du o phi^2 + dv o phi)
                   "lee_theta_star": _maxabs(ev_bar.theta_star + 2 * n * (
                       _vm(d.du, phi2) + _vm(d.dv, phi0)), 1) / lscale,
                   "omega_bar": _maxabs(ev_bar.omega, 1) / lscale},
               "values": {"lie_formula_mismatch": _maxabs(lie0 - lie_v, 2)}}
        if fk is not None:
            out["conditions"] = condition_residuals(d, S, fk(pts))
        return out

    r = over_chunks(chunk, np.asarray(points, dtype=float), 2)
    taus = np.concatenate([h[0] for h in held])
    tau_mean, tau_std = float(np.mean(taus)), float(np.std(taus))
    sig = tau_mean if sigma is None else float(sigma)

    def sigma_residuals(tau, lie0, gb0, etab, dwp2):
        ts = (tau - sig)[:, None]
        scale = np.maximum(1.0, _maxabs(gb0, 2))
        return (_maxabs(0.5 * lie0 - ts[..., None] * gb0, 2) / scale,
                _maxabs(2.0 * ts * etab - dwp2, 1))

    try:
        with np.errstate(over="raise", invalid="raise"):
            soliton, tsdw = map(np.concatenate, zip(
                *(sigma_residuals(*h) for h in held)))
    except FloatingPointError as err:
        raise FloatingPointError(
            f"sigma={sig!r} takes the soliton residuals out of the float "
            f"range ({err})")
    r["identity"] = {"soliton": soliton, "tau_constancy": np.full_like(
        taus, tau_std / (1.0 + abs(tau_mean))), **r["identity"]}
    r["values"]["tsdw_residual"] = tsdw
    r["tau"] = {"sigma": sig, "tau_mean": tau_mean, "tau_std": tau_std,
                "tau_values": taus.tolist()}
    return r
