"""Contact conformal deformations: metric laws, Lee transformation laws,
soliton verification and its negative controls."""

import sys

import numpy as np
import pytest

from accrgeo import accr, examples, geometry, jets
from accrgeo import expr as ex
from accrgeo import transform as tr
from accrgeo.accr import check_axioms, class_residuals, structure_eval
from accrgeo.cli import PRESETS
from accrgeo.examples import (REGISTRY, build_flat_f0, build_hypersurface,
                              get_example, holomorphic_pair_uvw,
                              random_structure, sample_points, soliton_uvw)
from accrgeo.geometry import coordinate_bindings
from accrgeo.jets import jet_space, ttrunc
from oracles import fbar_f5_closed_form, partial, shape_residuals, uvw
from report_matrix import run

RNG = np.random.default_rng(1234)


def random_triple(rng, coords):
    """Random quadratic polynomial triple over the chart coordinates."""
    def poly():
        parts = []
        for _ in range(3):
            c = rng.uniform(-0.3, 0.3)
            a, b = rng.choice(coords, size=2)
            parts.append("%.6f * %s * %s" % (c, a, b))
        parts.append("%.6f * %s" % (rng.uniform(-0.3, 0.3),
                                    rng.choice(coords)))
        return " + ".join(parts)
    return uvw(poly(), poly(), poly())


# ---------------------------------------------------------------------------
# Deformed structure basics
# ---------------------------------------------------------------------------

def test_identity_transform_is_noop():
    prov = random_structure(1, seed=2)
    ts = tr.TransformedStructure(prov, tr.TransformTriple.identity())
    p = [0.8, 1.1, 0.6]
    S0 = prov.structure_at(p, 2)
    S1 = ts.structure_at(p, 2)
    assert np.allclose(S0.g, S1.g, atol=1e-14)
    # xi_bar and eta_bar keep their order-1 coefficients
    for x0, x1 in ((S0.xi, S1.xi), (S0.eta, S1.eta)):
        assert x1.shape == ttrunc(S0.space, x0, 1).shape
        assert np.allclose(ttrunc(S0.space, x0, 1), x1, atol=1e-14)


def test_vertical_only_transform_changes_eta_part_only():
    # (u, v, w) = (0, 0, w): gbar = g + (e^2w - 1) eta (x) eta
    prov = build_flat_f0(1)
    triple = uvw(0.0, 0.0, "0.3 * t")
    ts = tr.TransformedStructure(prov, triple)
    p = [0.7, 0.9, 1.2]
    ev = structure_eval(prov, p, order=1)
    evb = structure_eval(ts, p, order=1)
    expect = ev.g0 + (np.exp(2 * 0.3 * p[2]) - 1) * np.outer(ev.eta0,
                                                             ev.eta0)
    assert np.max(np.abs(evb.g0 - expect)) < 1e-12
    assert np.allclose(evb.xi0, np.exp(-0.3 * p[2]) * ev.xi0, atol=1e-12)
    assert np.allclose(evb.eta0, np.exp(0.3 * p[2]) * ev.eta0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_deformed_structure_satisfies_axioms(n):
    rng = np.random.default_rng(5 + n)
    prov = random_structure(n, seed=n)
    triple = random_triple(rng, prov.coords)
    ts = tr.TransformedStructure(prov, triple)
    for p in sample_points(ts.dim, 3, seed=n):
        res = check_axioms(structure_eval(ts, p, order=1))
        assert max(res.values()) < 1e-9


def test_transforms_compose_additively():
    prov = random_structure(1, seed=8)
    t1 = uvw("0.2 * x1", "0.1 * x2 * t", "0.3 * t")
    t2 = uvw("0.1 * x2", "0.2 * t", "0.1 * x1 * x1")
    step = tr.TransformedStructure(tr.TransformedStructure(prov, t1), t2)
    both = tr.TransformedStructure(prov, tr.TransformTriple(
        t1.u + t2.u, t1.v + t2.v, t1.w + t2.w))
    for p in sample_points(3, 3, seed=4):
        # order 1: above it a deformed structure keeps xi_bar and eta_bar
        # at order 1, too low for the g_bar of another deformation
        Sa = step.structure_at(p, 1)
        Sb = both.structure_at(p, 1)
        assert np.max(np.abs(Sa.g - Sb.g)) < 1e-9
        for xa, xb in ((Sa.xi, Sb.xi), (Sa.eta, Sb.eta)):
            assert xa.shape == xb.shape == (jet_space(3, 1).ncoeff, 3)
            assert np.max(np.abs(xa - xb)) < 1e-12


@pytest.mark.parametrize("order", [2, 3])
def test_deformation_of_a_deformed_structure_fails_above_order_1(order):
    prov = random_structure(1, seed=8)
    step = tr.TransformedStructure(
        tr.TransformedStructure(prov, uvw("0.2 * x1", "0.1 * t", "0.3 * t")),
        uvw("0.1 * x2", "0.2 * t", "0.1 * x1"))
    with pytest.raises(ValueError, match="no base for another deformation"):
        step.structure_at(sample_points(3, 2, seed=4), order)


# ---------------------------------------------------------------------------
# Transformation laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_lee_laws_alpha_beta_and_roundtrip(n):
    rng = np.random.default_rng(40 + n)
    for seed in range(4):
        prov = random_structure(n, seed=seed + 10 * n)
        triple = random_triple(rng, prov.coords)
        ts = tr.TransformedStructure(prov, triple)
        for p in sample_points(prov.dim, 2, seed=seed):
            ev = structure_eval(prov, p, order=1)
            evb = structure_eval(ts, p, order=1)
            d = tr.differentials(triple, ev, prov)
            lee = tr.lee_transformation_residuals(ev, evb, d)
            assert max(lee.values()) < 1e-7
            ab = tr.alpha_beta_residuals(d, ev, evb)
            assert max(ab.values()) < 1e-9
            assert tr.metric_roundtrip_residual(ev, evb, d) < 1e-7


def test_flat_base_lee_forms_are_pure_alpha_beta():
    # on an F-vanishing base: theta_bar = 2n alpha,
    # theta*_bar = 2n beta, omega_bar = dw o phi
    prov = build_flat_f0(1)
    triple = uvw("0.2 * x1 * x2", "0.1 * t * x1", "0.3 * x2")
    ts = tr.TransformedStructure(prov, triple)
    p = [0.9, 1.2, 0.5]
    ev = structure_eval(prov, p, order=1)
    evb = structure_eval(ts, p, order=1)
    d = tr.differentials(triple, ev, prov)
    assert np.max(np.abs(evb.theta - 2 * d.alpha)) < 1e-10
    assert np.max(np.abs(evb.theta_star - 2 * d.beta)) < 1e-10
    assert np.max(np.abs(evb.omega - d.dw @ ev.phi0)) < 1e-10


def test_differentials_evaluate_no_deformation_factor():
    # e^2u overflows at x1 = 1.5, but du, dv, dw need only u, v, w
    prov = build_flat_f0(1)
    ev = structure_eval(prov, [1.5, 1.5, 1.5], order=1)
    d = tr.differentials(uvw("300 * x1", 0, 0), ev, prov)
    assert d.u == 450.0
    assert np.array_equal(d.du, [300.0, 0.0, 0.0])


def test_f5_closed_form_for_deformed_f():
    for n in (1, 2):
        prov = build_hypersurface(n)
        triple = soliton_uvw(n)
        ts = tr.TransformedStructure(prov, triple)
        for p in sample_points(prov.dim, 3, seed=6):
            ev = structure_eval(prov, p, order=1)
            evb = structure_eval(ts, p, order=1)
            d = tr.differentials(triple, ev, prov)
            res = fbar_f5_closed_form(ev, evb, d, fk=prov.fk(p))
            assert res["fbar_vs_g_form"] < 1e-7
            assert res["fbar_vs_gbar_form"] < 1e-7


def test_deformed_lee_forms_vanish_on_phi_squared():
    # theta_bar = -theta_bar o phi^2 and likewise for theta*_bar
    n = 1
    prov = build_hypersurface(n)
    ts = tr.TransformedStructure(prov, soliton_uvw(n))
    for p in sample_points(3, 3, seed=11):
        evb = structure_eval(ts, p, order=1)
        phi2 = evb.phi0 @ evb.phi0
        assert np.max(np.abs(evb.theta + evb.theta @ phi2)) < 1e-9
        assert np.max(np.abs(evb.theta_star
                             + evb.theta_star @ phi2)) < 1e-9


def test_torse_forming_base_theta_star_relation():
    # with theta* = 2n (f/k) eta on the base:
    # theta*_bar / 2n = beta + (f/k) eta
    n = 2
    prov = build_hypersurface(n)
    triple = soliton_uvw(n)
    ts = tr.TransformedStructure(prov, triple)
    p = sample_points(5, 1, seed=13)[0]
    ev = structure_eval(prov, p, order=1)
    evb = structure_eval(ts, p, order=1)
    d = tr.differentials(triple, ev, prov)
    rhs = d.beta + prov.fk(p) * ev.eta0
    assert np.max(np.abs(evb.theta_star / (2 * n) - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# Soliton conditions
# ---------------------------------------------------------------------------

def test_condition_residuals_soliton_triple():
    n = 1
    prov = build_hypersurface(n)
    triple = soliton_uvw(n)
    for p in sample_points(3, 3, seed=17):
        ev = structure_eval(prov, p, order=1)
        d = tr.differentials(triple, ev, prov)
        c = tr.condition_residuals(d, ev.S, fk=prov.fk(p))
        assert list(c) == ["du_xi_plus_fk", "dv_xi", "dw_vertical"]
        assert max(c.values()) < 1e-12
        shape = shape_residuals(d, ev.phi0)
        assert shape["w_horizontal_constant"] < 1e-12
        # the radial pair is not CR
        assert max(shape["holo_1"], shape["holo_2"]) > 1e-8


def test_holomorphic_pair_detected_and_preserves_f0():
    n = 1
    prov = build_flat_f0(n)
    triple = holomorphic_pair_uvw(n)
    ts = tr.TransformedStructure(prov, triple)
    for p in sample_points(3, 3, seed=19):
        ev = structure_eval(prov, p, order=1)
        d = tr.differentials(triple, ev, prov)
        shape = shape_residuals(d, ev.phi0)
        assert max(shape["holo_1"], shape["holo_2"]) <= 1e-8
        evb = structure_eval(ts, p, order=1)
        rel, verdicts = class_residuals(evb)
        assert verdicts["is_F0"]
        assert rel["norm_F"] / max(rel["norm_F"], 1.0) < 1e-7


def soliton_passed(checks, tol=1e-6) -> bool:
    """The soliton verdict on the soliton identity, the tau constancy,
    the Killing residual and the F1 class of the deformed structure."""
    return (checks["soliton"] < tol and checks["tau_constancy"] < tol
            and checks["killing"] < tol and checks["is_F1"] == 0)


@pytest.mark.parametrize("n", [1, 2])
def test_yamabe_soliton_positive(n):
    prov = build_hypersurface(n)
    ts = tr.TransformedStructure(prov, soliton_uvw(n))
    points = sample_points(prov.dim, 4, seed=23)
    checks, values = tr.yamabe_check(ts, points, fk=prov.fk)
    assert soliton_passed(checks)
    assert checks["soliton"] < 1e-9
    assert checks["tau_constancy"] < 1e-9
    assert checks["killing"] < 1e-9
    assert checks["is_F1"] == 0
    assert checks["omega_bar"] < 1e-9
    assert checks["lee_theta"] < 1e-9
    assert checks["lee_theta_star"] < 1e-9
    assert values["tsdw_residual"] < 1e-8
    assert values["lxi00_residual"] < 1e-8
    assert values["lie_formula_mismatch"] < 1e-9
    assert "cond:du_xi" in checks
    assert checks["cond:du_xi"] < 1e-10 and checks["cond:dv_xi"] < 1e-10
    assert checks["cond:dw_vertical"] < 1e-10


def test_sigma_override_changes_residual():
    n = 1
    prov = build_hypersurface(n)
    ts = tr.TransformedStructure(prov, soliton_uvw(n))
    points = sample_points(3, 3, seed=29)
    _, values = tr.yamabe_check(ts, points, fk=prov.fk)
    off, off_values = tr.yamabe_check(ts, points,
                                      sigma=values["sigma"] + 1.0)
    assert off_values["sigma_given"]
    assert off["soliton"] > 1e-2


NEGATIVES = [
    # wrong vertical rate: du(xi) != -f/k
    dict(ell="-0.5 * arctan(sinh(t))"),
    # v picks up a vertical part: dv(xi) != 0
    dict(vshift="t"),
    # w picks up a horizontal part: dw not proportional to eta
    dict(h="t^2 + x1"),
]


@pytest.mark.parametrize("kind", range(3))
def test_yamabe_soliton_negative_controls(kind):
    n = 1
    prov = build_hypersurface(n)
    case = NEGATIVES[kind]
    triple = soliton_uvw(n, ell=case.get("ell", "-arctan(sinh(t))"),
                         h=case.get("h", "t^2"))
    if "vshift" in case:
        from accrgeo import expr as ex
        triple = tr.TransformTriple(triple.u,
                                    triple.v + ex.parse(case["vshift"]),
                                    triple.w)
    ts = tr.TransformedStructure(prov, triple)
    points = sample_points(3, 3, seed=31)
    checks, _ = tr.yamabe_check(ts, points, fk=prov.fk)
    assert not soliton_passed(checks)
    assert checks["soliton"] > 1e-3


def test_lxi00_gate_uses_the_residual_at_each_point():
    # a point where tau = sigma counts towards lxi00 exactly when the
    # soliton identity holds there, whatever the points before it
    prov = build_hypersurface(1)
    ts = tr.TransformedStructure(prov, soliton_uvw(1))
    points = sample_points(prov.dim, 4, seed=0)
    sigma = tr.yamabe_check(ts, points)[1]["sigma"]
    single = [tr.yamabe_check(ts, [p], sigma=sigma)
              for p in points]
    assert all(abs(v["tau_mean"] - sigma) <= 1e-12 for _, v in single)
    by_residual = sorted(range(len(points)),
                         key=lambda i: -single[i][0]["soliton"])
    # the worst point comes first and alone fails the tolerance
    tol = single[by_residual[1]][0]["soliton"]
    _, values = tr.yamabe_check(ts, points[by_residual], sigma=sigma,
                                tol=tol)
    expect = max(single[i][1]["lxi00_residual"] for i in by_residual[1:])
    assert expect > 0.0
    assert values["lxi00_residual"] == expect


# ---------------------------------------------------------------------------
# Cost pins and an independent oracle for tau_bar
# ---------------------------------------------------------------------------

def test_soliton_chunk_makes_seven_tensor_products(monkeypatch):
    # g^-1 at order 1 (one product), Gamma (one), the two tscale of xi_bar
    # and eta_bar at order 1, and eta (x) eta, g phi and g_bar (one
    # product each)
    orders, tmul = [], jets.tmul

    def counting(space, a, b, sub):
        orders.append(space.order)
        return tmul(space, a, b, sub)
    for mod in (jets, geometry, accr, tr, examples):
        for name, value in list(vars(mod).items()):
            if value is tmul:
                monkeypatch.setattr(mod, name, counting)
    prov = build_hypersurface(2)
    tstruct = tr.TransformedStructure(prov, soliton_uvw(2))
    tr.yamabe_check(tstruct, sample_points(prov.dim, 3, seed=5), fk=prov.fk)
    assert sorted(orders) == [1, 1, 1, 1, 2, 2, 2]


def test_soliton_chunk_sums_only_scalar_products_by_reduceat(monkeypatch):
    # tmul folds its cross pairs by gathers and adds; the scalar jmul of
    # the expression evaluator still sums its pairs by np.add.reduceat
    callers = []

    class Add:
        def __getattr__(self, name):
            return getattr(np.add, name)

        def reduceat(self, *args, **kwargs):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            callers.append(names)
            return np.add.reduceat(*args, **kwargs)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(jets, "np", Numpy())
    prov = build_hypersurface(2)
    tstruct = tr.TransformedStructure(prov, soliton_uvw(2))
    tr.yamabe_check(tstruct, sample_points(prov.dim, 3, seed=5), fk=prov.fk)
    assert any("jmul" in names for names in callers)
    assert not any("tmul" in names for names in callers)


@pytest.mark.parametrize("command", ["transform", "soliton"])
def test_no_report_reads_xibar_or_etabar_above_order_1(monkeypatch,
                                                        command):
    argvs = [[command, "--example", model, "--n", str(n), "--preset", preset,
              "--samples", "4", "--seed", "7", "--json"]
             for preset in PRESETS for model in REGISTRY for n in (1, 2)]
    kept = [run(argv)[:2] for argv in argvs]
    deform, orders = tr.deform, set()

    def full_order_deform(S, a, b, c, e_minus_w, e_w):
        # deform with xi_bar and eta_bar at the order of S
        out = deform(S, a, b, c, e_minus_w, e_w)
        out.xi = jets.tscale(S.space, e_minus_w, S.xi)
        out.eta = jets.tscale(S.space, e_w, S.eta)
        orders.add(S.space.order)
        return out
    monkeypatch.setattr(tr, "deform", full_order_deform)
    assert [run(argv)[:2] for argv in argvs] == kept
    assert orders == {1 if command == "transform" else 2}


@pytest.mark.parametrize("model", sorted(REGISTRY))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_conformal_tau_bar_matches_the_conformal_change_formula(model, n):
    # v = 0, w = u: g_bar = e^2u g, and in dimension m
    # tau_bar = e^-2u (tau - 2(m-1) Lap u - (m-2)(m-1) |du|^2_g),
    # Lap u = g^ij (d_i d_j u - Gamma^k_ij d_k u), from u's own jets and
    # the base structure's values
    prov = get_example(model, n=n, seed=2)
    m, pts = prov.dim, sample_points(prov.dim, 4, seed=17)
    text = "0.3 * x1 * t + 0.1 * x2^2 + 0.05 * sin(x1)"
    _, ev_bar, _ = tr.TransformedStructure(prov, uvw(text, 0.0, text)
                                           ).evaluate(pts, 2)
    ev = structure_eval(prov, pts, 2)
    space = jet_space(m, 2)
    u = ex.eval_jet(space, ex.parse(text),
                    coordinate_bindings(prov.coords, pts, 2))
    for p in range(len(pts)):
        du = np.array([partial(space, u[:, p], i) for i in range(m)])
        hess = np.array([[partial(space, u[:, p], i, j) for j in range(m)]
                         for i in range(m)])
        gi, gamma = ev.ginv0[p], ev.frame.gamma[0, p]
        lap = np.sum(gi * (hess - np.einsum("kij,k->ij", gamma, du)))
        want = np.exp(-2.0 * u[0, p]) * (
            ev.frame.tau[p] - 2 * (m - 1) * lap
            - (m - 2) * (m - 1) * du @ gi @ du)
        got = ev_bar.frame.tau[p]
        assert abs(got - want) <= 1e-12 * max(1.0, abs(got))
