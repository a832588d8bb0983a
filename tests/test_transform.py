"""Contact conformal deformations: metric laws, Lee transformation laws,
soliton verification and its negative controls."""

import sys

import numpy as np
import pytest

from accrgeo import accr, examples, geometry, jets
from accrgeo import expr as ex
from accrgeo import transform as tr
from accrgeo.accr import (check_axioms, class_residuals, structure_eval,
                         worst_of)
from accrgeo.cli import PRESETS
from accrgeo.examples import (REGISTRY, build_flat_f0, build_hypersurface,
                              get_example, holomorphic_pair_uvw,
                              random_structure, sample_points, soliton_uvw)
from accrgeo.geometry import coordinate_bindings
from accrgeo.jets import jet_space, ttrunc
from oracles import (fbar_f5_closed_form, partial, shape_residuals,
                     torse_analysis, uvw)
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


# the transformations form a group: (u, v, w) act additively, so t1 then
# t2 is t1 + t2 and -t1 undoes t1; "sub" is in the subgroup v = 0, w = u
T1 = ("0.3 * x1 * t + 0.1 * x2 ^ 2", "0.2 * sin(x1) + 0.1 * t",
      "0.4 * t ^ 2 - 0.1 * x1")
GROUP = {"t1": uvw(*T1),
         "t2": uvw("0.2 * t - 0.1 * x1 ^ 2", "0.1 * cos(t) - 0.2 * x2",
                   "0.1 * x1 * t"),
         "sub": uvw(T1[0], 0, T1[0])}
GROUP_MODELS = [(model, n) for model in ("hypersurface-f5", "random",
                                         "flat-f0", "embedded-sphere")
                for n in (1, 2)]


def group_case(model, n):
    """The model at seed 1 and 8 of its points at seed 1."""
    base = get_example(model, n, seed=1)
    return base, sample_points(2 * n + 1, 8, seed=1)


def assert_same_evaluation(ev, ref):
    """ev and ref agree in g, F, theta, theta*, omega, xi and eta within
    1e-12 relative to max(1, max|ref|) of each, and in every class
    verdict; g, xi and eta as order-1 jets."""
    got, want = ({"g": e.S.g, "xi": e.S.xi, "eta": e.S.eta, "F": e.F,
                  "theta": e.theta, "theta_star": e.theta_star,
                  "omega": e.omega} for e in (ev, ref))
    for key, x in want.items():
        assert got[key].shape == x.shape, key
        assert np.max(np.abs(got[key] - x)) <= 1e-12 * max(
            1.0, np.max(np.abs(x))), key
    got, want = (class_residuals(e)[1] for e in (ev, ref))
    assert got.keys() == want.keys()
    for key, verdict in want.items():
        assert np.array_equal(got[key], verdict), key


@pytest.mark.parametrize("model, n", GROUP_MODELS)
@pytest.mark.parametrize("first, second", [("t1", "t2"), ("t2", "t1"),
                                           ("t1", "sub"), ("sub", "t2")])
def test_transforms_compose_additively(model, n, first, second):
    # order 1: above it a deformed structure keeps xi_bar and eta_bar at
    # order 1, too low for the g_bar of another deformation; the inner
    # provider's structure_at is the reference of deforming a deformation
    base, pts = group_case(model, n)
    t1, t2 = GROUP[first], GROUP[second]
    step = tr.TransformedStructure(tr.TransformedStructure(base, t1), t2)
    both = tr.TransformedStructure(base, tr.TransformTriple(
        t1.u + t2.u, t1.v + t2.v, t1.w + t2.w))
    assert_same_evaluation(step.evaluate(pts, 1)[1],
                           both.evaluate(pts, 1)[1])


@pytest.mark.parametrize("model, n", GROUP_MODELS)
@pytest.mark.parametrize("name", list(GROUP))
def test_the_opposite_transform_restores_the_base(model, n, name):
    base, pts = group_case(model, n)
    t = GROUP[name]
    back = tr.TransformedStructure(tr.TransformedStructure(base, t),
                                   tr.TransformTriple(-t.u, -t.v, -t.w))
    assert_same_evaluation(back.evaluate(pts, 1)[1],
                           structure_eval(base, pts, 1))


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
        assert list(c) == ["du_xi", "dv_xi", "dw_vertical"]
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


def soliton_passed(r, tol=1e-6) -> bool:
    """The soliton verdict on the soliton identity, the tau constancy,
    the Killing residual and the F1 class of the deformed structure, from
    what :func:`yamabe_check` returns."""
    identity = worst_of(r["identity"])
    return (identity["soliton"] < tol and identity["tau_constancy"] < tol
            and identity["killing"] < tol and bool(r["is_F1"].all()))


@pytest.mark.parametrize("n", [1, 2])
def test_yamabe_soliton_positive(n):
    prov = build_hypersurface(n)
    ts = tr.TransformedStructure(prov, soliton_uvw(n))
    points = sample_points(prov.dim, 4, seed=23)
    r = tr.yamabe_check(ts, points)
    assert soliton_passed(r)
    checks = {**worst_of(r["identity"]), **worst_of(r["lee"])}
    assert checks["soliton"] < 1e-9
    assert checks["tau_constancy"] < 1e-9
    assert checks["killing"] < 1e-9
    assert r["is_F1"].all()
    assert checks["omega_bar"] < 1e-9
    assert checks["lee_theta"] < 1e-9
    assert checks["lee_theta_star"] < 1e-9
    values = worst_of(r["values"])
    assert values["tsdw_residual"] < 1e-8
    assert values["lie_formula_mismatch"] < 1e-9
    conditions = worst_of(r["conditions"])
    assert conditions["du_xi"] < 1e-10 and conditions["dv_xi"] < 1e-10
    assert conditions["dw_vertical"] < 1e-10


def test_sigma_override_changes_residual():
    n = 1
    prov = build_hypersurface(n)
    ts = tr.TransformedStructure(prov, soliton_uvw(n))
    points = sample_points(3, 3, seed=29)
    sigma = tr.yamabe_check(ts, points)["tau"]["sigma"]
    off = tr.yamabe_check(ts, points, sigma=sigma + 1.0)
    assert off["tau"]["sigma"] == sigma + 1.0
    assert worst_of(off["identity"])["soliton"] > 1e-2


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
    r = tr.yamabe_check(ts, points)
    assert not soliton_passed(r)
    assert worst_of(r["identity"])["soliton"] > 1e-3


@pytest.mark.parametrize("n", [1, 2])
def test_xi_bar_of_the_soliton_is_vertical_torse_forming(n):
    # nabla xi_bar is rounding noise here (xi_bar is Killing with f = 0):
    # relative to max|nabla xi_bar| alone, torse_fit read 1.0
    prov = build_hypersurface(n)
    triple = soliton_uvw(n)
    tstruct = tr.TransformedStructure(prov, triple)
    points = sample_points(prov.dim, 8, seed=1)
    xibar = ex.expr_table(["0"] * (2 * n) + [ex.func("exp", -triple.w)],
                          (2 * n + 1,))
    res, rep = torse_analysis(tstruct, xibar, points)
    assert max(res["torse_fit"]) < 1e-15
    assert max(res["verticality"]) < 1e-15
    assert max(res["nabla_xi"]) < 1e-14
    # the soliton's own route: xi_bar's jets of the order-2 evaluation the
    # soliton check makes
    _, ev_bar, _ = tstruct.evaluate(points, 2)
    own, vertical, own_rep = accr.torse_forming_analyze(ev_bar, ev_bar.S.xi)
    assert vertical.all() and "nabla_xi" in res
    for r in (res, own):
        assert max(accr.worst_of(r).values()) < accr.TOL_DERIVED
    for key in ("f", "k"):
        assert np.abs(own_rep[key] - rep[key]).max() <= 1e-12


# ---------------------------------------------------------------------------
# Cost pins and an independent oracle for tau_bar
# ---------------------------------------------------------------------------

def test_soliton_chunk_makes_seven_tensor_products(monkeypatch):
    # g^-1 at order 1 (one product), Gamma (one), the two tscale of xi_bar
    # and eta_bar at order 1, and eta (x) eta, g phi and g_bar (one
    # product each)
    orders, tmul = [], jets.tmul

    def counting(space, a, b, op):
        orders.append(space.order)
        return tmul(space, a, b, op)
    for mod in (jets, geometry, accr, tr, examples):
        for name, value in list(vars(mod).items()):
            if value is tmul:
                monkeypatch.setattr(mod, name, counting)
    prov = build_hypersurface(2)
    tstruct = tr.TransformedStructure(prov, soliton_uvw(2))
    tr.yamabe_check(tstruct, sample_points(prov.dim, 3, seed=5))
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
    tr.yamabe_check(tstruct, sample_points(prov.dim, 3, seed=5))
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
