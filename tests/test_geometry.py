"""Curvature machinery against finite-difference and closed-form oracles."""

import numpy as np
import pytest

from accrgeo import expr as ex
from accrgeo import geometry as geo
from accrgeo.examples import REGISTRY, get_example, sample_points
from accrgeo.jets import jet_space, tminv, ttrunc, tvalue
from oracles import (curvature, einsum_op, metric_frame, metric_jets,
                     scalar_curvature)

RNG = np.random.default_rng(7)


# a chart is a pair (coordinate names, metric components)

def sphere_chart(radius=1.0):
    r2 = radius * radius
    return (["th", "ph"], [[r2, 0.0], [0.0, "%r * sin(th)^2" % r2]])


def polar_chart():
    return (["r", "ph"], [[1.0, 0.0], [0.0, "r^2"]])


def random_chart(dim, seed):
    """Metric I + small quadratic-in-coordinates perturbation."""
    rng = np.random.default_rng(seed)
    names = ["x%d" % i for i in range(dim)]
    g = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            terms = []
            for k in range(dim):
                c = rng.uniform(-0.1, 0.1)
                terms.append("%.6f * %s^2" % (c, names[k]))
            body = " + ".join(terms)
            if i == j:
                body = "1 + " + body
            g[i][j] = g[j][i] = body
    return names, g


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def test_constant_metric_has_zero_christoffels():
    chart = (["x", "y", "z"], np.diag([1.0, -1.0, 1.0]).tolist())
    ev = metric_frame(*chart, [0.3, 0.7, -0.2], order=2)
    assert np.max(np.abs(ev.gamma)) == 0.0
    assert ev.tau == pytest.approx(0.0, abs=1e-14)


def test_sphere_christoffel_closed_form():
    # Gamma^th_phph = -sin th cos th at th = 1
    ev = metric_frame(*sphere_chart(), [1.0, 0.5], order=2)
    gam = tvalue(ev.gamma)
    assert gam[0, 1, 1] == pytest.approx(-np.sin(1.0) * np.cos(1.0),
                                         abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(np.cos(1.0) / np.sin(1.0),
                                         abs=1e-12)


def test_polar_plane_christoffels():
    ev = metric_frame(*polar_chart(), [1.7, 0.3], order=2)
    gam = tvalue(ev.gamma)
    assert gam[0, 1, 1] == pytest.approx(-1.7, abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(1.0 / 1.7, abs=1e-12)
    assert ev.tau == pytest.approx(0.0, abs=1e-12)


def test_christoffels_match_koszul_finite_differences():
    chart = random_chart(3, seed=11)
    p = np.array([0.4, -0.2, 0.6])
    ev = metric_frame(*chart, p, order=1)
    gam = tvalue(ev.gamma)
    d = 3
    h = 1e-6

    def g_at(q):
        space, g = metric_jets(*chart, q, order=0)
        return tvalue(g)

    dg = np.zeros((d, d, d))
    for l in range(d):
        qp, qm = p.copy(), p.copy()
        qp[l] += h
        qm[l] -= h
        dg[:, :, l] = (g_at(qp) - g_at(qm)) / (2 * h)
    ginv = np.linalg.inv(g_at(p))
    expect = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                expect[k, i, j] = 0.5 * np.sum(
                    ginv[k] * (dg[j, :, i] + dg[i, :, j] - dg[i, j, :]))
    assert np.max(np.abs(gam - expect)) < 1e-8


def test_christoffels_symmetric_lower_indices():
    ev = metric_frame(*random_chart(4, seed=3), [0.1, 0.5, -0.3, 0.2],
                      order=1)
    gam = tvalue(ev.gamma)
    assert np.max(np.abs(gam - np.einsum("kij->kji", gam))) < 1e-13


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

def test_unit_sphere_scalar_curvature():
    for th in (0.6, 1.0, 1.8):
        tau = scalar_curvature(*sphere_chart(), [th, 0.2])
        assert tau == pytest.approx(2.0, abs=1e-10)


def test_sphere_radius_scaling():
    # closed form tau = 2 / r^2
    for r in (0.5, 1.0, 3.0):
        tau = scalar_curvature(*sphere_chart(r), [1.1, 0.0])
        assert tau == pytest.approx(2.0 / r ** 2, abs=1e-9)


def test_riemann_antisymmetry_and_first_bianchi():
    chart = random_chart(3, seed=21)
    g0, riem, _ = curvature(*chart, [0.3, 0.1, -0.4])   # riem: R^l_ijk
    low = np.einsum("lm,lijk->mijk", g0, riem)   # R_mijk
    assert np.max(np.abs(low + np.einsum("mikj->mijk", low))) < 1e-10
    assert np.max(np.abs(low + np.einsum("imjk->mijk", low))) < 1e-10
    bianchi = (riem + np.einsum("ljki->lijk", riem)
               + np.einsum("lkij->lijk", riem))
    assert np.max(np.abs(bianchi)) < 1e-10


def test_ricci_symmetric():
    _, _, ric = curvature(*random_chart(3, seed=5), [0.2, 0.4, 0.1])
    assert np.max(np.abs(ric - ric.T)) < 1e-10


def test_scalar_curvature_finite_difference_oracle():
    # independent second-order FD of the metric through the textbook
    # formulas, no jets involved
    chart = random_chart(3, seed=33)
    p = np.array([0.25, -0.15, 0.35])
    d = 3
    h = 1e-4

    def g_at(q):
        _, g = metric_jets(*chart, q, order=0)
        return tvalue(g)

    def gamma_at(q):
        dg = np.zeros((d, d, d))
        for l in range(d):
            qp, qm = q.copy(), q.copy()
            qp[l] += h
            qm[l] -= h
            dg[:, :, l] = (g_at(qp) - g_at(qm)) / (2 * h)
        ginv = np.linalg.inv(g_at(q))
        return 0.5 * (np.einsum("kl,jli->kij", ginv, dg)
                      + np.einsum("kl,ilj->kij", ginv, dg)
                      - np.einsum("kl,ijl->kij", ginv, dg))

    gam = gamma_at(p)
    dgam = np.zeros((d, d, d, d))
    for m in range(d):
        qp, qm = p.copy(), p.copy()
        qp[m] += h
        qm[m] -= h
        dgam[:, :, :, m] = (gamma_at(qp) - gamma_at(qm)) / (2 * h)
    riem = (np.einsum("likj->lijk", dgam)
            - np.einsum("lijk->lijk", dgam)
            + np.einsum("ljm,mik->lijk", gam, gam)
            - np.einsum("lkm,mij->lijk", gam, gam))
    ric = np.einsum("lilk->ik", riem)
    tau_fd = np.einsum("ik,ik", np.linalg.inv(g_at(p)), ric)
    tau = scalar_curvature(*chart, p)
    assert tau == pytest.approx(tau_fd, rel=1e-5, abs=1e-5)


# ---------------------------------------------------------------------------
# Covariant derivatives
# ---------------------------------------------------------------------------

def test_metricity():
    chart = random_chart(3, seed=9)
    space, g = metric_jets(*chart, [0.3, -0.1, 0.2], order=2)
    gamma = geo.FrameEval.from_metric(space, g).gamma
    nabla_g = geo.cov_deriv_metric(space, gamma, g)
    assert np.max(np.abs(nabla_g)) < 1e-9


def test_cov_deriv_vector_vs_finite_differences():
    chart = random_chart(3, seed=13)
    p = np.array([0.2, 0.5, -0.3])
    coords = chart[0]
    vexprs = ex.expr_table(["sin(x0) * x1", "x2^2", "x0 + x1 * x2"], (3,))
    space = jet_space(3, 2)
    v = geo.eval_expr_table(
        space, vexprs, geo.coordinate_bindings(coords, p, 2))
    ev = metric_frame(*chart, p, order=2)
    nv0 = geo.cov_deriv_vector(space, ev.gamma, v)   # nabla_i v^k
    h = 1e-6
    gam = tvalue(ev.gamma)
    space0 = jet_space(3, 0)
    for i in range(3):
        qp, qm = p.copy(), p.copy()
        qp[i] += h
        qm[i] -= h
        vp = tvalue(geo.eval_expr_table(
            space0, vexprs, geo.coordinate_bindings(coords, qp, 0)))
        vm = tvalue(geo.eval_expr_table(
            space0, vexprs, geo.coordinate_bindings(coords, qm, 0)))
        dv = (vp - vm) / (2 * h)
        expect = dv + gam[:, i, :] @ tvalue(geo.eval_expr_table(
            space0, vexprs, geo.coordinate_bindings(coords, p, 0)))
        assert np.max(np.abs(nv0[i] - expect)) < 1e-8


def test_cov_deriv_covector_contraction_leibniz():
    # nabla_i (a_j v^j) must equal (nabla_i a_j) v^j + a_j nabla_i v^j
    chart = random_chart(3, seed=17)
    p = np.array([0.1, 0.3, 0.5])
    coords = chart[0]
    space = jet_space(3, 2)
    a = geo.eval_expr_table(
        space, ex.expr_table(["x1^2", "cos(x0)", "x0 * x2"], (3,)),
        geo.coordinate_bindings(coords, p, 2))
    v = geo.eval_expr_table(
        space, ex.expr_table(["x2", "exp(x0)", "x1"], (3,)),
        geo.coordinate_bindings(coords, p, 2))
    ev = metric_frame(*chart, p, order=2)
    na = geo.cov_deriv_covector(space, ev.gamma, a)
    nv = geo.cov_deriv_vector(space, ev.gamma, v)
    lhs = np.einsum("ij,j->i", na, tvalue(v))
    rhs = np.einsum("ik,k->i", nv, tvalue(a))
    # plain derivative of the scalar a_j v^j
    from accrgeo.jets import tmul
    s = tmul(space, a, v, einsum_op("j,j->"))
    ds = np.array(
        [s[space.index_of[tuple(1 if k == i else 0 for k in range(3))]]
         for i in range(3)])
    assert np.max(np.abs(lhs + rhs - ds)) < 1e-12


def test_cov_deriv_tensor11_on_identity_is_zero():
    chart = random_chart(3, seed=29)
    p = np.array([0.4, 0.2, -0.1])
    ev = metric_frame(*chart, p, order=2)
    space = jet_space(3, 2)
    from accrgeo.jets import tconst
    ident = tconst(space, np.eye(3))
    nphi = geo.cov_deriv_tensor11(space, ev.gamma, ident)
    assert np.max(np.abs(nphi)) < 1e-13


# ---------------------------------------------------------------------------
# Lie derivative of the metric
# ---------------------------------------------------------------------------

def test_lie_metric_coord_matches_covariant_form():
    chart = random_chart(3, seed=41)
    p = np.array([0.3, 0.2, 0.6])
    coords = chart[0]
    space = jet_space(3, 2)
    v = geo.eval_expr_table(
        space, ex.expr_table(["x1 * x2", "sin(x0)", "x0^2 - x2"], (3,)),
        geo.coordinate_bindings(coords, p, 2))
    _, g = metric_jets(*chart, p, order=2)
    lie_c = geo.lie_metric_coord(space, g, v)
    nv = geo.cov_deriv_vector(space, geo.FrameEval.from_metric(space, g).gamma,
                              v)
    lie_k = geo.lie_metric_cov(tvalue(g), nv)
    assert np.max(np.abs(lie_c - lie_k)) < 1e-10


def test_killing_field_of_round_sphere():
    # d/dph is Killing for the round metric
    chart = sphere_chart()
    space = jet_space(2, 2)
    v = geo.eval_expr_table(
        space, ex.expr_table([0.0, 1.0], (2,)),
        geo.coordinate_bindings(chart[0], [0.9, 0.4], 2))
    _, g = metric_jets(*chart, [0.9, 0.4], 2)
    lie = geo.lie_metric_coord(space, g, v)
    assert lie.shape == (2, 2)
    assert np.max(np.abs(lie)) < 1e-13


# ---------------------------------------------------------------------------
# Signature and error handling
# ---------------------------------------------------------------------------

def test_signature():
    assert geo.signature(np.diag([1.0, 1.0, -1.0])) == (2, 1)
    assert geo.signature(np.diag([2.0, -0.5, -3.0, 1.0])) == (2, 2)


def test_singular_metric_rejected():
    chart = (["x", "y"], [["x", 0.0], [0.0, 1.0]])
    with pytest.raises(geo.SingularMetricError):
        metric_frame(*chart, [0.0, 1.0], order=1)


@pytest.mark.parametrize("model", sorted(REGISTRY))
@pytest.mark.parametrize("order", [1, 2])
def test_inverse_metric_is_the_truncated_full_inverse_bit_for_bit(model,
                                                                   order):
    prov = get_example(model, n=2, seed=3)
    S = prov.structure_at(sample_points(prov.dim, 3, seed=11), order)
    ev = geo.FrameEval.from_metric(S.space, S.g)
    full = tminv(S.space, S.g)
    ginv = ttrunc(S.space, full, order - 1)
    assert ev.ginv.shape == ginv.shape and np.array_equal(ev.ginv, ginv)
    gamma = geo.christoffels(S.space, S.g, ginv)
    assert np.array_equal(ev.gamma, gamma)
    if order == 2:
        ric = geo.ricci_from_riemann(geo.riemann(S.space.child, gamma))
        # the trace g^ik R_ik as from_metric sums it, on the full inverse
        tau = (full[0].reshape(3, 1, -1) @ ric.reshape(3, -1, 1))[:, 0, 0]
        assert np.array_equal(ev.tau, tau)
