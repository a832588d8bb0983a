"""End-to-end acceptance checks at their stated tolerances.

Each test here pins one externally-visible guarantee of the package:
structure axioms, class and Lee-form reproduction, torse-forming
certification, the soliton construction with its negative controls,
the transformation laws on random inputs, the numeric kernel against
finite differences, the holomorphic-pair corollary, and byte-level
determinism of the reporting pipeline.
"""

import json
import time

import numpy as np
import pytest

from accrgeo import expr as ex
from accrgeo.accr import (check_axioms, class_residuals, structure_eval,
                         worst_of)
from accrgeo.cli import main
from accrgeo.examples import (build_flat_f0, build_hypersurface,
                              holomorphic_pair_uvw, random_structure,
                              sample_points, soliton_uvw)
from accrgeo.geometry import coordinate_bindings
from accrgeo.jets import jet_space
from accrgeo.transform import (TransformTriple, TransformedStructure,
                               alpha_beta_residuals, differentials,
                               lee_transformation_residuals,
                               metric_roundtrip_residual, yamabe_check)
from oracles import (eval_float, partial, scalar_curvature, torse_analysis,
                     uvw)


# ---------------------------------------------------------------------------
# 1. Axiom suite
# ---------------------------------------------------------------------------

def test_acceptance_1_axioms():
    start = time.perf_counter()
    for n in (1, 2):
        prov = build_hypersurface(n)
        for p in sample_points(prov.dim, 32, seed=0):
            ev = structure_eval(prov, p, order=1)
            res = check_axioms(ev)
            assert max(res.values()) < 1e-9, (n, p, res)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. Class reproduction
# ---------------------------------------------------------------------------

def test_acceptance_2_class_reproduction():
    for n in (1, 2):
        prov = build_hypersurface(n)
        for p in sample_points(prov.dim, 16, seed=0):
            ev = structure_eval(prov, p, order=1)
            rel, _ = class_residuals(ev)
            assert rel["res_F5"] < 1e-6
            assert np.max(np.abs(ev.theta)) < 1e-6
            assert np.max(np.abs(ev.omega)) < 1e-6
            ts_xi = float(ev.theta_star @ ev.xi0)
            assert abs(ts_xi * np.cosh(p[-1]) - 2 * n) < 1e-6


# ---------------------------------------------------------------------------
# 3. Torse-forming reproduction
# ---------------------------------------------------------------------------

def test_acceptance_3_torse_forming():
    for n in (1, 2):
        prov = build_hypersurface(n)
        d = prov.dim
        reeb = ex.expr_table(["0"] * (d - 1) + ["1"], (d,))
        for p in sample_points(d, 8, seed=0):
            res, rep = torse_analysis(prov, reeb, p)
            assert res["torse_fit"] <= 1e-7
            assert "nabla_xi" in res
            t = p[-1]
            assert abs(rep["f"] * np.cosh(t) - 1.0) < 1e-6
            ev = structure_eval(prov, p, order=0)
            assert np.max(np.abs(np.asarray(rep["gamma"])
                                 + ev.eta0 / np.cosh(t))) < 1e-6


# ---------------------------------------------------------------------------
# 4. Soliton construction (forward direction)
# ---------------------------------------------------------------------------

def test_acceptance_4_soliton_forward():
    start = time.perf_counter()
    n = 2
    prov = build_hypersurface(n)
    triple = soliton_uvw(n, ell="-arctan(sinh(t))", h="t^2")
    ts = TransformedStructure(prov, triple)
    points = sample_points(prov.dim, 16, seed=0)
    r = yamabe_check(ts, points)
    identity = worst_of(r["identity"])
    assert identity["soliton"] < 1e-6
    assert identity["tau_constancy"] < 1e-6
    assert identity["killing"] < 1e-6
    assert r["is_F1"].all()
    assert worst_of(r["lee"])["omega_bar"] < 1e-6
    # Lee forms in their reduced shape: theta_bar = 4n du o phi,
    # theta*_bar = -4n dv o phi
    for p in points:
        ev = structure_eval(prov, p, order=1)
        evb = structure_eval(ts, p, order=1)
        d = differentials(triple, ev, prov)
        assert np.max(np.abs(evb.theta
                             - 4 * n * (d.du @ ev.phi0))) < 1e-6
        assert np.max(np.abs(evb.theta_star
                             + 4 * n * (d.dv @ ev.phi0))) < 1e-6
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 5. Negative controls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mutation", ["du", "dv", "dw"])
def test_acceptance_5_negative_controls(mutation):
    n = 1
    prov = build_hypersurface(n)
    if mutation == "du":
        triple = soliton_uvw(n, ell="-0.5 * arctan(sinh(t))")
    elif mutation == "dv":
        base = soliton_uvw(n)
        triple = TransformTriple(base.u, base.v + ex.Var("t"), base.w)
    else:
        triple = soliton_uvw(n, h="t^2 + x1")
    ts = TransformedStructure(prov, triple)
    points = sample_points(prov.dim, 8, seed=0)
    r = yamabe_check(ts, points)
    identity = worst_of(r["identity"])
    assert identity["soliton"] > 1e-3
    # the verdict on the soliton, the tau constancy, the Killing
    # residual (at 1e-6) and the F1 class
    assert not (identity["soliton"] < 1e-6
                and identity["tau_constancy"] < 1e-6
                and identity["killing"] < 1e-6 and r["is_F1"].all())


# ---------------------------------------------------------------------------
# 6. Transformation laws on random inputs
# ---------------------------------------------------------------------------

def _random_poly(rng, coords):
    parts = []
    for _ in range(3):
        c = rng.uniform(-0.3, 0.3)
        a, b = rng.choice(coords, size=2)
        parts.append("%.6f * %s * %s" % (c, a, b))
    parts.append("%.6f * %s" % (rng.uniform(-0.3, 0.3), rng.choice(coords)))
    return " + ".join(parts)


def test_acceptance_6_transformation_laws():
    rng = np.random.default_rng(2024)
    for seed in range(50):
        n = 1 + seed % 2
        prov = random_structure(n, seed=seed)
        triple = uvw(_random_poly(rng, prov.coords),
                     _random_poly(rng, prov.coords),
                     _random_poly(rng, prov.coords))
        ts = TransformedStructure(prov, triple)
        p = sample_points(prov.dim, 1, seed=seed)[0]
        ev = structure_eval(prov, p, order=1)
        evb = structure_eval(ts, p, order=1)
        d = differentials(triple, ev, prov)
        lee = lee_transformation_residuals(ev, evb, d)
        assert max(lee.values()) < 1e-7, (seed, lee)
        ab = alpha_beta_residuals(d, ev, evb)
        assert max(ab.values()) < 1e-7, (seed, ab)
        assert metric_roundtrip_residual(ev, evb, d) < 1e-7


# ---------------------------------------------------------------------------
# 7. Numerics oracle
# ---------------------------------------------------------------------------

_FUNCS = ["sin", "cos", "tanh", "arctan", "exp"]


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ex.Const(float(rng.uniform(0.2, 2.0)))
        return ex.Var(rng.choice(["x", "y", "z"]))
    kind = rng.integers(0, 5)
    if kind == 0:
        return ex.Bin("+", _random_expr(rng, depth - 1),
                      _random_expr(rng, depth - 1))
    if kind == 1:
        return ex.Bin("-", _random_expr(rng, depth - 1),
                      _random_expr(rng, depth - 1))
    if kind == 2:
        return ex.Bin("*", _random_expr(rng, depth - 1),
                      _random_expr(rng, depth - 1))
    if kind == 3:
        return ex.Neg(_random_expr(rng, depth - 1))
    return ex.Func(rng.choice(_FUNCS), _random_expr(rng, depth - 1))


def test_acceptance_7_jets_vs_finite_differences():
    rng = np.random.default_rng(77)
    space = jet_space(3, 2)
    checked = 0
    while checked < 1000:
        e = _random_expr(rng, depth=3)
        vals = dict(zip("xyz", rng.uniform(0.3, 1.2, 3)))
        try:
            f0 = eval_float(e, vals)
        except ex.EvalError:
            continue
        if not np.isfinite(f0) or abs(f0) > 1e6:
            continue
        bindings = coordinate_bindings(list("xyz"),
                                       [vals[name] for name in "xyz"], 2)
        jet = ex.eval_jet(space, e, bindings)

        def at(dx, dy, dz):
            return eval_float(e, {"x": vals["x"] + dx,
                                  "y": vals["y"] + dy,
                                  "z": vals["z"] + dz})

        h1, h2 = 1e-6, 1e-4
        for i, name in enumerate("xyz"):
            step = [0.0, 0.0, 0.0]
            step[i] = h1
            d1 = (at(*step) - at(*[-s for s in step])) / (2 * h1)
            err = abs(partial(space, jet, i) - d1) / max(1.0, abs(d1))
            assert err < 1e-5, (ex.serialize(e), name,
                                partial(space, jet, i), d1)
            step[i] = h2
            d2 = (at(*step) - 2 * f0 + at(*[-s for s in step])) / h2 ** 2
            err = abs(partial(space, jet, i, i) - d2) / max(1.0, abs(d2))
            assert err < 1e-5, (ex.serialize(e), name,
                                partial(space, jet, i, i), d2)
        checked += 1


def test_acceptance_7_unit_sphere_curvature():
    tau = scalar_curvature(["th", "ph"], [[1.0, 0.0], [0.0, "sin(th)^2"]],
                           [1.0, 0.3])
    assert tau == pytest.approx(2.0, abs=1e-8)


# ---------------------------------------------------------------------------
# 8. Holomorphic-pair corollary
# ---------------------------------------------------------------------------

def test_acceptance_8_holomorphic_pair_gives_f0():
    n = 1
    prov = build_flat_f0(n)
    ts = TransformedStructure(prov, holomorphic_pair_uvw(n))
    for p in sample_points(prov.dim, 8, seed=0):
        evb = structure_eval(ts, p, order=1)
        assert np.max(np.abs(evb.theta)) < 1e-7
        assert np.max(np.abs(evb.theta_star)) < 1e-7
        assert np.max(np.abs(evb.omega)) < 1e-7
        rel, verdicts = class_residuals(evb)
        assert verdicts["is_F0"]
        assert rel["norm_F"] / max(rel["norm_F"], 1.0) < 1e-7


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_acceptance_9_byte_identical_reports(capsys):
    argv = ["soliton", "--example", "hypersurface-f5", "--n", "2",
            "--samples", "16", "--seed", "0", "--preset", "soliton",
            "--json"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.encode() == out2.encode()
    rep = json.loads(out1)
    assert rep["passed"]
