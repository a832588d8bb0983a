"""Built-in example structures, sampling, and the embedded-sphere model."""

import numpy as np
import pytest

from accrgeo import expr as ex
from accrgeo import jets
from accrgeo.accr import (ChartStructure, check_axioms, class_residuals,
                          structure_eval)
from accrgeo.examples import (DEFAULT_BOX, EmbeddedSphere, build_flat_f0,
                              build_hypersurface, coord_names, get_example,
                              random_structure, sample_points, sech_t)
from oracles import embedding_invariants, torse_analysis


def test_coord_names():
    assert coord_names(1) == ["x1", "x2", "t"]
    assert coord_names(2) == ["x1", "x2", "x3", "x4", "t"]


def test_registry_lookup():
    flat = get_example("flat-f0", n=1)
    assert isinstance(flat, ChartStructure) and flat.n == 1
    assert np.all(flat.fk(np.ones((2, 3))) == 0.0)
    assert get_example("hypersurface-f5", n=2).fk is sech_t
    assert np.array_equal(get_example("random", n=1, seed=3).frame_expr,
                          random_structure(n=1, seed=3).frame_expr)
    sphere = get_example("embedded-sphere", n=2)
    assert isinstance(sphere, EmbeddedSphere) and sphere.n == 2
    with pytest.raises(KeyError):
        get_example("no-such-model")


def test_sample_points_deterministic_and_boxed():
    a = sample_points(3, 10, seed=5)
    b = sample_points(3, 10, seed=5)
    assert np.array_equal(a, b)
    assert a.shape == (10, 3)
    assert np.all(a >= DEFAULT_BOX[0]) and np.all(a <= DEFAULT_BOX[1])
    c = sample_points(2, 4, seed=5, box=(2.0, 3.0))
    assert np.all(c >= 2.0) and np.all(c <= 3.0)


@pytest.mark.parametrize("n", [1, 2])
def test_random_structures_axioms_over_seeds(n):
    for seed in range(6):
        prov = random_structure(n, seed=seed)
        for p in sample_points(prov.dim, 2, seed=seed):
            res = check_axioms(structure_eval(prov, p, order=1))
            assert max(res.values()) < 1e-9


# ---------------------------------------------------------------------------
# Warped hypersurface chart
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_hypersurface_class_and_lee_values(n):
    prov = build_hypersurface(n)
    for p in sample_points(prov.dim, 3, seed=9):
        ev = structure_eval(prov, p, order=1)
        assert max(check_axioms(ev).values()) < 1e-9
        _, verdicts = class_residuals(ev)
        assert verdicts["is_F5"] and not verdicts["is_F0"]
        t = p[-1]
        ts_xi = float(ev.theta_star @ ev.xi0)
        assert ts_xi == pytest.approx(2 * n / np.cosh(t), abs=1e-9)
        # theta* is purely vertical: theta* = theta*(xi) eta
        assert np.max(np.abs(ev.theta_star - ts_xi * ev.eta0)) < 1e-9
        assert np.max(np.abs(ev.theta)) < 1e-9
        assert np.max(np.abs(ev.omega)) < 1e-9


def test_hypersurface_theta_star_at_unit_t():
    n = 2
    prov = build_hypersurface(n)
    p = [0.8, 1.2, 0.9, 1.1, 1.0]
    ev = structure_eval(prov, p, order=1)
    assert float(ev.theta_star @ ev.xi0) == pytest.approx(
        4.0 / np.cosh(1.0), abs=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_hypersurface_reeb_torse_data(n):
    prov = build_hypersurface(n)
    d = prov.dim
    p = sample_points(d, 1, seed=14)[0]
    reeb = ex.expr_table(["0"] * (d - 1) + ["1"], (d,))
    res, rep = torse_analysis(prov, reeb, p)
    assert res["torse_fit"] <= 1e-7 and "nabla_xi" in res
    assert abs(rep["f"] * np.cosh(p[-1]) - 1.0) < 1e-9
    assert prov.fk(p) == pytest.approx(rep["f"], abs=1e-12)


def test_flat_model_fk_is_zero():
    prov = build_flat_f0(1)
    assert prov.fk([1.0, 1.0, 1.0]) == 0.0


def test_fk_is_none_where_the_model_does_not_know_it():
    assert random_structure(1).fk is None
    assert get_example("random", n=2).fk is None


# ---------------------------------------------------------------------------
# Embedded sphere
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_embedded_sphere_axioms_and_class(n):
    model = EmbeddedSphere(n)
    for p in sample_points(model.dim, 2, seed=21, box=(0.6, 1.2)):
        ev = structure_eval(model, p, order=1)
        assert max(check_axioms(ev).values()) < 1e-9
        _, verdicts = class_residuals(ev)
        assert verdicts["is_F5"]
        t = p[-1]
        assert float(ev.theta_star @ ev.xi0) == pytest.approx(
            2 * n / np.cosh(t), abs=1e-8)


@pytest.mark.parametrize("n", [1, 2])
def test_embedding_invariants(n):
    model = EmbeddedSphere(n)
    for p in sample_points(model.dim, 2, seed=27, box=(0.6, 1.2)):
        res = embedding_invariants(model, p)
        assert res["constraint"] < 1e-10
        assert res["jacobian_rank"] == 0.0
        assert res["normal_unit"] < 1e-10
        assert res["normal_orth"] < 1e-10
        assert res["xi_position"] < 1e-10
        assert res["j_decomposition"] < 1e-10
        assert res["gauss"] < 1e-8


def test_random_frame_evaluates_its_constants_as_numbers(monkeypatch):
    # every product and sum of the frame has a constant operand, so an
    # order-1 evaluation multiplies no two jets
    calls, jmul = [], jets.jmul

    def counting(*args):
        calls.append(args)
        return jmul(*args)
    monkeypatch.setattr(jets, "jmul", counting)
    monkeypatch.setattr(ex, "jmul", counting)
    prov = random_structure(n=3, seed=4)
    prov.structure_at(sample_points(prov.dim, 3, seed=2), 1)
    assert calls == []
