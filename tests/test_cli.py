"""Command-line interface: exit codes, JSON output, determinism,
config handling."""

import json

import pytest

from accrgeo import cli
from accrgeo import expr as ex
from accrgeo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_check_flat_model_passes(capsys):
    code, rep = run_json(capsys, "check", "--example", "flat-f0",
                         "--n", "1", "--samples", "4")
    assert code == 0
    assert rep["passed"]
    assert rep["command"] == "check"
    assert rep["values"]["class_verdicts"]["is_F0"]
    assert all(c["passed"] for c in rep["checks"])


def test_classify_hypersurface(capsys):
    code, rep = run_json(capsys, "classify", "--example", "hypersurface-f5",
                         "--n", "1", "--samples", "4")
    assert code == 0
    v = rep["values"]["verdicts"]
    assert v["is_F5"] and not v["is_F0"]


def test_lee_reports_samples(capsys):
    code, rep = run_json(capsys, "lee", "--example", "hypersurface-f5",
                         "--n", "1", "--samples", "3", "--seed", "2")
    assert code == 0
    samples = rep["values"]["samples"]
    assert len(samples) == 3
    for s in samples:
        assert len(s["theta"]) == 3
        assert s["theta_star_xi"] > 0


def test_torse_default_reeb_field(capsys):
    code, rep = run_json(capsys, "torse", "--example", "hypersurface-f5",
                         "--n", "1", "--samples", "3")
    assert code == 0
    for s in rep["values"]["samples"]:
        assert s["k"] == pytest.approx(1.0)


def test_torse_explicit_field(capsys):
    code, rep = run_json(capsys, "torse", "--example", "flat-f0",
                         "--n", "1", "--samples", "2",
                         "--field", "x1;x2;t")
    assert code == 0
    for s in rep["values"]["samples"]:
        assert s["f"] == pytest.approx(1.0, abs=1e-10)


def test_transform_preset_soliton(capsys):
    code, rep = run_json(capsys, "transform", "--example", "hypersurface-f5",
                         "--n", "1", "--samples", "3",
                         "--preset", "soliton")
    assert code == 0
    assert rep["values"]["class_verdicts"]["is_F1"]


def test_transform_explicit_triple(capsys):
    code, rep = run_json(capsys, "transform", "--example", "random",
                         "--n", "1", "--samples", "2", "--seed", "4",
                         "--u", "0.1 * x1", "--v", "0.2 * t",
                         "--w", "0.1 * x2")
    assert code == 0


def test_soliton_positive(capsys):
    code, rep = run_json(capsys, "soliton", "--example", "hypersurface-f5",
                         "--n", "1", "--samples", "4",
                         "--preset", "soliton")
    assert code == 0
    assert rep["passed"]
    assert rep["values"]["tau_std"] < 1e-9
    names = {c["name"] for c in rep["checks"]}
    assert {"soliton", "tau_constancy", "killing",
            "cond:du_xi"} <= names


@pytest.mark.parametrize("preset", ["negative-du", "negative-dv",
                                    "negative-dw"])
def test_soliton_negative_presets_fail(capsys, preset):
    code, rep = run_json(capsys, "soliton", "--example", "hypersurface-f5",
                         "--n", "1", "--samples", "3", "--preset", preset)
    assert code == 1
    assert not rep["passed"]
    sol = next(c for c in rep["checks"] if c["name"] == "soliton")
    assert sol["residual"] > 1e-3


def test_example_list(capsys):
    code, rep = run_json(capsys, "example", "list")
    assert code == 0
    assert rep["values"]["examples"] == ["flat-f0", "hypersurface-f5",
                                         "random"]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_output_byte_identical_across_runs(capsys):
    argv = ["soliton", "--example", "hypersurface-f5", "--n", "1",
            "--samples", "3", "--preset", "soliton", "--json"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


def test_seed_changes_sample_points(capsys):
    _, r1 = run_json(capsys, "lee", "--example", "hypersurface-f5",
                     "--n", "1", "--samples", "2", "--seed", "1")
    _, r2 = run_json(capsys, "lee", "--example", "hypersurface-f5",
                     "--n", "1", "--samples", "2", "--seed", "2")
    assert r1["values"]["samples"][0]["point"] != \
        r2["values"]["samples"][0]["point"]


# ---------------------------------------------------------------------------
# Config handling and exit codes
# ---------------------------------------------------------------------------

def test_config_file_round(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"example": "flat-f0", "n": 1,
                                   "samples": 2, "seed": 7}))
    code, rep = run_json(capsys, "check", "--config", str(cfgfile))
    assert code == 0
    assert rep["config"]["example"] == "flat-f0"
    assert rep["config"]["seed"] == 7


def test_flag_overrides_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"example": "flat-f0", "n": 1}))
    code, rep = run_json(capsys, "check", "--config", str(cfgfile),
                         "--example", "hypersurface-f5", "--samples", "2")
    assert code == 0
    assert rep["config"]["example"] == "hypersurface-f5"


def test_malformed_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text("{ not json")
    assert main(["check", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_config_key(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"exmple": "flat-f0"}))
    assert main(["check", "--config", str(cfgfile)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main(["check", "--example", "no-such"]) == 2
    capsys.readouterr()
    assert main(["check", "--example", "flat-f0", "--order", "9"]) == 2
    capsys.readouterr()
    assert main(["check", "--example", "flat-f0", "--box", "2,1"]) == 2
    capsys.readouterr()
    assert main(["soliton", "--example", "hypersurface-f5"]) == 2
    capsys.readouterr()
    assert main(["torse", "--example", "flat-f0", "--field", "x1;x2"]) == 2
    capsys.readouterr()
    assert main(["check", "--example", "flat-f0",
                 "--tol", "struct"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", "--n", "5"],
    ["soliton", "--preset", "soliton", "--order", "3", "--n", "20"],
    ["check", "--samples", "1025"],
    ["lee", "--samples", "1000000000"],
])
def test_oversized_problem_exits_2_before_any_work(monkeypatch, capsys,
                                                   argv):
    def no_work(cfg):
        pytest.fail("an oversized problem reached the model build")

    monkeypatch.setattr(cli, "make_provider", no_work)
    assert main(argv + ["--example", "flat-f0"]) == 2
    assert "must be in" in capsys.readouterr().err


def test_largest_problem_is_admitted():
    args = cli.build_parser().parse_args(
        ["soliton", "--n", str(cli.MAX_N), "--samples", str(cli.MAX_SAMPLES)])
    cfg = cli.build_config(args)
    assert (cfg["n"], cfg["samples"]) == (cli.MAX_N, cli.MAX_SAMPLES)


def test_numeric_domain_errors_exit_3(capsys):
    # the n=2 hypersurface chart degenerates at the origin; a tiny box
    # around zero produces a numerically singular metric
    code = main(["check", "--example", "hypersurface-f5", "--n", "2",
                 "--samples", "8", "--box=-0.0001,0.0001"])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err


def test_tolerance_override_can_force_failure(capsys):
    code, rep = run_json(capsys, "check", "--example", "flat-f0",
                         "--n", "1", "--samples", "2",
                         "--tol", "derived=1e-30")
    assert code in (0, 1)
    # a zero-residual identity still passes even under an absurd
    # tolerance, but the tolerance must be recorded
    fsym = next(c for c in rep["checks"] if c["name"] == "f_symmetry")
    assert fsym["tolerance"] == 1e-30


def test_config_value_of_wrong_type_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"example": "flat-f0", "n": "2"}))
    assert main(["check", "--config", str(cfgfile)]) == 2
    assert "wrong type" in capsys.readouterr().err


def test_unknown_tolerance_family_exits_2(capsys):
    assert main(["check", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", "--tol", "strcut=1e-30"]) == 2
    assert "unknown tolerance family" in capsys.readouterr().err


def test_unbound_name_in_triple_exits_2(capsys):
    assert main(["transform", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", "--u", "y+1"]) == 2
    assert "unbound names ['y']" in capsys.readouterr().err


def test_malformed_field_exits_2(capsys):
    assert main(["torse", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", "--field", "x1;((;t"]) == 2
    assert "bad --field expression" in capsys.readouterr().err


def test_overflow_in_triple_exits_3(capsys):
    assert main(["transform", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", "--u", "exp(exp(10))"]) == 3
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("u", ["1e999*x1", "x1^1e999", "x1^-1e999"])
def test_non_finite_number_in_triple_exits_2(capsys, u):
    # 1e999 read as inf ran on to "SVD did not converge", exit 3
    assert main(["transform", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", "--order", "1", "--u", u]) == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"u": Infinity}', '{"v": NaN}',
                                  '{"w": 1' + "0" * 400 + "}"],
                         ids=["inf", "nan", "integer-beyond-float"])
def test_non_finite_number_for_triple_in_config_file_exits_2(tmp_path,
                                                             capsys, text):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    assert main(["transform", "--config", str(cfgfile), "--example",
                 "flat-f0", "--n", "1", "--samples", "1"]) == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("u,box,node", [
    # math.exp overflows on the middle exp
    ("exp(exp(exp(x1*10)))", "1,2", "math range error at "
                                    "exp(exp((x1 * 10)))"),
    # numpy overflows to inf inside the jet product
    ("x1^400 + 1", "10,11", "overflow encountered in multiply at "
                            "(x1 ^ 400)"),
    ("1/(x1*1e-200)", "1,2", "division by zero at (1 / (x1 * "),
])
def test_overflow_in_triple_exits_3_naming_the_node(capsys, u, box, node):
    assert main(["transform", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", "--order", "1", f"--box={box}",
                 "--u", u]) == 3
    err = capsys.readouterr().err
    assert node in err
    assert "Warning" not in err


def test_classify_reports_one_worst_of_axioms_check(capsys):
    code, rep = run_json(capsys, "classify", "--example", "random",
                         "--n", "1", "--samples", "4", "--seed", "7")
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == ["axioms"]


@pytest.mark.parametrize("example", ["hypersurface-f5", "flat-f0"])
def test_torse_reports_vertical_case_identities(capsys, example):
    code, rep = run_json(capsys, "torse", "--example", example,
                         "--n", "2", "--samples", "4")
    assert code == 0 and rep["values"]["is_vertical"]
    checks = {c["name"]: c for c in rep["checks"]}
    for name in ("f_xyxi", "theta_star_xi", "theta_xi", "omega"):
        assert checks[name]["passed"]
        assert checks[name]["tolerance"] == 1e-8


@pytest.mark.parametrize("flags", [
    ["--sigma=nan"], ["--sigma=inf"], ["--sigma=-inf"],
    ["--tol", "struct=nan"], ["--tol", "derived=inf"],
    ["--tol", "soliton=0"], ["--tol", "class=-1e-6"],
])
def test_non_finite_sigma_or_tolerance_exits_2(capsys, flags):
    # a NaN sigma made every soliton residual NaN, which read as 0.0
    assert main(["soliton", "--example", "random", "--n", "1",
                 "--samples", "4", "--preset", "soliton", *flags]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"sigma": NaN}',
                                  '{"tol": {"struct": Infinity}}'])
def test_non_finite_config_file_values_exit_2(tmp_path, capsys, text):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    assert main(["soliton", "--config", str(cfgfile), "--n", "1",
                 "--samples", "1", "--preset", "soliton"]) == 2
    assert "finite" in capsys.readouterr().err


def test_finite_sigma_is_admitted(capsys):
    code, rep = run_json(capsys, "soliton", "--example", "hypersurface-f5",
                         "--n", "1", "--samples", "2", "--preset",
                         "soliton", "--sigma=-1.5")
    assert code in (0, 1)
    assert rep["values"]["sigma"] == -1.5


@pytest.mark.parametrize("argv", [
    ["transform", "--u", "(" * 3000 + "x1" + ")" * 3000],
    ["transform", "--u=" + "-" * 3000 + "x1"],
    ["transform", "--u", "+".join(["0*x1"] * 5000)],
    ["torse", "--field", "0;0;" + "(" * 3000 + "1" + ")" * 3000],
])
def test_too_deep_expression_exits_2(capsys, argv):
    assert main(argv + ["--example", "flat-f0", "--n", "1",
                        "--samples", "1"]) == 2
    assert "nested" in capsys.readouterr().err


def test_expression_at_the_depth_bound_is_admitted(capsys):
    # MAX_DEPTH - 1 negations over one product: MAX_DEPTH operations
    code, _ = run_json(capsys, "transform", "--example", "flat-f0", "--n",
                       "1", "--samples", "1",
                       "--u=" + "-" * (ex.MAX_DEPTH - 1) + "(0.1*x1)")
    assert code in (0, 1)


def torse_verdicts(capsys, example, c):
    code, rep = run_json(capsys, "torse", "--example", example, "--n", "1",
                         "--samples", "2", "--field", f"0;0;{c}")
    return (code, rep["values"]["is_vertical"],
            [(ch["name"], ch["passed"]) for ch in rep["checks"]])


@pytest.mark.parametrize("c", ["1e-6", "1e-13"])
def test_torse_verdicts_do_not_depend_on_the_field_scale(capsys, c):
    assert torse_verdicts(capsys, "random", c) == \
        torse_verdicts(capsys, "random", "1")


@pytest.mark.parametrize("c", ["1", "1e-6", "1e-13"])
def test_scaled_reeb_field_passes_every_torse_check(capsys, c):
    code, vertical, checks = torse_verdicts(capsys, "hypersurface-f5", c)
    assert code == 0 and vertical and len(checks) == 8
    assert all(passed for _, passed in checks)


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--box=-1e308,1e308"],               # hi - lo overflows to inf
    ["--box=-inf,1"],
])
def test_negative_seed_or_infinite_box_width_exits_2_before_any_work(
        monkeypatch, capsys, flags):
    def no_work(cfg):
        pytest.fail("a bad seed or box reached the model build")

    monkeypatch.setattr(cli, "make_provider", no_work)
    assert main(["check", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", *flags]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"seed": -3}',
                                  '{"box": [0, 1' + "0" * 400 + "]}"],
                         ids=["negative-seed", "integer-beyond-float"])
def test_negative_seed_or_huge_box_in_config_file_exits_2(tmp_path, capsys,
                                                          text):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    assert main(["check", "--config", str(cfgfile), "--example", "flat-f0",
                 "--n", "1", "--samples", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_widest_finite_box_is_admitted():
    args = cli.build_parser().parse_args(["check", "--box=-8e307,8e307"])
    assert cli.build_config(args)["box"] == [-8e307, 8e307]
