"""Command-line interface: exit codes, JSON output, determinism,
config handling."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from accrgeo import cli
from accrgeo import expr as ex
from accrgeo.cli import main
from accrgeo.examples import REGISTRY
from accrgeo.jets import JetDomainError, SingularMetricError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def fresh_env() -> dict:
    """The environment of a new interpreter that imports this test's
    ``accrgeo``."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def fresh_process(*argv):
    """``python -m accrgeo.cli argv`` in a new interpreter."""
    return subprocess.Popen([sys.executable, "-m", "accrgeo.cli", *argv],
                            env=fresh_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


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


@pytest.mark.parametrize("example", sorted(REGISTRY))
def test_torse_default_field_is_d_dt(capsys, example):
    # d/dt is the Reeb field on some models only: on random xi is the
    # frame image of d/dt, which is not vertical there
    argv = ["torse", "--example", example, "--n", "2", "--samples", "4"]
    code, rep = run_json(capsys, *argv)
    code_t, rep_t = run_json(capsys, *argv, "--field", "0;0;0;0;1")
    assert rep["config"].pop("field") is None
    assert rep_t["config"].pop("field") == "0;0;0;0;1"
    assert (code, rep) == (code_t, rep_t)
    assert rep["values"]["is_vertical"] == (example != "random")


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


def test_an_expression_that_starts_with_a_minus_takes_the_equals_form(
        capsys):
    # argparse reads "--u -t" as --u without a value, so the help of
    # every expression flag names the "=" form, which runs
    assert main(["transform", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", "--u=-t", "--json"]) == 0
    for argv, form in ((["transform", "--help"], "--u=-t"),
                       (["torse", "--help"], "--field=-")):
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(argv)
        assert form in "".join(capsys.readouterr().out.split())


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
    assert rep["values"]["examples"] == ["embedded-sphere", "flat-f0",
                                         "hypersurface-f5", "random"]


def test_report_keeps_each_check_as_the_dict_it_prints():
    rep = cli.Report("check", {"n": 1})
    rep.add("a", np.float64(1e-9), 1e-8)
    rep.add("b", 1e-8, 1e-8)             # a residual at its tolerance fails
    assert rep.checks == [
        {"name": "a", "residual": 1e-9, "tolerance": 1e-8, "passed": True},
        {"name": "b", "residual": 1e-8, "tolerance": 1e-8, "passed": False}]
    assert all(type(c["residual"]) is float for c in rep.checks)
    printed = json.loads(rep.to_json())
    assert printed["checks"] == rep.checks and printed["passed"] is False


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_output_byte_identical_across_runs(capsys):
    argv = ["soliton", "--example", "hypersurface-f5", "--n", "1",
            "--samples", "3", "--preset", "soliton", "--json"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


# the jet order each command evaluates is the one its report reads (1, and
# 2 for the scalar curvature of soliton): --order only appears in config
ORDER_COMMANDS = ([[cmd] for cmd in ("check", "classify", "lee", "torse")]
                  + [[cmd, "--preset", preset]
                     for cmd in ("transform", "soliton")
                     for preset in sorted(cli.PRESETS)])
ORDER_CASES = [[*cmd, "--example", model, "--n", str(n)]
               for cmd in ORDER_COMMANDS
               for model in ("flat-f0", "hypersurface-f5", "random")
               for n in (1, 2)]


@pytest.mark.parametrize("argv", ORDER_CASES, ids=" ".join)
def test_report_does_not_depend_on_the_order_flag(capsys, argv):
    runs = []
    for order in ("1", "2", "3"):
        code, out = run(capsys, *argv, "--order", order, "--samples", "3",
                        "--seed", "4", "--json")
        report = json.loads(out) if out else None
        if report is not None:
            assert report["config"].pop("order") == int(order)
        runs.append((code, report))
    assert runs[0] == runs[1] == runs[2]


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


@pytest.mark.parametrize("text", ['{"tol": 5}', '{"tol": []}'])
def test_config_tol_that_is_not_an_object_exits_2_beside_tol_flag(
        tmp_path, capsys, text):
    # the --tol override was written into the config's value: TypeError
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    assert main(["check", "--config", str(cfgfile), "--tol", "class=1e-3",
                 "--example", "flat-f0", "--n", "1", "--samples", "1"]) == 2
    assert "config value tol=" in capsys.readouterr().err


def test_tol_flag_joins_the_config_file_tolerances(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"tol": {"struct": 1e-9, "class": 1e-4}}')
    code, rep = run_json(capsys, "check", "--config", str(cfgfile),
                         "--tol", "class=1e-3", "--example", "flat-f0",
                         "--n", "1", "--samples", "1")
    assert code == 0
    assert rep["config"]["tol"] == {"struct": 1e-9, "class": 1e-3}


@pytest.mark.parametrize("data", [
    b"\xff\xfe" + '{"n": 1}'.encode("utf-16-le"),
    '{"example": "flat-f0", "u": "x1 + \u00e9"}'.encode("latin-1"),
], ids=["utf-16-bom", "latin-1"])
def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys, data):
    # it was decoded in the locale's encoding: "numeric error", exit 3
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_bytes(data)
    assert main(["check", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config file is not UTF-8 text")


def test_unknown_config_key(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"exmple": "flat-f0"}))
    assert main(["check", "--config", str(cfgfile)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_key_for_an_option_the_command_lacks_exits_2(tmp_path, capsys):
    # as the flag does: check --u x1 exits 2, and the config file's u was
    # echoed in the report though nothing evaluated it
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"u": "x1", "sigma": 3.0,
                                   "field": "1;0;0"}))
    assert main(["check", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config keys that check takes no flag "
                            "for: ['field', 'sigma', 'u']\n")
    cfgfile.write_text(json.dumps({"field": "0;0;1", "n": 1}))
    assert main(["torse", "--config", str(cfgfile), "--example",
                 "flat-f0", "--samples", "1"]) == 0


def test_usage_errors_exit_2(capsys):
    assert main(["check", "--example", "no-such"]) == 2
    assert capsys.readouterr().err == (     # the message, not its repr
        f"error: unknown example 'no-such'; choose from {sorted(REGISTRY)}\n")
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
    ["soliton", "--preset", "soliton", "--n", "20"],
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


NUMERIC_FAULTS = [ArithmeticError, ZeroDivisionError, OverflowError,
                  FloatingPointError, ex.EvalError, JetDomainError,
                  SingularMetricError, np.linalg.LinAlgError, ValueError]


@pytest.mark.parametrize("fault", NUMERIC_FAULTS,
                         ids=lambda c: c.__name__)
def test_every_numeric_fault_exits_3(capsys, monkeypatch, fault):
    # the boundary is ArithmeticError or ValueError, whatever the class
    def raising(cfg):
        raise fault("injected")

    monkeypatch.setitem(cli.COMMANDS, "example", raising)
    code = main(["example", "list"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "numeric error: injected\n"


# an empty value is a value: no field, preset or expression, not the
# default that an absent option stands for
EMPTY_VALUES = {
    "field": ("torse", {"field": ""}, "--field needs 3 components"),
    "preset": ("transform", {"preset": "", "u": "x1"}, "unknown preset ''"),
    "preset-alone": ("soliton", {"preset": ""}, "unknown preset ''"),
    "u": ("transform", {"u": ""}, "bad transformation expression"),
    "v": ("transform", {"u": "x1", "v": ""}, "bad transformation expression"),
    "w": ("soliton", {"w": ""}, "bad transformation expression"),
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("cmd,values,message", EMPTY_VALUES.values(),
                         ids=EMPTY_VALUES)
def test_an_empty_option_value_exits_2(tmp_path, capsys, cmd, values,
                                       message, source):
    argv = [cmd, "--example", "flat-f0", "--n", "1", "--samples", "1"]
    if source == "flag":
        argv += [f"--{key}={val}" for key, val in values.items()]
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(values))
        argv += ["--config", str(cfgfile)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("cmd,key", [("transform", "u"), ("soliton", "v"),
                                     ("transform", "w")])
def test_a_preset_with_a_triple_expression_exits_2(tmp_path, capsys, cmd,
                                                   key, source):
    # the preset would be verified and the expression only echoed
    argv = [cmd, "--example", "flat-f0", "--n", "1", "--samples", "1",
            "--preset", "identity"]
    if source == "flag":
        argv += [f"--{key}", "x1"]
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: "x1"}))
        argv += ["--config", str(cfgfile)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: --preset excludes --u, --v and --w\n"


@pytest.mark.parametrize("flag,message", [
    ("--box=", "--box expects lo,hi"),
    ("--config=", "cannot read config file"),
])
def test_an_empty_box_or_config_flag_exits_2(capsys, flag, message):
    code = main(["check", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", flag])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err


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
                 "--samples", "1", "--u", u]) == 2
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
                 "--samples", "1", f"--box={box}",
                 "--u", u]) == 3
    err = capsys.readouterr().err
    assert node in err
    assert "Warning" not in err


@pytest.mark.parametrize("flag,text", [("--u", "300*x1"), ("--w", "400*x1")])
def test_overflow_in_a_deformation_factor_exits_3_naming_it(capsys, flag,
                                                            text):
    # u and w are finite; e^2u and e^2w, factors of g_bar, overflow
    assert main(["transform", "--example", "flat-f0", "--n", "1",
                 "--samples", "1", "--box=1,2",
                 flag, text]) == 3
    assert (f"math range error at exp((2 * ({text.replace('*', ' * ')})))"
            in capsys.readouterr().err)


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


def test_huge_finite_sigma_exits_3_naming_sigma(capsys):
    # sigma = 1e308 overflowed the soliton residuals: the report held
    # "Infinity", which is not JSON, and dropped the NaN of two values
    code = main(["soliton", "--example", "hypersurface-f5", "--n", "1",
                 "--preset", "soliton", "--samples", "2", "--sigma", "1e308"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "sigma=1e+308" in err
    assert "Warning" not in err


def test_large_finite_sigma_still_reports(capsys):
    code, out = run(capsys, "soliton", "--example", "hypersurface-f5",
                    "--n", "1", "--preset", "soliton", "--samples", "2",
                    "--sigma", "1e200")
    assert code == 1

    def reject(name):
        raise ValueError(f"{name} in the report")
    rep = json.loads(out, parse_constant=reject)
    assert rep["values"]["sigma"] == 1e200
    assert rep["values"]["tsdw_residual"] > 1e199


@pytest.mark.parametrize("flags", [[], ["--tol", "class=100"]])
def test_soliton_is_F1_follows_the_class_tolerance(capsys, flags):
    # soliton's is_F1 check is the class verdict transform reports for
    # the same deformed structure, at the same class tolerance
    argv = ["--example", "hypersurface-f5", "--n", "1", "--preset",
            "negative-du", "--samples", "4", *flags]
    _, transform = run_json(capsys, "transform", *argv)
    _, soliton = run_json(capsys, "soliton", *argv)
    is_f1, = (c["passed"] for c in soliton["checks"] if c["name"] == "is_F1")
    assert is_f1 == transform["values"]["class_verdicts"]["is_F1"]


SOLITON_FAMILIES = {
    "soliton": {"soliton", "tau_constancy", "killing", "lee_theta",
                "lee_theta_star", "omega_bar"},
    "derived": {"cond:du_xi", "cond:dv_xi", "cond:dw_vertical"},
    "class": set(),
}


@pytest.mark.parametrize("family", SOLITON_FAMILIES)
def test_each_soliton_check_is_judged_by_its_family_tolerance(capsys,
                                                              family):
    argv = ["soliton", "--example", "hypersurface-f5", "--n", "1",
            "--preset", "soliton", "--samples", "2"]
    _, base = run_json(capsys, *argv)
    _, override = run_json(capsys, *argv, "--tol", f"{family}=0.125")
    before = {c["name"]: c["tolerance"] for c in base["checks"]}
    after = {c["name"]: c["tolerance"] for c in override["checks"]}
    assert list(after) == list(before)
    assert {k for k in after if after[k] != before[k]} == (
        SOLITON_FAMILIES[family])
    assert all(after[k] == 0.125 for k in SOLITON_FAMILIES[family])
    assert after["is_F1"] == before["is_F1"] == 0.5


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


def torse_checks(capsys, example, c):
    code, rep = run_json(capsys, "torse", "--example", example, "--n", "1",
                         "--samples", "4", "--field", f"0;0;{c}")
    return code, {ch["name"]: ch["residual"] for ch in rep["checks"]}


@pytest.mark.parametrize("example", sorted(REGISTRY))
@pytest.mark.parametrize("c", ["1e-200", "1e-150", "1e150"])
def test_torse_checks_do_not_depend_on_the_field_scale(capsys, example, c):
    # the fit forms no square of the field's scale, which would underflow
    # to a NaN or overflow
    code, checks = torse_checks(capsys, example, c)
    code_1, checks_1 = torse_checks(capsys, example, "1")
    assert code == code_1 and list(checks) == list(checks_1)
    for name, residual in checks_1.items():
        assert abs(checks[name] - residual) <= 1e-12 * max(1.0,
                                                           abs(residual))


def test_non_finite_report_value_exits_3(capsys, monkeypatch):
    # JSON (RFC 8259) has no Infinity
    monkeypatch.setitem(cli.COMMANDS, "example", lambda cfg: cli.Report(
        "example", cfg, values={"value": np.inf}))
    code = main(["example", "list"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("numeric error:")


def test_torse_reports_a_field_whose_square_is_beyond_the_float_range(
        capsys):
    # g(v, v) = 1e400 is not a float, but no reported value squares v
    code, rep = run_json(capsys, "torse", "--example", "flat-f0", "--n", "1",
                         "--field", "0;0;1e200", "--samples", "1")
    assert code == 0 and rep["values"]["is_vertical"]
    assert rep["values"]["samples"][0]["k"] == 1e200


class Terminal(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize("argv", [
    ["check", "--example", "flat-f0", "--n", "1", "--samples", "2"],
    ["soliton", "--example", "hypersurface-f5", "--n", "1", "--samples",
     "2", "--preset", "negative-du"],
])
def test_stderr_table_on_a_terminal(capsys, argv):
    code, out = run(capsys, *argv)                  # stderr is no terminal
    rep = json.loads(out)
    for flags, table in (([], True), (["--json"], False)):
        with contextlib.redirect_stderr(Terminal()) as err:
            assert main(argv + flags) == code
        assert capsys.readouterr().out == out
        lines = err.getvalue().splitlines()
        if not table:
            assert lines == []
            continue
        assert lines[0].startswith(rep["command"])
        assert len(lines) == len(rep["checks"]) + 2
        for line, check in zip(lines[1:], rep["checks"]):
            name, *_, mark = line.split()
            assert (name, mark) == (check["name"],
                                    "pass" if check["passed"] else "FAIL")
        assert lines[-1].split() == ["=>", "PASS" if rep["passed"]
                                     else "FAIL"]


@pytest.mark.parametrize("box", ["1e-80,2e-80", "1,2"])
def test_dk_identity_is_relative_to_the_terms_it_cancels(capsys, box):
    # v = (1/x1) xi on the flat model: dk - f eta - k gamma = 0 with f = 0,
    # k = 1/x1, gamma = -dx1/x1; near x1 = 1e-80 each term is about 1e160
    # against |v| = 1e80
    code, rep = run_json(capsys, "torse", "--example", "flat-f0", "--n", "1",
                         "--field", "0;0;1/x1", f"--box={box}")
    checks = {c["name"]: c["residual"] for c in rep["checks"]}
    assert code == 0 and checks["dk_identity"] < 1e-15


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


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["example", "list"],
                 ["check", "--example", "flat-f0", "--n", "1",
                  "--samples", "1"],
                 ["soliton", "--example", "flat-f0", "--n", "1",
                  "--samples", "1", "--preset", "identity"],
                 ["check", "--n", "9"]):
        main(argv)
    capsys.readouterr()
    assert built == []
    cli.build_parser()                     # the count sees a build
    assert built


def test_one_process_reports_as_a_fresh_one(tmp_path, capsys):
    argv = ["check", "--example", "hypersurface-f5", "--n", "1",
            "--samples", "2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-such-flag"])
    assert exc.value.code == 2
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"tol": 5}')
    assert main([*argv, "--config", str(cfgfile)]) == 2
    code, out = run(capsys, *argv, "--tol", "class=1e-3")
    assert json.loads(out)["config"]["tol"] == {"class": 1e-3}
    code, out = run(capsys, *argv)
    proc = fresh_process(*argv)
    fresh, _ = proc.communicate(timeout=120)
    assert (code, out.encode()) == (proc.returncode, fresh)


def subcommand_helps(parser) -> dict:
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: p.format_help() for name, p in sub.choices.items()}


def test_shared_parser_is_a_fresh_build():
    fresh = cli.build_parser()
    assert cli.PARSER.format_help() == fresh.format_help()
    assert subcommand_helps(cli.PARSER) == subcommand_helps(fresh)


@pytest.mark.parametrize("samples", ["1", "64"],
                         ids=["flushed-at-exit", "written-at-once"])
def test_closed_stdout_ends_with_one_line_and_no_traceback(samples):
    # the one-sample report waits in stdout's buffer, the 64-sample one
    # overflows it in print
    proc = fresh_process("lee", "--n", "2", "--samples", samples, "--json")
    proc.stdout.close()          # the child is still importing numpy
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err.decode() == "error: stdout closed before the report was " \
                           "written\n"


def test_stdout_closed_from_the_start_exits_without_a_traceback():
    # Python sets sys.stdout to None, where print would drop the report
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m accrgeo.cli example list >&-',
         sys.executable], env=fresh_env(), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        141, b"error: stdout closed before the report was written\n")


def test_stderr_closed_from_the_start_keeps_the_report_and_exit_code(capsys):
    # Python sets sys.stderr to None, which has no isatty
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m accrgeo.cli check --n 1 --samples 1 2>&-',
         sys.executable], env=fresh_env(), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout.decode()) == run(
        capsys, "check", "--n", "1", "--samples", "1")


def test_both_streams_closed_from_the_start_exit_141():
    # the error line has neither stream to go to and is dropped
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m accrgeo.cli example list >&- 2>&-',
         sys.executable], env=fresh_env(), capture_output=True, timeout=120)
    assert proc.returncode == 141


@pytest.mark.parametrize("argv, code, line", [
    (["check", "--n", "9", "--samples", "1"], 2, "error: n must be in"),
    (["transform", "--example", "flat-f0", "--n", "1", "--samples", "1",
      "--u", "exp(exp(exp(10 * x1)))", "--box=1,2"], 3, "numeric error:"),
], ids=["exit-2", "exit-3"])
def test_stderr_closed_from_the_start_keeps_errors_off_stdout(capsys, argv,
                                                              code, line):
    # print to a None sys.stderr writes to stdout, which holds only the
    # report; sys.executable, as a pyenv shim exits 1 without a stderr
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m accrgeo.cli "$@" 2>&-', sys.executable,
         *argv], env=fresh_env(), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, b"")
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(line)
