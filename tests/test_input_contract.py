"""The command line's input contract, as properties over drawn argv and
config files: no input ends in a traceback, usage and config faults exit
2, numeric faults exit 3, stdout holds one JSON report or nothing, and a
flag and the same config key are one input."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from accrgeo import cli
from accrgeo.examples import REGISTRY
from test_cli import options_taken

# integers beyond int64 and beyond the float range
BIG = [2 ** 63, 2 ** 70, 10 ** 400]
FIELDS = ["0;0;1", "1;0;0", "x1;x2;t", "0;0;1e200", "-1;0;0", "0;1", "",
          "exp(exp(exp(10 * x1)));0;1", "x1;(;1"]
EXPRS = ["0", "0.1 * x1", "t", "-t", "300 * x1", "exp(exp(exp(10 * x1)))",
         "1e999", "x1 ^ 1e999", "y + 1", "x1 + ١٢", "sin(",
         "(" * 101 + "t" + ")" * 101, "", "ln(x1 - 10)"]
FLOATS = st.floats()                     # NaN and the infinities among them

# values of each option that a flag and a config key both carry as the
# same JSON value: floats for box, tol and sigma, text for u, v and w
VALUES = {
    "example": st.sampled_from([*sorted(REGISTRY), "no-such", ""]),
    "n": st.sampled_from([1, 2, 3, 4, 0, 5, -1, *BIG]),
    "order": st.sampled_from([1, 2, 3, 0, 4]),
    "samples": st.sampled_from([1, 2, 3, 0, 1025, -1, *BIG]),
    "seed": st.one_of(st.integers(0, 2 ** 32), st.sampled_from([-1, *BIG])),
    "box": st.one_of(st.sampled_from([[0.5, 1.5], [1.0, 2.0], [2.0, 1.0],
                                      [-1e308, 1e308], [-8e307, 8e307]]),
                     st.lists(FLOATS, min_size=2, max_size=2)),
    "tol": st.dictionaries(st.sampled_from([*cli.TOLERANCES, "bogus"]),
                           FLOATS, max_size=2),
    "sigma": FLOATS,
    "field": st.sampled_from(FIELDS),
    "preset": st.sampled_from([*sorted(cli.PRESETS), "", "no-such"]),
    **{k: st.sampled_from(EXPRS) for k in "uvw"},
}
# values only a config file carries, or carries with another JSON type
CONFIG_ONLY = {
    "box": st.sampled_from([[0, 10 ** 400], [1], [0, 1, 2], ["0", "1"]]),
    "tol": st.sampled_from([{"class": b} for b in BIG] + [5, []]),
    "sigma": st.sampled_from([*BIG, 1, True, "1"]),
    **{k: st.sampled_from([0, 0.5, True, None]) for k in "uvw"},
    "n": st.sampled_from(["2", 1.0, True]),
}


def flag_args(key, value) -> list:
    """``value`` as the flags of option ``key``, each in the --key=value
    form, which takes a value that starts with '-'."""
    if key == "tol":
        if not isinstance(value, dict):
            return [f"--tol={value}"]
        return [f"--tol={name}={val!r}" for name, val in value.items()]
    if key == "box" and isinstance(value, list):
        return ["--box=" + ",".join(map(repr, value))]
    return [f"--{key}={value!r}" if isinstance(value, float)
            else f"--{key}={value}"]


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``; argparse's exit
    is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def base_argv(cmd, skip=()) -> list:
    """A one-point report of ``cmd`` at n = 1, less the flags in ``skip``;
    transform and soliton with the soliton preset."""
    if cmd == "example":
        return ["example", "list"]
    pairs = [("n", "1"), ("samples", "1")]
    if "preset" in options_taken(cmd) and not {"preset", "u", "v",
                                                "w"} & set(skip):
        pairs.append(("preset", "soliton"))
    return [cmd] + [f"--{k}={v}" for k, v in pairs if k not in skip]


@st.composite
def command_lines(draw):
    """(command, argv, config): argv from the grammar of the CLI, with the
    options drawn split between flags and the config file; now and then
    an option the command does not take, a bad action or a bad flag."""
    cmd = draw(st.sampled_from(list(cli.COMMANDS)))
    own = sorted(options_taken(cmd))
    keys = draw(st.lists(st.sampled_from(own), unique=True,
                         max_size=4)) if own else []
    if draw(st.integers(0, 7)) == 0:
        keys.append(draw(st.sampled_from([*VALUES, "no-such"])))
    argv, config = base_argv(cmd, keys), {}
    if cmd == "example" and draw(st.integers(0, 7)) == 0:
        argv[1] = "no-such"
    for key in keys:
        pool = VALUES.get(key, st.just("x"))
        if key in CONFIG_ONLY and draw(st.integers(0, 3)) == 0:
            pool = CONFIG_ONLY[key]
        value = draw(pool)
        if draw(st.booleans()):
            argv += flag_args(key, value)
        else:
            config[key] = value
    if draw(st.integers(0, 15)) == 0:
        argv.append(draw(st.sampled_from(["--no-such", "--n", "--n=two",
                                          "--config="])))
    return cmd, argv, config


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=command_lines())
def test_every_input_ends_in_a_report_or_one_error_line(tmp_path_factory,
                                                        case):
    cmd, argv, config = case
    if config:
        path = tmp_path_factory.getbasetemp() / "contract.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code in (0, 1):
        rep = json.loads(out)
        assert (rep["command"], rep["passed"]) == (cmd, code == 0)
    else:
        assert out == ""
        assert err.startswith(("error:", "usage:") if code == 2
                              else "numeric error:"), err


@st.composite
def one_option(draw):
    """(key, command, value): a row of ``cli.OPTIONS``, a command that
    takes it and a value that its flag and its config key both carry."""
    key = draw(st.sampled_from(list(cli.OPTIONS)))
    cmd = draw(st.sampled_from(cli.OPTIONS[key].commands))
    return key, cmd, draw(VALUES[key])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=one_option())
def test_a_flag_and_the_same_config_key_are_one_input(tmp_path_factory,
                                                      case):
    key, cmd, value = case
    argv = base_argv(cmd, [key])
    path = tmp_path_factory.getbasetemp() / "same.json"
    path.write_text(json.dumps({key: value}))
    by_flag = run(argv + flag_args(key, value))
    by_config = run(argv + ["--config", str(path)])
    assert by_flag[:2] == by_config[:2], (by_flag[2], by_config[2])
