"""The report matrix (tools/report_matrix.py) without running it: the
comparison of two records on small synthetic records, the cases of the
matrix, and the golden reports as matrix records."""

import json
import math
from pathlib import Path

import pytest

import report_matrix
from report_matrix import compare, deviation


def report(residual=1e-10, passed=True, value=0.5, **extra):
    return {"checks": [{"name": "soliton", "passed": passed,
                        "residual": residual, "tolerance": 1e-6}],
            "passed": passed, "values": {"sigma": value, **extra}}


def record(rep, code=0, sort_keys=True):
    text = json.dumps(rep, sort_keys=sort_keys, indent=2) + "\n"
    return {"argv": ["soliton"], "exit": code, "stdout": text}


def test_byte_identical_records():
    rec = record(report())
    counts = compare({"a": rec, "b": rec}, {"a": rec, "b": rec})
    assert counts == {"cases": 2, "only_in_first": 0, "only_in_second": 0,
                      "byte_identical": 2, "exit_changed": 0,
                      "verdict_changed": 0, "max_float_deviation": 0.0,
                      "max_float_deviation_at": None, "paths": {}}


def test_cases_in_one_record_only_are_counted_not_compared():
    rec = record(report())
    counts = compare({"a": rec, "b": rec}, {"a": rec, "c": rec})
    assert (counts["cases"], counts["only_in_first"],
            counts["only_in_second"], counts["byte_identical"]) == (1, 1, 1, 1)


def test_exit_code_change():
    rep = report()
    counts = compare({"a": record(rep, 0)}, {"a": record(rep, 1)})
    assert counts["byte_identical"] == 0
    assert counts["exit_changed"] == 1
    assert counts["verdict_changed"] == 0
    assert counts["max_float_deviation"] == 0.0
    assert counts["max_float_deviation_at"] is None     # no path deviates


def test_exit_3_without_a_report_is_an_infinite_deviation():
    fault = {"argv": ["soliton"], "exit": 3, "stdout": ""}
    counts = compare({"a": record(report())}, {"a": fault})
    assert counts["exit_changed"] == 1
    assert counts["verdict_changed"] == 1
    assert counts["max_float_deviation"] == math.inf


def test_verdict_change():
    counts = compare({"a": record(report(passed=True))},
                     {"a": record(report(passed=False))})
    assert counts["exit_changed"] == 0
    assert counts["verdict_changed"] == 1


def test_float_deviation_is_relative_and_names_its_path():
    counts = compare({"a": record(report(residual=3.0, value=0.25))},
                     {"a": record(report(residual=4.5, value=0.5))})
    assert counts["byte_identical"] == 0
    assert counts["verdict_changed"] == 0
    # |3 - 4.5| / max(1, 3) = 0.5 beats |0.25 - 0.5| / max(1, 0.25)
    assert counts["max_float_deviation"] == pytest.approx(0.5)
    assert counts["max_float_deviation_at"] == "a: $.checks[0].residual"


def test_worst_case_over_several_cases():
    counts = compare(
        {"a": record(report(value=0.5)), "b": record(report(value=0.5))},
        {"a": record(report(value=0.75)), "b": record(report(value=1.5))})
    assert counts["max_float_deviation"] == pytest.approx(1.0)
    assert counts["max_float_deviation_at"] == "b: $.values.sigma"


def test_key_order_change_counts_as_infinite():
    rep = report(tau=1.0)
    reordered = dict(rep, values={"tau": 1.0, "sigma": rep["values"]["sigma"]})
    counts = compare({"a": record(rep, sort_keys=False)},
                     {"a": record(reordered, sort_keys=False)})
    assert counts["byte_identical"] == 0
    assert counts["max_float_deviation"] == math.inf
    assert counts["max_float_deviation_at"] == "a: $.values (keys: order)"


def test_nan_against_nan_is_no_deviation():
    counts = compare({"a": record(report(value=0.5, tau=math.nan))},
                     {"a": record(report(value=0.75, tau=math.nan))})
    assert counts["max_float_deviation"] == pytest.approx(0.25)
    assert counts["max_float_deviation_at"] == "a: $.values.sigma"


def test_nan_against_a_number_is_infinite():
    counts = compare({"a": record(report(tau=math.nan))},
                     {"a": record(report(tau=1.0))})
    assert counts["max_float_deviation"] == math.inf
    assert counts["max_float_deviation_at"] == "a: $.values.tau"


def test_differing_cases_are_counted_by_path(tmp_path, capsys):
    # a value dropped on purpose from two reports, a float moved in a
    # third, and an exit code changed alone in a fourth
    rep, dropped = report(flag=False), report()
    first = {name: record(rep) for name in "abcd"}
    second = {"a": record(dropped), "b": record(dropped),
              "c": record(report(value=0.75, flag=False)),
              "d": record(rep, code=1)}
    counts = compare(first, second)
    assert counts["paths"] == {"$.values (keys: -flag)": 2,
                               "$.values.sigma": 1, "(no deviation)": 1}
    code = report_matrix.main(["--compare", write(tmp_path, "a.json", first),
                               write(tmp_path, "b.json", second)])
    assert code == 1
    out = capsys.readouterr().out
    assert "$.values (keys: -flag): 2\n$.values.sigma: 1\n" in out
    assert "paths" not in out


@pytest.mark.parametrize("a, b, path", [
    ({"k": 1}, {"k": True}, "$.k"),                 # a bool for an int
    ({"k": 1.0}, {"k": 1}, "$.k"),                  # an int for a float
    ({"k": 0.5, "m": 1.0}, {"m": 1.0, "k": 0.5}, "$ (keys: order)"),
    ({"k": 1, "a": 2}, {"k": 1, "b": 2}, "$ (keys: -a, +b)"),
])
def test_a_structural_difference_is_infinite(a, b, path):
    assert deviation(a, b) == (math.inf, path)


def write(tmp_path, name, records):
    path = tmp_path / name
    path.write_text(json.dumps(records))
    return str(path)


@pytest.mark.parametrize("second,code", [
    (record(report()), 0),
    (record(report(value=0.5 + 1e-13)), 0),          # within 1e-12
    (record(report(value=0.5 + 1e-11)), 1),          # a float deviation
    (record(report(passed=False)), 1),               # a verdict change
    (record(report(), code=1), 1),                   # an exit-code change
])
def test_compare_exits_1_on_a_contract_change(tmp_path, capsys, second,
                                              code):
    first = write(tmp_path, "a.json", {"a": record(report())})
    other = write(tmp_path, "b.json", {"a": second})
    assert report_matrix.main(["--compare", first, other]) == code
    assert "max_float_deviation" in capsys.readouterr().out


def test_records_that_share_no_case_exit_1(tmp_path, capsys):
    # a renamed matrix would otherwise compare nothing and pass
    first = write(tmp_path, "a.json", {"a": record(report())})
    other = write(tmp_path, "b.json", {"b": record(report())})
    assert report_matrix.main(["--compare", first, other]) == 1
    assert "cases: 0\n" in capsys.readouterr().out


def test_a_record_that_holds_a_stdout_hash_still_compares():
    # records of earlier versions of the tool hold the sha256 of stdout
    # beside it; byte-identity is judged on the stdout text alone
    rec = record(report())
    hashed = dict(rec, sha256="0" * 64)
    counts = compare({"a": hashed, "b": hashed},
                     {"a": rec, "b": record(report(value=0.75))})
    assert (counts["cases"], counts["byte_identical"]) == (2, 1)
    assert counts["max_float_deviation_at"] == "b: $.values.sigma"


def test_golden_reports_are_records_of_matrix_cases():
    # a matrix edit must not orphan the anchor
    golden = json.loads((Path(__file__).parent / "data" /
                         "golden_reports.json").read_text())
    matrix = report_matrix.cases()
    assert len(golden) == 51
    for name, rec in golden.items():
        assert matrix.get(name) == rec["argv"], name


def test_multi_chunk_slice_crosses_a_chunk_boundary():
    from accrgeo import accr
    from accrgeo.examples import sample_points
    slice_ = {name: argv for name, argv in report_matrix.cases().items()
              if argv[argv.index("--samples") + 1] != "4"}
    assert {argv[0] for argv in slice_.values()} == {
        "check", "classify", "lee", "torse", "transform", "soliton"}
    for argv in slice_.values():
        opt = dict(zip(argv[1::2], argv[2::2]))
        dim = 2 * int(opt["--n"]) + 1
        points = sample_points(dim, int(opt["--samples"]))
        order = 2 if argv[0] == "soliton" else 1     # what it evaluates
        sizes = [len(c) for c in accr.chunks(points, order)]
        assert len(sizes) >= 2 and sizes[-1] <= sizes[0]


def test_cases_cover_every_model_and_preset():
    from accrgeo.cli import PRESETS
    from accrgeo.examples import REGISTRY
    options = {}
    for argv in report_matrix.cases().values():
        opt = dict(zip(argv[1::2], argv[2::2]))
        options.setdefault(argv[0], set()).add(
            (opt["--example"], opt.get("--preset")))
    for cmd, seen in options.items():
        presets = PRESETS if cmd in ("transform", "soliton") else [None]
        assert seen >= {(m, p) for m in REGISTRY for p in presets}, cmd


def test_no_two_cases_differ_only_in_the_order_flag():
    # every command evaluates the order its report reads, so such a pair
    # would record the same report twice but for config.order
    seen = set()
    for argv in report_matrix.cases().values():
        i = argv.index("--order")
        rest = tuple(argv[:i] + argv[i + 2:])
        assert rest not in seen, argv
        seen.add(rest)
