"""Record the CLI reports of a fixed command matrix, or compare two
records: the behavioural contract of a refactor.

Every case runs ``accrgeo.cli.main`` in-process (seed 7) and keeps its
exit code and its stdout text.  The matrix is

* check, classify, lee, torse x every model of ``examples.REGISTRY``
  x n = 1..3;
* transform and soliton x every preset of ``cli.PRESETS`` x every model
  x n = 1..3;
* transform and soliton x flat-f0, random, hypersurface-f5 x n = 1, 2
  with the triple ``OPERANDS`` in place of a preset;

all at ``--order 2`` (hence the ``-k2`` of their names) with 4 samples,
which fit one chunk of points, and a multi-chunk slice: every command on
hypersurface-f5 at n = 4, order 1, with 70 samples, which span several
chunks (at n = 4 a chunk holds at most 19 order-1 points, 4 chunks of 17
or 18, and at most 3 order-2 points for soliton, 24 chunks): 210 cases.

``tests/data/golden_reports.json`` holds 51 of the matrix's records,
kept from earlier versions; ``tests/test_reports_golden.py`` judges
them with ``compare`` against fresh records of the same cases.

Record the ``accrgeo`` found on ``PYTHONPATH``, then compare two
records:

    PYTHONPATH=src python tools/report_matrix.py --out after.json
    python tools/report_matrix.py --compare before.json after.json

CI does this for every pull request, with the base commit checked out
in a git worktree as the "before" build.

The comparison counts byte-identical reports, exit-code changes and
verdict changes (the report's or any check's ``passed``), and names the
largest float deviation, relative to max(1, |x|); a difference of keys,
their order, a length or a type (a bool for an int, an int for a float)
counts as infinite.  It also counts the differing cases by the path of
each one's largest deviation, so that a report change made on purpose
reads as one line, e.g. ``$.values (keys: -sigma_given): 73``.  It exits
1 on any exit-code or verdict change, a deviation above
``MAX_DEVIATION``, or when the records share no case.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from collections import Counter

COMMANDS = ("check", "classify", "lee", "torse", "transform", "soliton")
NS = (1, 2, 3)
COMMON = ["--seed", "7", "--json"]
MAX_DEVIATION = 1e-12
# each of c + X, c - X, c * X, c / X and X + c, X - c, X * c, X / c with a
# constant c, a chain of signs and negative exponents: every case of the
# evaluator that reads a constant operand
OPERANDS = ["--u=1 + 2 * x1 - x1 / 4 + (t - 1) ^ 2 / 3",
            "--v=0.5 - x1 * 0.25 + 1 / (x2 + 2)",
            "--w=-t ^ -2 + 1 + 3 * -(-x1) / 5"]


def cases() -> dict:
    # imported here: --compare runs without accrgeo on the import path
    from accrgeo.cli import PRESETS
    from accrgeo.examples import REGISTRY
    out = {}
    for cmd in COMMANDS:
        presets = PRESETS if cmd in ("transform", "soliton") else [None]
        for preset in presets:
            for model in REGISTRY:
                for n in NS:
                    name = "-".join(filter(None, (cmd, preset, model)))
                    out[f"{name}-n{n}-k2"] = [
                        cmd, "--example", model, "--n", str(n),
                        "--order", "2",
                        *(["--preset", preset] if preset else []),
                        "--samples", "4"]
    for cmd in ("transform", "soliton"):
        for model in ("flat-f0", "random", "hypersurface-f5"):
            for n in (1, 2):
                out[f"{cmd}-operands-{model}-n{n}-k2"] = [
                    cmd, "--example", model, "--n", str(n), "--order", "2",
                    *OPERANDS, "--samples", "4"]
    for cmd in COMMANDS:
        preset = ["--preset", "soliton"] if cmd in ("transform",
                                                    "soliton") else []
        out[f"{cmd}-hypersurface-f5-n4-k1-s70"] = [
            cmd, "--example", "hypersurface-f5", "--n", "4", "--order", "1",
            *preset, "--samples", "70"]
    return out


def run(argv) -> tuple:
    """Run ``accrgeo.cli.main(argv)`` in-process: its exit code and the
    text it wrote to stdout and to stderr."""
    from accrgeo.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record(matrix=None) -> dict:
    """Run the cases of ``matrix`` (name -> argv, ``cases()`` by default)
    with ``COMMON`` appended and keep each one's record."""
    out = {}
    for name, argv in (cases() if matrix is None else matrix).items():
        code, text, _ = run(argv + COMMON)
        out[name] = {"argv": argv, "exit": code, "stdout": text}
    return out


def _verdicts(report) -> list:
    if report is None:
        return []
    return [report["passed"]] + [c["passed"] for c in report["checks"]]


def deviation(a, b, path="$"):
    """(largest |a - b| / max(1, |a|) over the floats of two reports,
    its path); a structural difference counts as infinite, and a
    difference of keys names those only one side has (``-`` the first,
    ``+`` the second), or ``order`` when they differ only in order."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            only = ([f"-{k}" for k in a if k not in b]
                    + [f"+{k}" for k in b if k not in a])
            return math.inf, f"{path} (keys: {', '.join(only) or 'order'})"
        parts = [deviation(a[k], b[k], f"{path}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf, path + " (length)"
        parts = [deviation(x, y, f"{path}[{i}]")
                 for i, (x, y) in enumerate(zip(a, b))]
    elif isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return (0.0 if math.isnan(a) and math.isnan(b) else math.inf,
                    path)
        if a == b:
            return 0.0, path
        return abs(a - b) / max(1.0, abs(a)), path
    else:
        return (0.0 if a == b and type(a) is type(b) else math.inf), path
    return max(parts, key=lambda p: p[0], default=(0.0, path))


def compare(a: dict, b: dict) -> dict:
    shared = [name for name in a if name in b]
    worst, paths = (0.0, None), Counter()
    counts = {"cases": len(shared), "only_in_first": len(a) - len(shared),
              "only_in_second": len(b) - len(shared), "byte_identical": 0,
              "exit_changed": 0, "verdict_changed": 0}
    for name in shared:
        x, y = a[name], b[name]
        if x["exit"] == y["exit"] and x["stdout"] == y["stdout"]:
            counts["byte_identical"] += 1
            continue
        counts["exit_changed"] += x["exit"] != y["exit"]
        rx = json.loads(x["stdout"]) if x["stdout"] else None
        ry = json.loads(y["stdout"]) if y["stdout"] else None
        counts["verdict_changed"] += _verdicts(rx) != _verdicts(ry)
        dev, path = deviation(rx, ry)
        paths[path if dev else "(no deviation)"] += 1
        if dev and dev >= worst[0]:
            worst = (dev, f"{name}: {path}")
    counts["max_float_deviation"] = worst[0]
    counts["max_float_deviation_at"] = worst[1]
    counts["paths"] = dict(paths.most_common())
    return counts


def changed(counts: dict) -> bool:
    """Whether a comparison breaks the contract: the records share no
    case, an exit code or verdict changed, or a float moved by more than
    ``MAX_DEVIATION``."""
    return bool(not counts["cases"] or counts["exit_changed"]
                or counts["verdict_changed"]
                or counts["max_float_deviation"] > MAX_DEVIATION)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="record the matrix into this file")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two records")
    args = parser.parse_args(argv)
    if args.out:
        data = record()
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        print(f"recorded {len(data)} cases in {args.out}")
        return 0
    first, second = (json.load(open(path)) for path in args.compare)
    counts = compare(first, second)
    paths = counts.pop("paths")
    for key, value in {**counts, **paths}.items():
        print(f"{key}: {value}")
    return 1 if changed(counts) else 0


if __name__ == "__main__":
    sys.exit(main())
