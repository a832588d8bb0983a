"""Golden JSON reports of a fixed command matrix.

Every case runs ``accrgeo.cli.main`` in-process and is compared with the
report stored in ``tests/data/golden_reports.json``: exit codes, keys,
check names and order, and verdicts must match exactly; floats must
agree within 1e-12 * max(1, |x|).

Regenerate the data (only for an intentional, documented report change)
with ``PYTHONPATH=src python tests/test_reports_golden.py``.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from accrgeo.cli import main

DATA = Path(__file__).parent / "data" / "golden_reports.json"
REL = 1e-12


def golden_cases() -> dict:
    cases = {}
    commands = {
        "check": [], "classify": [], "lee": [], "torse": [],
        "transform": ["--preset", "soliton"],
        "soliton": ["--preset", "soliton"],
    }
    for cmd, extra in commands.items():
        for example in ("hypersurface-f5", "random", "flat-f0",
                        "embedded-sphere"):
            for n in (1, 2):
                argv = [cmd, "--example", example, "--n", str(n),
                        "--samples", "4", "--seed", "7", *extra]
                cases[f"{cmd}-{example}-n{n}"] = argv
    for preset in ("negative-du", "negative-dv", "negative-dw"):
        cases[f"soliton-k3-{preset}-n2"] = [
            "soliton", "--example", "hypersurface-f5", "--n", "2",
            "--order", "3", "--samples", "4", "--seed", "7",
            "--preset", preset]
    return cases


def run_case(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    text = out.getvalue()
    return {"argv": argv, "exit": code,
            "report": json.loads(text) if text else None}


def assert_same(got, want, path="$"):
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, int):
        assert type(got) is int and got == want, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        if math.isnan(want):
            assert math.isnan(got), f"{path}: {got!r} != nan"
        else:
            assert abs(got - want) <= REL * max(1.0, abs(want)), \
                f"{path}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), \
            f"{path}: keys {list(got)} != {list(want)}"
        for k in want:
            assert_same(got[k], want[k], f"{path}.{k}")
    else:
        raise TypeError(f"{path}: unexpected golden value {want!r}")


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_report_matches_golden(name):
    assert name in GOLDEN, f"no golden report for {name}"
    assert_same(run_case(golden_cases()[name]), GOLDEN[name])


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    data = {name: run_case(argv) for name, argv in golden_cases().items()}
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data)} cases to {DATA}")
