"""tools/ab_inprocess.py on one tree against itself: the two copies load
under their own names, run the same cases and print the same reports."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ab_inprocess

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def isolated(monkeypatch):
    """Thread variables restored and the two copies unloaded after the
    test."""
    for var in ab_inprocess.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    yield
    for name in list(sys.modules):
        if name.split(".")[0] in ("accrgeo_base", "accrgeo_change"):
            del sys.modules[name]


def test_a_tree_against_itself(capsys, isolated):
    assert ab_inprocess.main([str(SRC), str(SRC), "--workload",
                              "soliton-k3", "--pairs", "3"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    base, change = (sys.modules[f"accrgeo_{side}.cli"]
                    for side in ("base", "change"))
    assert base is not change and base.main is not change.main
    assert result["pairs"] == 3 and result["reports_differ"] == []
    assert 0 < result["q1"] <= result["median_ratio"] <= result["q3"]
    assert 0 <= result["pairs_won_by_change"] <= 3
    for side in ("base", "change"):
        m = result[side]
        assert 0 < m["case_ms.p50"] <= m["case_ms.p90"]
        # 8 cases of 16 points, 4 of them at least as slow as p50
        assert 0 < m["points_per_s"] <= 8 * 16 / (
            4 * m["case_ms.p50"] / 1000.0)


def test_sustained_metrics_as_perfbench_computes_them():
    # three cases over ten passes: latencies 1..10 ms, 2..20 ms and one
    # that exits 3 in every pass but the first (its one report, 5 ms)
    cases = [SimpleNamespace(points=p) for p in (4, 8, 16)]
    passes = [[(0.001 * i, 0, ""), (0.002 * i, 1, ""),
               (0.005 if i == 1 else 0.1, 0 if i == 1 else 3, "")]
              for i in range(1, 11)]
    m = ab_inprocess.sustained_metrics(passes, cases)
    sustained = [9.1, 18.2, 5.0]      # the 90th percentiles, inclusive
    assert m["case_ms.p50"] == 9.1
    assert m["case_ms.p90"] == pytest.approx(9.1 + 0.8 * 9.1, abs=1e-3)
    assert m["points_per_s"] == pytest.approx(
        28 / (sum(sustained) / 1000.0), abs=0.1)
