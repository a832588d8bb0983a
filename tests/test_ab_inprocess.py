"""tools/ab_inprocess.py on one tree against itself: the two copies load
under their own names, run the same cases and print the same reports."""

import json
import sys
from pathlib import Path

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
