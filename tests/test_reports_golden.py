"""Golden reports: a committed subset of the report matrix
(``tools/report_matrix.py``), 51 of its cases in its record format.

Each case records itself fresh and is judged against its stored record
by the matrix's own comparison: exit codes and verdicts must match, and
so must keys, their order, check names and value types; floats must
agree within ``report_matrix.MAX_DEVIATION`` relative to max(1, |x|).
The stored reports are older than the current code, so they bound the
drift accumulated over every change since they were recorded.

Regenerate the data (only for an intentional, documented report change)
with ``PYTHONPATH=src:tools python tests/test_reports_golden.py``.
"""

import json
from pathlib import Path

import pytest

import report_matrix

DATA = Path(__file__).parent / "data" / "golden_reports.json"
GOLDEN = json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name):
    fresh = report_matrix.record({name: GOLDEN[name]["argv"]})
    counts = report_matrix.compare({name: GOLDEN[name]}, fresh)
    assert not report_matrix.changed(counts), "; ".join(
        f"{key}: {value}" for key, value in counts.items())


if __name__ == "__main__":
    data = report_matrix.record({name: rec["argv"]
                                 for name, rec in GOLDEN.items()})
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data)} cases to {DATA}")
