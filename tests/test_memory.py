"""Memory of a report is bounded by one chunk of sample points: every
command reduces a chunk to per-point arrays before it evaluates the next
(see :func:`accrgeo.accr.chunks`), so runs that differ only in their number
of full chunks peak alike."""

import contextlib
import io
import tracemalloc

import pytest

from accrgeo import accr
from accrgeo.cli import MAX_SAMPLES, main
from accrgeo.examples import sample_points


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv + ["--json"])


def peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        run_quietly(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the jet order each command evaluates, whatever --order says (curvature
# from order 2), and the full chunks of the large run: as many as MAX_SAMPLES
# holds for check; 4 for lee, whose report keeps a record per sample (from
# 8 chunks, about 600 samples, its report outgrows the chunk); 8 for
# soliton, which keeps value matrices per point until sigma is known
# (about 1.4 KB a point)
EVALUATED = {"check": (1, 13), "lee": (1, 4), "soliton": (2, 8)}


@pytest.mark.parametrize("argv", [
    ["check", "--n", "3"],
    ["lee", "--n", "3"],
    ["soliton", "--n", "2", "--preset", "soliton"],
])
def test_peak_memory_is_flat_in_the_sample_count(argv):
    order, chunks = EVALUATED[argv[0]]
    size = len(accr.chunks(sample_points(2 * int(argv[2]) + 1, MAX_SAMPLES),
                           order)[0])
    assert chunks * size <= MAX_SAMPLES
    argv = argv + ["--example", "hypersurface-f5", "--order", "3"]
    run_quietly(argv + ["--samples", "1"])    # warm the jet-space caches
    small = peak_bytes(argv + ["--samples", str(2 * size)])
    large = peak_bytes(argv + ["--samples", str(chunks * size)])
    assert large <= 1.25 * small, (small, large)
