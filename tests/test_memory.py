"""Memory of a report is bounded by one chunk of sample points: every
command reduces a chunk to per-point arrays before it evaluates the next
(see :func:`accrgeo.accr.chunks`), so runs that differ only in their number
of full chunks peak alike; and the chunk budget charges a point what it
takes, so a chunk's peak stays within the budget."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from accrgeo import accr
from accrgeo import expr as ex
from accrgeo.cli import MAX_SAMPLES, main
from accrgeo.jets import jet_space


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


# the jet order each command evaluates (curvature from order 2), and the
# full chunks of the large run: 13 for check; 4 for lee, whose report
# keeps a record per sample (from about 600 samples its report outgrows
# the chunk); 16 for soliton, which keeps copies of what its
# sigma-dependent residuals read until sigma is known
EVALUATED = {"check": (1, 13), "lee": (1, 4), "soliton": (2, 16)}


@pytest.mark.parametrize("argv", [
    ["check", "--n", "3"],
    ["lee", "--n", "3"],
    ["soliton", "--n", "2", "--preset", "soliton"],
])
def test_peak_memory_is_flat_in_the_sample_count(argv):
    order, chunks = EVALUATED[argv[0]]
    size = accr.CHUNK_BYTES // accr.point_bytes(2 * int(argv[2]) + 1, order)
    assert chunks * size <= MAX_SAMPLES
    argv = argv + ["--example", "hypersurface-f5"]
    run_quietly(argv + ["--samples", "1"])    # warm the jet-space caches
    small = peak_bytes(argv + ["--samples", str(2 * size)])
    large = peak_bytes(argv + ["--samples", str(chunks * size)])
    assert large <= 1.25 * small, (small, large)


# the commands evaluated at each jet order
AT_ORDER = {1: [["check"], ["classify"], ["lee"], ["torse"],
                ["transform", "--preset", "soliton"]],
            2: [["soliton", "--preset", "soliton"]]}


def growth_per_point(monkeypatch, argv, dim: int, order: int,
                     samples: int) -> float:
    """tracemalloc peak growth per point from 16 chunks of the samples to
    one chunk of them all."""
    peaks = []
    for size in (samples // 16, samples):
        monkeypatch.setattr(accr, "CHUNK_BYTES",
                            size * accr.point_bytes(dim, order))
        peaks.append(peak_bytes(argv + ["--samples", str(samples)]))
    return (peaks[1] - peaks[0]) / (samples - samples // 16)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_point_bytes_is_safe_and_at_most_twice_the_growth(monkeypatch,
                                                          order, n):
    # embedded-sphere grows the most of the four models, up to 8% more at
    # order 2; at n = 1 the growth of 16 points is below tracemalloc's
    # noise, so it is measured over 256
    dim, samples = 2 * n + 1, 256 if n == 1 else 64
    charge = accr.point_bytes(dim, order)
    growth = {}
    for cmd in AT_ORDER[order]:
        argv = [*cmd, "--example", "embedded-sphere", "--n", str(n)]
        run_quietly(argv + ["--samples", "1"])    # warm the caches
        growth[cmd[0]] = growth_per_point(monkeypatch, argv, dim, order,
                                          samples)
    assert 0.5 * charge <= max(growth.values()) <= charge, (charge, growth)


def test_soliton_keeps_under_1_kb_a_sample_until_sigma_is_known():
    # the sigma-dependent residuals read about 0.5 KB a sample at n = 2
    # (copies of tau, L_xi gbar, gbar, etabar and dw o phi^2); joined
    # into sample-sized arrays they would take twice that
    argv = ["soliton", "--example", "hypersurface-f5", "--n", "2",
            "--preset", "soliton"]
    size = accr.CHUNK_BYTES // accr.point_bytes(5, 2)
    run_quietly(argv + ["--samples", "1"])    # warm the caches
    small = peak_bytes(argv + ["--samples", str(2 * size)])
    large = peak_bytes(argv + ["--samples", str(MAX_SAMPLES)])
    assert (large - small) / (MAX_SAMPLES - 2 * size) < 1000, (small, large)


def test_evaluation_leaves_no_allocation_behind():
    # what evaluation leaves allocated does not grow with the evaluations
    # run (positional class patterns did, on CPython 3.11: see expr)
    tree = ex.parse("sin(x * y) + exp(2 * z) / (1 + x ^ 2) - y * z ^ 3")
    space = jet_space(3, 2)
    bindings = {v: np.full((space.ncoeff, 4), 0.1) for v in "xyz"}
    ex.eval_jets(space, [tree], bindings)     # warm the caches
    left = []
    tracemalloc.start()
    try:
        for _ in range(4):
            for _ in range(25):
                ex.eval_jets(space, [tree], bindings)
            left.append(sum(t.size for t in tracemalloc.take_snapshot()
                            .filter_traces([tracemalloc.Filter(
                                True, ex.__file__)]).traces))
    finally:
        tracemalloc.stop()
    assert left[-1] <= left[0], left
