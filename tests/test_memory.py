"""Memory of a report does not grow with the sample count: every command
reduces a sample point to its residuals before it evaluates the next,
so no list of per-point structure evaluations is ever held."""

import contextlib
import io
import tracemalloc

import pytest

from accrgeo.cli import main


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


@pytest.mark.parametrize("argv", [
    ["check", "--n", "3", "--order", "3"],
    ["lee", "--n", "3", "--order", "3"],
    ["soliton", "--n", "2", "--order", "3", "--preset", "soliton"],
])
def test_peak_memory_is_flat_in_the_sample_count(argv):
    argv = argv + ["--example", "hypersurface-f5"]
    run_quietly(argv + ["--samples", "1"])    # warm the jet-space caches
    small = peak_bytes(argv + ["--samples", "2"])
    large = peak_bytes(argv + ["--samples", "16"])
    assert large <= 1.25 * small, (small, large)
