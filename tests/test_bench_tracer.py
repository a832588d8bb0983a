"""The benchmark's tracer against the current source: every name it
wraps must still exist, and a traced report evaluates the base structure
and the (u, v, w) triple exactly once at every sample point, chunk by
chunk."""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402

from accrgeo import accr, transform  # noqa: E402
from accrgeo.cli import main  # noqa: E402
from accrgeo.examples import sample_points  # noqa: E402


def test_tracer_installs_and_uninstalls():
    original = transform.TransformedStructure.structure_at
    tracer = Tracer()
    tracer.install()
    try:
        assert transform.TransformedStructure.structure_at is not original
    finally:
        tracer.uninstall()
    assert transform.TransformedStructure.structure_at is original


def test_one_base_and_triple_evaluation_per_point():
    # the tracer counts calls, and one call now covers a chunk of points:
    # the points each call receives are counted by wrappers of our own.
    # transform evaluates order-1 jets and soliton order-2 jets (with
    # curvature); each run spans two chunks at the order it evaluates.
    n, seed = 2, 3
    dim = 2 * n + 1
    seen = {"base": [], "triple": []}
    originals = {"base": accr.ChartStructure.structure_at,
                 "triple": transform.TransformTriple.jets}

    def base(self, pts, order):
        seen["base"].append(np.array(pts))
        return originals["base"](self, pts, order)

    def triple(self, provider, pts, order):
        seen["triple"].append(np.array(pts))
        return originals["triple"](self, provider, pts, order)

    accr.ChartStructure.structure_at = base
    transform.TransformTriple.jets = triple
    tracer = Tracer()
    tracer.install()
    calls = total = 0
    try:
        for cmd, order in (("transform", 1), ("soliton", 2)):
            samples = accr.CHUNK_BYTES // accr.point_bytes(dim, order) + 3
            seen["base"].clear()
            seen["triple"].clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([cmd, "--example", "hypersurface-f5", "--n",
                             str(n), "--samples", str(samples), "--seed",
                             str(seed), "--preset", "soliton", "--json"])
            assert code == 0
            tracer.end_case(cmd, samples, True)
            points = sample_points(dim, samples, seed=seed)
            chunks = accr.chunks(points, order)
            assert len(chunks) == 2
            calls += len(chunks)
            total += samples
            for got in seen.values():
                # one call per chunk, and every point exactly once, in order
                assert [len(c) for c in got] == [len(c) for c in chunks]
                assert np.array_equal(np.concatenate(got), points)
    finally:
        tracer.uninstall()
        accr.ChartStructure.structure_at = originals["base"]
        transform.TransformTriple.jets = originals["triple"]
    # the tracer's per-point counters read calls per point: 1 per chunk
    layers = tracer.metrics()
    assert layers["transform.base_evals_per_point"] == calls / total
    assert layers["transform.triple_evals_per_point"] == calls / total
