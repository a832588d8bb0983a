"""The benchmark's tracer against the current source: every name it
wraps must still exist, and a traced soliton report evaluates the base
structure and the (u, v, w) triple once per sample point."""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402

from accrgeo.cli import main  # noqa: E402


def test_tracer_installs_and_uninstalls():
    from accrgeo import transform
    original = transform.TransformedStructure.structure_at
    tracer = Tracer()
    tracer.install()
    try:
        assert transform.TransformedStructure.structure_at is not original
    finally:
        tracer.uninstall()
    assert transform.TransformedStructure.structure_at is original


def test_one_base_and_triple_evaluation_per_point():
    tracer = Tracer()
    tracer.install()
    try:
        for cmd in ("transform", "soliton"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([cmd, "--example", "hypersurface-f5", "--n", "1",
                             "--samples", "3", "--preset", "soliton",
                             "--json"])
            assert code == 0
            tracer.end_case(cmd, 3, True)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    assert layers["transform.base_evals_per_point"] == 1.0
    assert layers["transform.triple_evals_per_point"] == 1.0
