"""What the accrgeo benchmark measures, and why.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/run.py --write-benchmark-json``); the self-test
checks that the two agree.  The third field of ``PER_LAYER`` stays here,
as ``BENCHMARK.json`` has no key for it: it records, before any
optimisation, which end-to-end metric each per-layer metric should move
and on which workload.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

# The benchmark's workloads.  workloads.py also defines curvature-k3
# (soliton on the flat model at n=3, order 3, where tmul, tminv and
# riemann dominate), which run.py runs by hand but the benchmark does not:
# at 40 s a run, the total time allowed for comparing two versions holds
# three workloads, and 30 s runs of four spread too much on a shared
# machine.
WORKLOADS = {
    "sweep-k1": "check/classify/lee/torse/transform over three models and "
                "n=1..3 at order 1: expr tree-walk and accr checks dominate; "
                "control for jets/geometry kernel changes",
    "soliton-k3": "the paper's soliton construction and its three negative "
                  "controls at order 3, n=2,3: expr, jets, geometry and the "
                  "transform re-evaluation are all heavy",
    "single-point": "one-sample reports of five commands: per-report fixed "
                    "costs (argparse, provider build, JSON) dominate",
}

# name -> (unit, better, bound)
END_TO_END = {
    "points_per_s": ("1/s", "higher", 0.25),
    "case_ms.p50": ("ms", "lower", 0.25),
    "case_ms.p90": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, [(end-to-end metric, workload), ...])
PER_LAYER = {}


def _layer(names, unit, better, moves):
    for name in names:
        PER_LAYER[name] = (unit, better, moves)


_EXPR = [("points_per_s", "sweep-k1"), ("points_per_s", "soliton-k3")]
_JETS = [("points_per_s", "curvature-k3"), ("case_ms.p90", "curvature-k3"),
         ("points_per_s", "soliton-k3"), ("case_ms.p90", "soliton-k3"),
         ("peak_rss_mb", "curvature-k3")]
_GEOMETRY = [("points_per_s", "curvature-k3"), ("points_per_s", "soliton-k3")]
_ACCR = [("points_per_s", "sweep-k1")]
_TRANSFORM = [("points_per_s", "soliton-k3"), ("points_per_s", "sweep-k1")]
_CLI = [("case_ms.p50", "single-point")]

_layer(["expr.eval_jet.s"], "s", "lower", _EXPR)
_layer(["expr.eval_jet.calls", "expr.nodes"], "count", "lower", _EXPR)
_layer(["expr.useful_ratio"], "ratio", "higher", _EXPR)
_layer(["jets.tmul.s"], "s", "lower", _JETS)
_layer(["jets.tmul.calls"], "count", "lower", _JETS)
_layer(["jets.tmul.bytes"], "bytes", "lower", _JETS)
_layer(["jets.tminv.self_s"], "s", "lower", _JETS)
_layer(["jets.tminv.calls"], "count", "lower", _JETS)
_layer(["jets.tscale.s", "jets.tgrad.s"], "s", "lower", _JETS)
_layer(["geometry.eval_expr_table.self_s", "geometry.from_metric.self_s",
        "geometry.christoffels.self_s", "geometry.riemann.self_s",
        "geometry.cov_deriv.self_s"], "s", "lower", _GEOMETRY)
_layer(["accr.structure_at.self_s", "accr.structure_eval.self_s",
        "accr.checks.s"], "s", "lower", _ACCR)
_layer(["transform.structure_at.self_s", "transform.triple_jets.s",
        "transform.laws.s", "transform.yamabe_check.self_s"], "s", "lower",
       _TRANSFORM)
_layer(["transform.base_evals_per_point",
        "transform.triple_evals_per_point"], "1/point", "lower", _TRANSFORM)
_layer(["cli.parse.s", "cli.command.self_s", "cli.report.s",
        "examples.build.s"], "s", "lower", _CLI)
_layer(["trace.overhead"], "ratio", "lower", [])

# Trace metrics that must repeat exactly for the same seed.
EXACT_COUNTS = (
    "expr.eval_jet.calls", "expr.nodes", "expr.useful_ratio",
    "jets.tmul.calls", "jets.tmul.bytes", "jets.tminv.calls",
    "transform.base_evals_per_point", "transform.triple_evals_per_point",
)


def benchmark_json() -> str:
    """The text of BENCHMARK.json."""
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": k, "unit": u, "better": b, "bound": bound}
                       for k, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": k, "unit": u, "better": b}
                      for k, (u, b, _) in PER_LAYER.items()],
    }
    return json.dumps(doc, indent=2) + "\n"
