"""Workload process of the accrgeo benchmark.

Started by ``run.py``, one at a time, with BLAS/OpenMP threads pinned to
one and ``src`` of the checkout first on the import path.  It drives
``accrgeo.cli.main(argv)`` in-process, checks every report against the
expectation recorded with its case, and prints one JSON line.

Modes:

* ``setup``: import ``accrgeo.cli``, build the providers and triples of
  the workload's first pass and fill the ``jet_space`` tables; report the
  time taken.
* ``run``: set up, then time whole passes of the workload with tracing
  off until ``--seconds`` would be exceeded; report every case's latency
  and the sample points it verified, pass by pass.
* ``trace``: set up, then alternate an untraced and a traced run of the
  first pass until ``--seconds`` would be exceeded; report per-layer
  times and counts, the tracing overhead, and whether every report was
  byte-identical with tracing on and off.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spec import EXACT_COUNTS
from workloads import TMINV_DEFECT, make_pass

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, seed: int):
    """Import the program and build what the workload's cases use.
    Returns (cli module, seconds taken)."""
    t0 = perf_counter()
    import accrgeo
    from accrgeo import cli, examples, jets
    src = (ROOT / "src").resolve()
    if src not in Path(accrgeo.__file__).resolve().parents:
        raise RuntimeError(f"accrgeo imported from {accrgeo.__file__}, "
                           f"not from the checkout's src")
    for case in make_pass(workload, seed, 0):
        example, n, case_seed, preset, order = case.setup_key
        examples.get_example(example, n=n, seed=case_seed)
        if preset:
            cli.PRESETS[preset](n)
        jets.jet_space(2 * n + 1, order)
    return cli, perf_counter() - t0


def run_case(cli, case):
    """One ``main(argv)`` call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(case.argv))
        except Exception as exc:       # a traceback is a program fault
            code = f"exception {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    return dt, code, out.getvalue(), err.getvalue()


def judge(case, code, text, err):
    """(failed, defect, mismatch detail or None) of one finished case.

    A case fails when it departs from its expectation: a wrong exit code,
    a wrong set of failing checks, a traceback, or exit 2 or 3.  The one
    exception is the known tminv defect on a deformed metric (exit 3,
    "below threshold", no report): it is counted apart as ``defect`` and
    printed with every run, not counted as failed, so that ``failed``
    counts only outcomes that contradict the recorded expectation."""
    defect = (code == 3 and case.deforms and TMINV_DEFECT in err
              and not text)
    detail = None
    if defect:
        pass
    elif code != case.expect_exit:
        detail = f"exit {code}, expected {case.expect_exit}"
    elif code in (0, 1):
        try:
            report = json.loads(text)
            failing = {c["name"] for c in report["checks"] if not c["passed"]}
            passed = report["passed"]
        except (ValueError, KeyError, TypeError) as exc:
            detail = f"unreadable report: {exc}"
        else:
            if failing != case.expect_failing:
                detail = (f"failing checks {sorted(failing)}, expected "
                          f"{sorted(case.expect_failing)}")
            elif passed != (code == 0):
                detail = f"report passed={passed} with exit {code}"
    elif text:
        detail = f"exit {code} printed a report"
    failed = detail is not None or (code not in (0, 1) and not defect)
    if detail is not None:
        why = f" ({case.reason})" if case.reason else ""
        detail = f"{' '.join(case.argv)}: {detail}{why}"
    return failed, defect, detail


def run_e2e(cli, workload, seed, seconds):
    passes, failed, defect, mismatches = [], 0, 0, []
    t_start = perf_counter()
    while True:
        latencies, points = [], []
        for case in make_pass(workload, seed, len(passes)):
            dt, code, text, err = run_case(cli, case)
            latencies.append(dt)
            points.append(case.points if code in (0, 1) else 0)
            bad, hit, detail = judge(case, code, text, err)
            failed += bad
            defect += hit
            if detail:
                mismatches.append(detail)
        passes.append({"latencies_s": latencies, "points": points})
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / len(passes) > seconds:
            break
    return {"passes": passes, "failed": failed, "defect": defect,
            "mismatches": mismatches}


def run_trace(cli, workload, seed, seconds):
    from tracer import Tracer
    tracer = Tracer()
    cases = make_pass(workload, seed, 0)
    walls = {"untraced": [], "traced": []}
    layer_runs, mismatches, differ = [], [], []
    attempted = failed = 0
    t_start = perf_counter()
    while True:
        plain = [run_case(cli, case) for case in cases]
        walls["untraced"].append(sum(r[0] for r in plain))
        tracer.reset()
        tracer.install()
        try:
            traced = []
            for case in cases:
                traced.append(run_case(cli, case))
                tracer.end_case(case.command, case.points,
                                traced[-1][1] in (0, 1))
        finally:
            tracer.uninstall()
        walls["traced"].append(sum(r[0] for r in traced))
        layer_runs.append(tracer.metrics())
        for case, a, b in zip(cases, plain, traced):
            for _, code, text, err in (a, b):
                bad, _, detail = judge(case, code, text, err)
                attempted += 1
                failed += bad
                if detail:
                    mismatches.append(detail)
            if a[1:] != b[1:]:
                differ.append(" ".join(case.argv))
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / len(layer_runs) > seconds:
            break
    first = layer_runs[0]
    unstable = [k for k in EXACT_COUNTS
                if any(r[k] != first[k] for r in layer_runs)]
    layers = {k: (first[k] if k in EXACT_COUNTS else
                  statistics.median(r[k] for r in layer_runs))
              for k in first}
    layers["trace.overhead"] = (statistics.median(walls["traced"])
                                / statistics.median(walls["untraced"]))
    return {"layers": layers, "repeats": len(layer_runs),
            "attempted": attempted, "failed": failed,
            "mismatches": mismatches, "reports_differ": differ,
            "counts_unstable": unstable}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace"),
                   required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    args = p.parse_args(argv)
    cli, setup_s = setup(args.workload, args.seed)
    result = {"setup_s": setup_s}
    if args.mode == "run":
        result.update(run_e2e(cli, args.workload, args.seed, args.seconds))
    elif args.mode == "trace":
        result.update(run_trace(cli, args.workload, args.seed, args.seconds))
    import numpy
    result["numpy"] = numpy.__version__
    result["python"] = sys.version.split()[0]
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    print(json.dumps(result), file=sys.__stdout__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
