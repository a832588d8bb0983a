"""accrgeo benchmark: end-to-end and per-layer metrics of the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-k1 --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-benchmark-json

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Every workload process is started from here, one at
a time, with BLAS/OpenMP threads pinned to one in that process only; this
process imports neither numpy nor accrgeo.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import workloads
from spec import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_REPEATS = 6          # fresh set-up processes besides the timed one
RUN_LIMIT_S = 170          # wall-clock limit of one workload's processes
MAX_LISTED = 20            # mismatching cases printed in full
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode, workload, seed, seconds, deadline) -> dict:
    """Run one workload process to completion; it is killed and waited
    for if it is still running at ``deadline`` (a time.monotonic value)."""
    cmd = [sys.executable, str(CHILD), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} timed out") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} process for {workload} exited "
                         f"{proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def sustained_latency(xs):
    """The latency a case stays within in nine passes out of ten."""
    return xs[0] if len(xs) == 1 else statistics.quantiles(
        xs, n=10, method="inclusive")[8]


def e2e(workload, seed, seconds) -> tuple[dict, dict, dict]:
    """End-to-end metrics.  A pass is one run of the workload's whole
    command matrix, and each case of the matrix is timed once per pass.
    Only calls that finish a report are timed samples: an exit in the
    known tminv defect ends early, after a seed-dependent share of the
    work, and produces no report.  A case's *sustained* latency is the
    90th percentile of its samples over the run's passes.  On a shared
    machine whose speed alternates between a steady floor and faster
    bursts that last seconds to minutes, a high percentile lands on the
    floor: on 30 s windows of a 2-core shared VM it gave about half the
    window-to-window spread of the median.  ``case_ms.p50`` and
    ``case_ms.p90`` are quantiles of the sustained latencies over the
    matrix's cases; ``points_per_s`` is the points those cases verify over
    the sum of their sustained latencies."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [run_child("setup", workload, seed, seconds, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    r = run_child("run", workload, seed, seconds, deadline)
    setups.append(r["setup_s"])
    passes = r["passes"]
    sustained, points = [], 0
    for lat, pts in zip(zip(*(p["latencies_s"] for p in passes)),
                        zip(*(p["points"] for p in passes))):
        done = [t * 1000.0 for t, n in zip(lat, pts) if n]
        if done:
            sustained.append(sustained_latency(done))
            points += max(pts)
    if len(sustained) < 2:
        raise BenchError(f"{workload}: fewer than two cases produced a "
                         "report")
    deciles = statistics.quantiles(sustained, n=10, method="inclusive")
    values = {
        "points_per_s": points / (sum(sustained) / 1000.0),
        "case_ms.p50": deciles[4],
        "case_ms.p90": deciles[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": r["peak_rss_mb"],
    }
    pooled = [t * 1000.0 for p in passes
              for t, n in zip(p["latencies_s"], p["points"]) if n]
    cases = sum(len(p["points"]) for p in passes)
    over = (f"sustained over n={len(passes)} passes of {len(sustained)} "
            f"cases; n={len(pooled)} timed")
    info = {
        "points_per_s": f"{over}; {points:g} points per pass",
        "case_ms.p50": over,
        "case_ms.p90": f"{over}, "
                       f"{sum(t > values['case_ms.p90'] for t in pooled)} "
                       "beyond",
        "setup_s": f"median of n={len(setups)} fresh processes",
        "peak_rss_mb": "workload process",
        "failed_frac": f"{(r['failed'] + r['defect']) / cases:.4f} "
                       f"({r['failed'] + r['defect']} of {cases} cases: "
                       f"{r['defect']} exit 3 in the known tminv defect, "
                       f"{r['failed']} against their expectation)",
    }
    run = {"attempted": cases, "failed": r["failed"],
           "mismatches": r["mismatches"], "passes": len(passes),
           "numpy": r["numpy"], "python": r["python"]}
    return values, info, run


def traced(workload, seed, seconds) -> tuple[dict, dict, dict]:
    r = run_child("trace", workload, seed, seconds,
                  time.monotonic() + RUN_LIMIT_S)
    problems = list(r["mismatches"])
    problems += [f"report differs with tracing on: {a}"
                 for a in r["reports_differ"]]
    problems += [f"count not repeated across traced passes: {k}"
                 for k in r["counts_unstable"]]
    info = {"trace.overhead": "traced / untraced wall, median of "
                              f"n={r['repeats']} pass pairs"}
    for k in EXACT_COUNTS:
        info[k] = "exact count"
    info["jets.tmul.bytes"] = "computed from operand, gather, product " \
                              "and output sizes"
    run = {"attempted": r["attempted"], "failed": r["failed"],
           "mismatches": problems, "passes": r["repeats"],
           "numpy": r["numpy"], "python": r["python"]}
    return r["layers"], info, run


def report(workload, seed, seconds, trace) -> dict:
    """Run one workload and print its metrics; returns the result line."""
    names = spec.PER_LAYER if trace else spec.END_TO_END
    values, info, run = (traced if trace else e2e)(workload, seed, seconds)
    env = dict(machine(), python=run["python"], numpy=run["numpy"])
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace} "
          f"passes={run['passes']} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {}
    for name in names:
        unit = names[name][0]
        metrics[name] = {"value": values[name], "unit": unit}
        notes = [info[name]] if name in info else []
        if trace and spec.PER_LAYER[name][2]:
            notes.append("should move " + ", ".join(
                f"{m}@{w}" for m, w in spec.PER_LAYER[name][2]))
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{workload:<13} {name:<34} {values[name]:>14.6g} {unit}{note}")
    if "failed_frac" in info:
        print(f"{workload:<13} {'failed_frac':<34} {info['failed_frac']}")
    for line in run["mismatches"][:MAX_LISTED]:
        print(f"MISMATCH {line}")
    if len(run["mismatches"]) > MAX_LISTED:
        print(f"MISMATCH ... {len(run['mismatches'])} in all")
    return {"correct": not run["mismatches"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def self_test() -> int:
    """Counts repeat exactly across two traced runs of one seed, reports
    are byte-identical with tracing on and off, every case meets its
    expectation, and BENCHMARK.json matches spec.py."""
    problems = []
    bench = ROOT / "BENCHMARK.json"
    if bench.read_text() != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from spec.benchmark_json()")
    for workload in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            layers, _, run = traced(workload, 7, 1)
            runs.append(layers)
            problems += run["mismatches"]
        for k in EXACT_COUNTS:
            if runs[0][k] != runs[1][k]:
                problems.append(f"{workload}: {k} {runs[0][k]} != "
                                f"{runs[1][k]}")
        print(f"{workload}: " + ", ".join(f"{k}={runs[0][k]}"
                                          for k in EXACT_COUNTS))
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="accrgeo benchmark")
    p.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    if not (ROOT / "src" / "accrgeo" / "cli.py").is_file():
        print(f"error: no accrgeo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            p.error("--workload is required")
        if args.workload != "all":
            result = report(args.workload, args.seed, args.seconds,
                            args.trace)
        else:
            results = {w: report(w, args.seed, args.seconds, args.trace)
                       for w in spec.WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}:{k}": v for w, r in results.items()
                            for k, v in r["metrics"].items()},
            }
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
