"""Compare the speed of two source trees of accrgeo in one process.

Usage, from the root of a checkout:

    python3 tools/ab_inprocess.py BASE_SRC CHANGE_SRC [--workload W]

``BASE_SRC`` and ``CHANGE_SRC`` are ``src`` directories, each holding an
``accrgeo`` package.  Both are imported into this interpreter under their
own names (``accrgeo_base``, ``accrgeo_change``), so they share one
process, its warm caches and its CPU state: fresh processes of one and the
same tree can spread by about 20% on a shared 2-core VM, much more than
passes in one process do.

Each pair runs one pass of a workload of ``perfbench/workloads.py``
(by default ``soliton-k3``, 40 pairs, seed 7) on both trees, the side
that runs first alternating from pair to pair; both sides of a pair run
the same cases.  A pass's time is the sum of its ``cli.main`` calls,
each timed by ``run_case`` of ``perfbench/child.py``, as perfbench times
a case.  One warm-up pass of each side comes first and is not counted.
The ratio of a pair is base time over change time, so above 1 means the
change is faster.  The tool prints the median ratio, its quartiles, the
pairs the change won and the cases whose stdout or exit code differ
between the trees, then all of it as one JSON line.  BLAS and OpenMP
threads are pinned to one in this process.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from child import run_case  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_cli(src, name: str):
    """``accrgeo.cli`` of the tree ``src``, its package imported as
    ``name``."""
    init = Path(src).resolve() / "accrgeo" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, cases) -> tuple:
    """(seconds, [(exit code, stdout) per case]) of one pass."""
    runs = [run_case(cli, case) for case in cases]
    return sum(r[0] for r in runs), [r[1:3] for r in runs]


def compare(base_cli, change_cli, workload: str, seed: int,
            pairs: int) -> dict:
    ratios, differ = [], set()
    for cli in (base_cli, change_cli):
        run_pass(cli, make_pass(workload, seed, 0))
    for index in range(pairs):
        cases = make_pass(workload, seed, index)
        sides = [("base", base_cli), ("change", change_cli)]
        if index % 2:
            sides.reverse()
        timed = {side: run_pass(cli, cases) for side, cli in sides}
        ratios.append(timed["base"][0] / timed["change"][0])
        differ.update(" ".join(case.argv) for case, a, b in zip(
            cases, timed["base"][1], timed["change"][1]) if a != b)
    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else ratios * 3)
    return {"workload": workload, "seed": seed, "pairs": pairs,
            "median_ratio": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4),
            "pairs_won_by_change": sum(r > 1.0 for r in ratios),
            "reports_differ": sorted(differ)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="src directory of the base tree")
    p.add_argument("change", help="src directory of the changed tree")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   default="soliton-k3")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--pairs", type=int, default=40)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for var in THREAD_VARS:         # before the trees import numpy
        os.environ[var] = "1"
    result = compare(load_cli(args.base, "accrgeo_base"),
                     load_cli(args.change, "accrgeo_change"),
                     args.workload, args.seed, args.pairs)
    print(f"{result['workload']}: base/change pass time, median "
          f"{result['median_ratio']:.3f} (quartiles {result['q1']:.3f} .. "
          f"{result['q3']:.3f}), change won {result['pairs_won_by_change']} "
          f"of {result['pairs']} pairs; {len(result['reports_differ'])} "
          f"cases differ")
    for case in result["reports_differ"]:
        print(f"  differs: {case}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
