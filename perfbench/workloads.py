"""Seeded command matrices of the accrgeo benchmark, with the expected
outcome recorded for every case.

A workload turns a ``random.Random`` into one *pass*: a list of
``Case`` objects, each an ``accrgeo`` argv plus the exit code and the set
of named checks expected to fail (every other check in the report is
expected to pass).  A case that deforms the structure may instead end in
the known ``jets.tminv`` defect (see ``TMINV_DEFECT``): it is then
counted apart as a defect exit, neither a wrong result nor a failed
case.  The generator draws a fresh ``--seed`` for every case, so the
seed sets the sample points and the ``random`` frames; the program
receives nothing but the argv.

This module imports only the standard library: the orchestrator uses it
without loading numpy or accrgeo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SEED_RANGE = 1_000_000


@dataclass(frozen=True)
class Case:
    argv: tuple
    points: int                 # sample points the report verifies
    expect_exit: int
    expect_failing: frozenset   # named checks expected to fail
    reason: str

    @property
    def deforms(self) -> bool:
        """Whether the case evaluates a deformed metric, where the known
        tminv defect can end it with exit 3."""
        return (self.command in ("transform", "soliton")
                and "identity" not in self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def setup_key(self) -> tuple:
        """(example, n, seed, preset, jet order) the case builds."""
        opts = dict(zip(self.argv[1::2], self.argv[2::2]))
        order = int(opts.get("--order", 2))
        order = max(2, order) if self.command == "soliton" else max(1, order)
        return (opts["--example"], int(opts["--n"]), int(opts["--seed"]),
                opts.get("--preset"), order)


PASS = (0, frozenset(), "")

# Expected outcomes that are not a plain pass, with the reason for each.
TORSE_RANDOM = (1, frozenset({"torse_fit", "dk_identity"}),
                "the Reeb field of a random frame is not torse-forming")
# Known defect: the |det| < 1e-12 * max|g|^d test in jets.tminv is not
# scale-invariant, so a well-conditioned deformed metric of large scale
# is reported as singular (exit 3, "below threshold").  Whether a sample
# point trips it depends on the seed: at the parent commit, transform
# --preset soliton at n=3 exits 3 for about 3 seeds in 4 on random and
# flat-f0, and for about 1 in 150 on hypersurface-f5.
TMINV_DEFECT = "below threshold"
HYPERSURFACE_N3 = (1, frozenset({"soliton", "tau_constancy"}),
                   "build_hypersurface: constancy of the deformed scalar "
                   "curvature holds only for n <= 2")
NEGATIVE = {
    "negative-du": (1, frozenset({"soliton", "tau_constancy", "killing",
                                  "is_F1", "lee_theta_star", "cond:du_xi"}),
                    "negative control: du(xi) no longer cancels f/k"),
    "negative-dv": (1, frozenset({"soliton", "tau_constancy", "killing",
                                  "is_F1", "cond:dv_xi"}),
                    "negative control: dv(xi) != 0"),
    "negative-dw": (1, frozenset({"soliton", "tau_constancy", "killing",
                                  "is_F1", "omega_bar", "cond:dw_vertical"}),
                    "negative control: dw is not vertical"),
}
HOLOMORPHIC_FLAT_N3 = (1, frozenset({"soliton", "tau_constancy"}),
                       "the holomorphic pair rescales every horizontal pair "
                       "by a factor of w1 alone, so for n=3 the deformed "
                       "scalar curvature is not constant")
SOLITON_RANDOM = (1, frozenset({"soliton", "killing", "is_F1", "lee_theta",
                                "lee_theta_star", "omega_bar"}),
                  "the soliton triple is built for hypersurface-f5; on a "
                  "random frame the deformed Reeb field is not Killing")


def _case(rng, cmd, example, n, extra, points, outcome) -> Case:
    argv = (cmd, "--example", example, "--n", str(n),
            "--seed", str(rng.randrange(SEED_RANGE))) + tuple(extra)
    code, failing, reason = outcome
    return Case(argv + ("--json",), points, code, failing, reason)


def sweep_k1(rng: random.Random) -> list:
    out = []
    for cmd in ("check", "classify", "lee", "torse", "transform"):
        for example in ("hypersurface-f5", "random", "flat-f0"):
            for n in (1, 2, 3):
                extra = ["--order", "1", "--samples", "32"]
                outcome = PASS
                if cmd == "torse" and example == "random":
                    outcome = TORSE_RANDOM
                if cmd == "transform":
                    extra += ["--preset", "soliton"]
                out.append(_case(rng, cmd, example, n, extra, 32, outcome))
    return out


def soliton_k3(rng: random.Random) -> list:
    out = []
    for n in (2, 3):
        for preset in ("soliton", "negative-du", "negative-dv",
                       "negative-dw"):
            if preset != "soliton":
                outcome = NEGATIVE[preset]
            elif n == 3:
                outcome = HYPERSURFACE_N3
            else:
                outcome = PASS
            extra = ["--order", "3", "--samples", "16", "--preset", preset]
            out.append(_case(rng, "soliton", "hypersurface-f5", n, extra, 16,
                             outcome))
    return out


def curvature_k3(rng: random.Random) -> list:
    out = []
    for _ in range(3):
        for preset in ("holomorphic", "identity"):
            outcome = HOLOMORPHIC_FLAT_N3 if preset == "holomorphic" else PASS
            extra = ["--order", "3", "--samples", "16", "--preset", preset]
            out.append(_case(rng, "soliton", "flat-f0", 3, extra, 16,
                             outcome))
    return out


def single_point(rng: random.Random) -> list:
    out = []
    for _ in range(5):
        for cmd in ("check", "classify", "torse", "transform", "soliton"):
            for example in ("hypersurface-f5", "random"):
                for n in (1, 2):
                    extra = ["--samples", "1"]
                    outcome = PASS
                    if cmd in ("transform", "soliton"):
                        extra += ["--preset", "soliton"]
                    if example == "random" and cmd == "torse":
                        outcome = TORSE_RANDOM
                    if example == "random" and cmd == "soliton":
                        outcome = SOLITON_RANDOM
                    out.append(_case(rng, cmd, example, n, extra, 1,
                                     outcome))
    return out


WORKLOADS = {
    "sweep-k1": sweep_k1,
    "soliton-k3": soliton_k3,
    "curvature-k3": curvature_k3,
    "single-point": single_point,
}


def make_pass(workload: str, seed: int, index: int) -> list:
    """Case list of pass ``index`` of a run with ``seed``; the same
    arguments always give the same cases."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{index}"))
