"""Command-line front end.

Commands: check, classify, lee, torse, transform, soliton, example.
JSON report goes to stdout; a human-readable table goes to stderr when
attached to a terminal.  Exit codes: 0 all verdicts pass, 1 verdict
failure, 2 usage/config error, 3 numeric/domain error, 141 stdout closed
before the report was written (128 + SIGPIPE, the status a shell shows
for a program that SIGPIPE ended).

The argument parser is built once, when this module is imported
(``PARSER``), and ``main`` reuses it for every call.  A shell run saves
nothing but one build, about 1 ms; a caller that runs many reports in
one process (the tests, ``tools/report_matrix.py``, ``perfbench``) saves
it on every report, about a third of a one-sample report.

Each command evaluates its jets at the order its report reads: 1, and 2
for the scalar curvature of soliton.  ``--order`` is only validated and
echoed in the report's config.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import __version__
from . import expr as ex
from .accr import (CHUNK_BYTES, TOL_CLASS, TOL_DERIVED, TOL_STRUCT,
                   AccrEval, all_of, check_axioms, class_residuals,
                   f_prop_residual, lee_identities_residual, over_chunks,
                   structure_eval, torse_forming_analyze, worst_of)
from .examples import (DEFAULT_BOX, REGISTRY, get_example, sample_points,
                       soliton_uvw, holomorphic_pair_uvw)
from .jets import JetDomainError, SingularMetricError
from .transform import (TransformTriple, TransformedStructure,
                        alpha_beta_residuals, lee_transformation_residuals,
                        metric_roundtrip_residual, yamabe_check)


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


@dataclass
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def as_dict(self):
        return {"name": self.name, "residual": float(self.residual),
                "tolerance": float(self.tolerance),
                "passed": bool(self.passed)}


@dataclass
class Report:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, tolerance: float):
        self.checks.append(Check(name, float(residual), tolerance))

    def add_all(self, residuals: dict, tolerance: float, prefix: str = ""):
        for name, residual in residuals.items():
            self.add(prefix + name, residual, tolerance)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "values": self.values,
            "passed": bool(self.passed),
        }

    def to_json(self) -> str:
        """The report as JSON text; ``ValueError`` for a value that is
        not finite, which RFC 8259 JSON cannot hold."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2,
                          allow_nan=False)

    def render_table(self) -> str:
        lines = [f"{self.command}  (accrgeo {__version__})"]
        width = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  {c.name:<{width}}  {c.residual: .3e}"
                         f"  < {c.tolerance:.1e}  {mark}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

PRESETS = {
    "identity": lambda n: TransformTriple.identity(),
    "soliton": lambda n: soliton_uvw(n),
    "negative-du": lambda n: soliton_uvw(n, ell="t"),
    "negative-dv": lambda n: _shifted(soliton_uvw(n), v=ex.Var("t")),
    "negative-dw": lambda n: _shifted(soliton_uvw(n), w=ex.Var("x1")),
    "holomorphic": lambda n: holomorphic_pair_uvw(n),
}


def _shifted(tr: TransformTriple, **shift) -> TransformTriple:
    """The triple with an expression added to some of u, v, w."""
    return replace(tr, **{k: getattr(tr, k) + e for k, e in shift.items()})


_OPTIONAL_EXPR = (str, int, float, type(None))
# every config key with the types its value may take (bool is rejected
# wherever a number is expected)
CONFIG_TYPES = {
    "example": str, "n": int, "order": int, "samples": int, "seed": int,
    "box": list, "tol": dict, "sigma": (int, float, type(None)),
    "u": _OPTIONAL_EXPR, "v": _OPTIONAL_EXPR, "w": _OPTIONAL_EXPR,
    "preset": (str, type(None)), "field": (str, type(None)),
}
# the tolerance families --tol can override, with their defaults
TOLERANCES = {"struct": TOL_STRUCT, "derived": TOL_DERIVED,
              "class": TOL_CLASS, "soliton": 1e-6}
# the largest problem admitted: one `soliton` sample (order-2 jets) takes
# 0.009 s and 38 MB at n=4 and 0.22 s and 66 MB at n=12 (best of 3, peak
# RSS of the process, 2-core VM)
MAX_N = 4
MAX_SAMPLES = 1024


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def build_config(args) -> dict:
    cfg = {
        "example": "hypersurface-f5", "n": 2, "order": 2, "samples": 16,
        "seed": 0, "box": list(DEFAULT_BOX), "tol": {}, "sigma": None,
        "u": None, "v": None, "w": None, "preset": None, "field": None,
    }
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:   # RFC 8259
                data = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}")
        except UnicodeDecodeError as err:
            raise ConfigError(f"config file is not UTF-8 text: {err}")
        except json.JSONDecodeError as err:
            raise ConfigError(
                f"malformed config file at line {err.lineno}, "
                f"column {err.colno}: {err.msg}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(data)
    for key in CONFIG_TYPES.keys() - {"box", "tol"}:    # same-named flags
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "box", None):
        try:
            parts = [float(s) for s in args.box.split(",")]
        except ValueError:
            raise ConfigError("--box expects lo,hi")
        cfg["box"] = parts
    tol_flags = {}
    for item in getattr(args, "tol", None) or []:
        if "=" not in item:
            raise ConfigError("--tol expects name=value")
        name, _, val = item.partition("=")
        try:
            tol_flags[name] = float(val)
        except ValueError:
            raise ConfigError(f"bad tolerance value {val!r}")
    for key, types in CONFIG_TYPES.items():
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], types):
            raise ConfigError(f"config value {key}={cfg[key]!r} has the "
                              f"wrong type")
    cfg["tol"] = {**cfg["tol"], **tol_flags}
    if len(cfg["box"]) != 2 or not all(map(_is_number, cfg["box"])):
        raise ConfigError("box expects two numbers lo, hi")
    for name, val in cfg["tol"].items():
        if name not in TOLERANCES:
            raise ConfigError(f"unknown tolerance family {name!r}; "
                              f"choose from {list(TOLERANCES)}")
        if not (_is_number(val) and np.isfinite(val) and val > 0):
            raise ConfigError(f"tolerance {name}={val!r} is not a finite "
                              "number > 0")
    if cfg["sigma"] is not None and not np.isfinite(cfg["sigma"]):
        raise ConfigError(f"sigma={cfg['sigma']!r} is not finite")
    if not 1 <= cfg["n"] <= MAX_N:
        raise ConfigError(f"n must be in 1..{MAX_N}")
    if cfg["order"] not in (1, 2, 3):
        raise ConfigError("order must be 1, 2 or 3")
    if not 1 <= cfg["samples"] <= MAX_SAMPLES:
        raise ConfigError(f"samples must be in 1..{MAX_SAMPLES}")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be a non-negative integer")
    lo, hi = cfg["box"]
    try:
        width = float(hi) - float(lo)
    except OverflowError:               # an integer beyond the float range
        width = np.inf
    if not (np.isfinite(width) and lo < hi):
        raise ConfigError("box bounds must be finite with lo < hi and a "
                          "finite width hi - lo")
    return cfg


def tol(cfg, name) -> float:
    return float(cfg["tol"].get(name, TOLERANCES[name]))


def make_provider(cfg):
    try:
        return get_example(cfg["example"], n=int(cfg["n"]),
                           seed=int(cfg["seed"]))
    except KeyError as err:
        raise ConfigError(str(err))


def parse_exprs(texts, coords, what: str) -> list:
    """Parse expressions once, before any point is evaluated; malformed
    text or a name that is not a chart coordinate is a usage error."""
    try:
        exprs = [ex.as_expr(t) for t in texts]
    except ex.ParseError as err:
        raise ConfigError(f"bad {what} expression: {err}")
    unbound = set().union(*map(ex.free_vars, exprs)) - set(coords)
    if unbound:
        raise ConfigError(f"unbound names {sorted(unbound)} in {what}; "
                          f"the chart coordinates are {list(coords)}")
    return exprs


def make_triple(cfg, coords) -> TransformTriple:
    if cfg["preset"]:
        if cfg["preset"] not in PRESETS:
            raise ConfigError(f"unknown preset {cfg['preset']!r}; "
                              f"choose from {sorted(PRESETS)}")
        return PRESETS[cfg["preset"]](int(cfg["n"]))
    if cfg["u"] is None and cfg["v"] is None and cfg["w"] is None:
        raise ConfigError("need --preset or a (u, v, w) triple")
    return TransformTriple(*parse_exprs(
        [cfg[k] or "0" for k in ("u", "v", "w")], coords, "transformation"))


def config_points(provider, cfg) -> np.ndarray:
    return sample_points(provider.dim, int(cfg["samples"]),
                         seed=int(cfg["seed"]), box=cfg["box"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def over_evals(provider, cfg, fn) -> dict:
    """``fn`` of the order-1 structure evaluation of each chunk of the
    samples, joined in point order."""
    return over_chunks(lambda pts: fn(structure_eval(provider, pts)),
                       config_points(provider, cfg), 1)


def records(arrays: dict) -> list:
    """Per-sample report records, in point order, from per-point arrays."""
    rows = zip(*(a.tolist() for a in arrays.values()))
    return [dict(zip(arrays, row)) for row in rows]


def cmd_check(cfg) -> Report:
    tc = tol(cfg, "class")

    def chunk(ev):
        relative, verdicts = class_residuals(ev, tol=tc)
        return {"axioms": check_axioms(ev),
                "fsym": {"f_symmetry": f_prop_residual(ev)},
                "lee": lee_identities_residual(ev),
                "norm": {"norm_F": relative["norm_F"]},
                "verdicts": verdicts}

    r = over_evals(make_provider(cfg), cfg, chunk)
    td = tol(cfg, "derived")
    rep = Report("check", cfg)
    rep.add_all(worst_of(r["axioms"]), tol(cfg, "struct"), "axiom:")
    rep.add_all(worst_of(r["fsym"]), td)
    rep.add_all(worst_of(r["lee"]), td, "lee:")
    rep.values["norm_F"] = worst_of(r["norm"])["norm_F"]
    rep.values["class_verdicts"] = all_of(r["verdicts"])
    return rep


def cmd_classify(cfg) -> Report:
    tc = tol(cfg, "class")

    def chunk(ev):
        relative, verdicts = class_residuals(ev, tol=tc)
        return {"axioms": {"axioms": np.max([*check_axioms(ev).values()],
                                            axis=0)},
                "relative": relative, "verdicts": verdicts}

    r = over_evals(make_provider(cfg), cfg, chunk)
    rep = Report("classify", cfg)
    rep.add_all(worst_of(r["axioms"]), tol(cfg, "struct"))
    rep.values["relative_residuals"] = worst_of(r["relative"])
    rep.values["verdicts"] = all_of(r["verdicts"])
    return rep


def cmd_lee(cfg) -> Report:
    r = over_evals(make_provider(cfg), cfg, lambda ev: {
        "lee": lee_identities_residual(ev),
        "samples": {"point": ev.S.point, "theta": ev.theta,
                    "theta_star": ev.theta_star, "omega": ev.omega,
                    "theta_star_xi": np.einsum("...i,...i->...",
                                               ev.theta_star, ev.xi0)}})
    rep = Report("lee", cfg)
    rep.add_all(worst_of(r["lee"]), tol(cfg, "derived"), "lee:")
    rep.values["samples"] = records(r["samples"])
    return rep


def cmd_torse(cfg) -> Report:
    provider = make_provider(cfg)
    d = provider.dim
    if cfg["field"]:
        texts = [s.strip() for s in cfg["field"].split(";")]
        if len(texts) != d:
            raise ConfigError(f"--field needs {d} components separated "
                              "by ';'")
    else:
        texts = ["0"] * (d - 1) + ["1"]       # the Reeb field
    field = ex.expr_table(parse_exprs(texts, provider.coords, "--field"),
                          (d,))

    def chunk(pts):
        res, samples = torse_forming_analyze(provider, field, pts)
        return {"res": res, "samples": samples}

    r = over_chunks(chunk, config_points(provider, cfg), 1)
    # the vertical-case identities are computed only for chunks where the
    # field is vertical, and joined only if every chunk has them; for a
    # general field verticality is reported as a value
    all_vertical = "nabla_xi" in r["res"]
    worst = worst_of(r["res"])
    rep = Report("torse", cfg)
    rep.add_all(worst if all_vertical else {
        k: worst[k] for k in ("torse_fit", "dk_identity")},
        tol(cfg, "derived"))
    rep.values["is_vertical"] = all_vertical
    rep.values["verticality"] = worst["verticality"]
    rep.values["samples"] = records(r["samples"])
    return rep


def cmd_transform(cfg) -> Report:
    provider = make_provider(cfg)
    triple = make_triple(cfg, provider.coords)
    tstruct = TransformedStructure(provider, triple)

    def chunk(pts):
        S, ev_bar, d = tstruct.evaluate(pts, 1)
        ev = AccrEval.from_jets(S)
        return {"axioms": np.max([*check_axioms(ev_bar).values()], axis=0),
                "laws": {**lee_transformation_residuals(ev, ev_bar, d),
                         **alpha_beta_residuals(d, ev, ev_bar),
                         "metric_roundtrip": metric_roundtrip_residual(
                             ev, ev_bar, d)},
                "verdicts": class_residuals(ev_bar, tol=tol(cfg, "class"))[1]}

    r = over_chunks(chunk, config_points(provider, cfg), 1)
    rep = Report("transform", cfg)
    rep.add_all(worst_of({"axioms": r["axioms"]}), tol(cfg, "struct"))
    rep.add_all(worst_of(r["laws"]), tol(cfg, "derived"))
    rep.values["triple"] = {"u": str(triple.u), "v": str(triple.v),
                            "w": str(triple.w)}
    rep.values["class_verdicts"] = all_of(r["verdicts"])
    return rep


def cmd_soliton(cfg) -> Report:
    provider = make_provider(cfg)
    triple = make_triple(cfg, provider.coords)
    tstruct = TransformedStructure(provider, triple)
    checks, values = yamabe_check(
        tstruct, config_points(provider, cfg), sigma=cfg["sigma"],
        fk=provider.fk, tol=tol(cfg, "soliton"),
        class_tol=tol(cfg, "class"))
    rep = Report("soliton", cfg)
    for name, residual in checks.items():
        rep.add(name, residual, 0.5 if name == "is_F1" else tol(
            cfg, "derived" if name.startswith("cond:") else "soliton"))
    rep.values.update(values, triple={"u": str(triple.u), "v": str(triple.v),
                                      "w": str(triple.w)})
    return rep


def cmd_example(cfg) -> Report:
    rep = Report("example", cfg)
    rep.values["examples"] = sorted(REGISTRY)
    return rep


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--example", help="registry name of the structure")
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--n", type=int, help="structure parameter n")
    common.add_argument("--order", type=int,
                        help="jet order (1-3), echoed in the report; each "
                        "command evaluates the order its checks read")
    common.add_argument("--samples", type=int, help="sample point count")
    common.add_argument("--seed", type=int, help="sampling seed")
    common.add_argument("--box", help="sample box lo,hi")
    common.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="tolerance override (repeatable)")
    common.add_argument("--json", action="store_true",
                        help="suppress the stderr table")
    triple = argparse.ArgumentParser(add_help=False)
    triple.add_argument("--preset", help="named transformation triple: "
                        + ", ".join(sorted(PRESETS)))
    triple.add_argument("--u", help="expression for u")
    triple.add_argument("--v", help="expression for v")
    triple.add_argument("--w", help="expression for w")

    parser = argparse.ArgumentParser(
        prog="accrgeo",
        description="Numerical structure checks, classification and "
                    "soliton verification for B-metric contact charts.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("check", parents=[common])
    sub.add_parser("classify", parents=[common])
    sub.add_parser("lee", parents=[common])
    pt = sub.add_parser("torse", parents=[common])
    pt.add_argument("--field", help="candidate field components joined "
                    "by ';' (default: the Reeb field)")
    sub.add_parser("transform", parents=[common, triple])
    ps = sub.add_parser("soliton", parents=[common, triple])
    ps.add_argument("--sigma", type=float, help="pin the soliton constant")
    pe = sub.add_parser("example", parents=[common])
    pe.add_argument("action", choices=["list"])
    return parser


PARSER = build_parser()

COMMANDS = {
    "check": cmd_check, "classify": cmd_classify, "lee": cmd_lee,
    "torse": cmd_torse, "transform": cmd_transform, "soliton": cmd_soliton,
    "example": cmd_example,
}


@cache
def keep_chunk_memory() -> None:
    """Have glibc's malloc serve blocks up to CHUNK_BYTES from its heap and
    keep up to twice that free there, so each chunk reuses the memory of
    the last: with the default, adaptive thresholds a soliton chunk at
    n = 3 faults its memory in anew.  Without a C library's mallopt
    there is nothing to set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    mallopt(-3, CHUNK_BYTES)                        # M_MMAP_THRESHOLD
    mallopt(-1, 2 * CHUNK_BYTES)                    # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    keep_chunk_memory()
    args = PARSER.parse_args(argv)
    try:
        cfg = build_config(args)
        rep = COMMANDS[args.cmd](cfg)
        text = rep.to_json()
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ex.EvalError, JetDomainError, SingularMetricError,
            np.linalg.LinAlgError, FloatingPointError, OverflowError,
            ValueError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    try:
        if sys.stdout is None:      # closed before the interpreter started
            raise BrokenPipeError
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush at
        # interpreter exit does not raise again (Python docs, "Note on
        # SIGPIPE" in the signal module)
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print("error: stdout closed before the report was written",
              file=sys.stderr)
        return 141
    if sys.stderr.isatty() and not args.json:
        print(rep.render_table(), file=sys.stderr)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
