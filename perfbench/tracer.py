"""Layer spans around accrgeo's public functions, installed from outside
the package.

The package binds names with ``from .jets import tmul``, so a wrapper is
written into every module that holds the original object, and methods
are replaced on their classes.  ``Tracer.install`` records every
replacement so that ``uninstall`` restores each one exactly.

A span's duration excludes the tracer's own bookkeeping (node walks,
byte counts, accounting after a call).  Self time is the duration minus
the part its child spans cover.  Each span belongs to a *group*; the
group's total counts only its outermost spans, so nested calls within
one group are not counted twice.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("jets", "expr", "geometry", "accr", "transform", "examples", "cli")

# (module, qualified name) -> group.  A qualified name with a dot is a
# method or classmethod on a class of that module.
TARGETS = {
    ("expr", "eval_jet"): "expr.eval_jet",
    ("jets", "tmul"): "jets.tmul",
    ("jets", "tminv"): "jets.tminv",
    ("jets", "tscale"): "jets.tscale",
    ("jets", "tgrad"): "jets.tgrad",
    ("geometry", "eval_expr_table"): "geometry.eval_expr_table",
    ("geometry", "FrameEval.from_metric"): "geometry.from_metric",
    ("geometry", "christoffels"): "geometry.christoffels",
    ("geometry", "riemann"): "geometry.riemann",
    ("geometry", "cov_deriv_tensor11"): "geometry.cov_deriv",
    ("geometry", "cov_deriv_vector"): "geometry.cov_deriv",
    ("geometry", "cov_deriv_covector"): "geometry.cov_deriv",
    ("geometry", "cov_deriv_metric"): "geometry.cov_deriv",
    ("geometry", "lie_metric_coord"): "geometry.cov_deriv",
    ("geometry", "lie_metric_cov"): "geometry.cov_deriv",
    ("accr", "ChartStructure.structure_at"): "accr.structure_at",
    ("accr", "FrameStructure.structure_at"): "accr.structure_at",
    ("accr", "structure_eval"): "accr.structure_eval",
    ("accr", "check_axioms"): "accr.checks",
    ("accr", "f_prop_residual"): "accr.checks",
    ("accr", "lee_identities_residual"): "accr.checks",
    ("accr", "class_residuals"): "accr.checks",
    ("accr", "torse_forming_analyze"): "accr.checks",
    ("transform", "TransformedStructure.structure_at"):
        "transform.structure_at",
    ("transform", "TransformTriple.jets"): "transform.triple_jets",
    ("transform", "differentials"): "transform.laws",
    ("transform", "alpha_beta_residuals"): "transform.laws",
    ("transform", "lee_transformation_residuals"): "transform.laws",
    ("transform", "metric_roundtrip_residual"): "transform.laws",
    ("transform", "condition_residuals"): "transform.laws",
    ("transform", "yamabe_check"): "transform.yamabe_check",
    ("cli", "build_config"): "cli.parse",
    ("cli", "Report.to_json"): "cli.report",
    ("examples", "get_example"): "examples.build",
    ("cli", "make_triple"): "examples.build",
}
# cli.build_parser gets a span whose result's parse_args is wrapped too;
# the command functions are reached through the cli.COMMANDS dict.
PARSE_GROUP = "cli.parse"
COMMAND_GROUP = "cli.command"

FLOAT_BYTES = 8


class Tracer:
    """Span and count accounting for one traced pass."""

    def __init__(self):
        self.mods = {m: importlib.import_module(f"accrgeo.{m}")
                     for m in MODULES}
        ex = self.mods["expr"]
        self._expr_kinds = {ex.Const: "C", ex.Var: "V", ex.Neg: "N",
                            ex.Bin: "B", ex.Pow: "P", ex.Func: "F"}
        self._patches = []
        self._stack = []            # child-time accumulator per open span
        self._depth = defaultdict(int)
        self._book = 0.0            # bookkeeping time excluded from spans
        self._intern = {}           # structural subtree key -> id
        self._expr_info = {}        # id(expr) -> (expr, nodes, subtree ids)
        self.reset()

    # -- accounting ----------------------------------------------------------

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.nodes = 0
        self.distinct = 0
        self.tmul_bytes = 0
        self._case_distinct = set()
        self._case_counts = defaultdict(int)
        self.transform_points = 0
        self.base_evals = 0
        self.triple_evals = 0

    def end_case(self, command: str, points: int, completed: bool):
        """Close the per-case counters.  Per-point counts of transform and
        soliton cases include only cases that produced a report."""
        self.distinct += len(self._case_distinct)
        self._case_distinct = set()
        self._expr_info.clear()
        if completed and command in ("transform", "soliton"):
            self.transform_points += points
            self.base_evals += self._case_counts["accr.structure_at"]
            self.triple_evals += self._case_counts["transform.triple_jets"]
        self._case_counts = defaultdict(int)

    def _wrap(self, group, fn, hook=None):
        stack, depth = self._stack, self._depth

        def span(*args, **kwargs):
            depth[group] += 1
            b0 = self._book
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                dur = (t1 - t0) - (self._book - b0)
                depth[group] -= 1
                if depth[group] == 0:
                    self.total[group] += dur
                self.self_time[group] += dur - child
                self.calls[group] += 1
                self._case_counts[group] += 1
                if stack:
                    stack[-1] += dur
                self._book += perf_counter() - t1
            if hook is not None:
                tb = perf_counter()
                hook(result, *args, **kwargs)
                self._book += perf_counter() - tb
            return result

        return span

    # -- counting hooks ----------------------------------------------------

    def _subtree_id(self, node, memo):
        key = id(node)
        if key in memo:
            return memo[key]
        kind = self._expr_kinds[type(node)]
        if kind == "C":
            skey, size, ids = ("C", node.value), 1, set()
        elif kind == "V":
            skey, size, ids = ("V", node.name), 1, set()
        else:
            if kind == "B":
                parts = [node.left, node.right]
                head = ("B", node.op)
            elif kind == "P":
                parts = [node.base]
                head = ("P", node.exponent)
            elif kind == "F":
                parts = [node.arg]
                head = ("F", node.name)
            else:
                parts = [node.arg]
                head = ("N",)
            sub = [self._subtree_id(p, memo) for p in parts]
            skey = head + tuple(s[0] for s in sub)
            size = 1 + sum(s[1] for s in sub)
            ids = set().union(*(s[2] for s in sub))
        sid = self._intern.setdefault(skey, len(self._intern))
        ids = ids | {sid}
        memo[key] = (sid, size, ids)
        return memo[key]

    def _count_eval_jet(self, result, e, bindings):
        info = self._expr_info.get(id(e))
        if info is None:
            _, size, ids = self._subtree_id(e, {})
            info = (e, size, frozenset(ids))
            self._expr_info[id(e)] = info   # holds e, so its id stays unique
        point = tuple((name, jet.coeffs.tobytes())
                      for name, jet in sorted(bindings.items()))
        self.nodes += info[1]
        self._case_distinct.update((sid, point) for sid in info[2])

    def _count_tmul(self, out, space, a, b, sub):
        pairs = len(space._mul_i)
        self.tmul_bytes += (a.nbytes + b.nbytes + out.nbytes
                            + pairs * FLOAT_BYTES * (a[0].size + b[0].size
                                                     + out[0].size))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"expr.eval_jet": self._count_eval_jet,
                 "jets.tmul": self._count_tmul}
        for (mod_name, qual), group in TARGETS.items():
            mod = self.mods[mod_name]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(group, raw.__func__))
                else:
                    new = self._wrap(group, raw, hooks.get(group))
                self._patch(cls, meth, new)
                continue
            orig = getattr(mod, qual)
            new = self._wrap(group, orig, hooks.get(group))
            bound = 0
            for m in self.mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, new)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{mod_name}.{qual} is bound nowhere")
        cli = self.mods["cli"]
        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self._wrap(PARSE_GROUP, parser.parse_args)
            return parser

        self._patch(cli, "build_parser",
                    self._wrap(PARSE_GROUP, traced_build_parser))
        commands = dict(cli.COMMANDS)
        for name, fn in commands.items():
            cli.COMMANDS[name] = self._wrap(COMMAND_GROUP, fn)
        self._patches.append((cli.COMMANDS, None, commands))

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            if name is None:
                owner.update(orig)
            else:
                setattr(owner, name, orig)
        self._patches = []

    def metrics(self) -> dict:
        """Per-layer values of the pass traced since the last reset."""
        t, s, c = self.total, self.self_time, self.calls
        return {
            "expr.eval_jet.s": t["expr.eval_jet"],
            "expr.eval_jet.calls": c["expr.eval_jet"],
            "expr.nodes": self.nodes,
            "expr.useful_ratio": self.distinct / max(self.nodes, 1),
            "jets.tmul.s": t["jets.tmul"],
            "jets.tmul.calls": c["jets.tmul"],
            "jets.tmul.bytes": self.tmul_bytes,
            "jets.tminv.self_s": s["jets.tminv"],
            "jets.tminv.calls": c["jets.tminv"],
            "jets.tscale.s": t["jets.tscale"],
            "jets.tgrad.s": t["jets.tgrad"],
            "geometry.eval_expr_table.self_s": s["geometry.eval_expr_table"],
            "geometry.from_metric.self_s": s["geometry.from_metric"],
            "geometry.christoffels.self_s": s["geometry.christoffels"],
            "geometry.riemann.self_s": s["geometry.riemann"],
            "geometry.cov_deriv.self_s": s["geometry.cov_deriv"],
            "accr.structure_at.self_s": s["accr.structure_at"],
            "accr.structure_eval.self_s": s["accr.structure_eval"],
            "accr.checks.s": s["accr.checks"],
            "transform.structure_at.self_s": s["transform.structure_at"],
            "transform.triple_jets.s": t["transform.triple_jets"],
            "transform.laws.s": s["transform.laws"],
            "transform.yamabe_check.self_s": s["transform.yamabe_check"],
            "transform.base_evals_per_point":
                self.base_evals / max(self.transform_points, 1),
            "transform.triple_evals_per_point":
                self.triple_evals / max(self.transform_points, 1),
            "cli.parse.s": t["cli.parse"],
            "cli.command.self_s": s["cli.command"],
            "cli.report.s": t["cli.report"],
            "examples.build.s": t["examples.build"],
        }
