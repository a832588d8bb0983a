"""The package holds only what the commands run: a fixed set of CLI cases
calls every function and method defined in ``src/accrgeo``, except the
few names listed in ``UNREACHED``.  Reference code that only tests
compare against lives in ``tests/oracles.py``.

The cases run in a fresh interpreter, so that no cache warmed by another
test (``jet_space``, ``keep_chunk_memory``) hides a function body, under
``sys.setprofile``, which sees every Python call.

No module of the package imports a name it never uses; a name listed
in the module's ``__all__`` counts as used."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import accrgeo
from accrgeo.cli import PRESETS
from accrgeo.examples import REGISTRY
from accrgeo.jets import FUNCTION_TABLE

PACKAGE = Path(accrgeo.__file__).resolve().parent

# (module, qualified name) of what no command calls: four names and one
# method the benchmark's tracer (perfbench/tracer.py) wraps, which it
# requires to exist, and the abstract method of the provider base class
UNREACHED = {
    ("expr", "eval_jet"),
    ("transform", "differentials"),
    ("geometry", "cov_deriv_covector"),
    ("geometry", "cov_deriv_metric"),
    ("transform", "TransformedStructure.structure_at"),
    ("accr", "StructureProvider.structure_at"),
}

RUNNER = r"""
import contextlib, io, json, sys

package, cases = sys.argv[1], json.loads(sys.stdin.read())


class TTY(io.StringIO):
    def isatty(self):
        return True


called = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        called.add((code.co_filename, code.co_name, code.co_firstlineno))


codes = []
sys.setprofile(profile)             # before the import, which runs code too
from accrgeo.cli import main

for argv, tty in cases:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(TTY() if tty else io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""


def cases() -> list:
    """(argv, stderr is a terminal, expected exit code or None)."""
    common = ["--n", "2", "--samples", "2", "--json"]
    out = []
    for model in REGISTRY:
        for cmd in ("check", "classify", "lee", "torse"):
            out.append(([cmd, "--example", model, *common], False, None))
        for cmd in ("transform", "soliton"):
            for preset in PRESETS:
                out.append(([cmd, "--example", model, "--preset", preset,
                             *common], False, None))
    u = " + ".join(f"{name}(0.1 * x1)" for name in FUNCTION_TABLE)
    flat = ["transform", "--example", "flat-f0"]
    out += [
        (["example", "list", "--json"], False, 0),
        ([*flat, "--u", u + " + x1^1.5", *common], False, 0),
        ([*flat, "--u", "1 + * x1", *common], False, 2),
        ([*flat, "--u", "exp(exp(exp(10 * x1)))", "--box=1,2", *common],
         False, 3),
        (["check", "--example", "flat-f0", "--n", "1", "--samples", "2"],
         True, 0),
    ]
    return out


def defined_functions() -> dict:
    """(file, name, first line) of every function and method in the
    package (the first line of a decorated one is its first decorator's,
    as in its code object) -> (module, qualified name)."""
    out = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                out[(path, child.name, first)] = (module,
                                                  prefix + child.name)
                visit(child, module, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, prefix + child.name + ".")
            else:
                visit(child, module, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path), "")
    return out


def test_commands_reach_every_function_of_the_package():
    run_cases = cases()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(PACKAGE)],
        input=json.dumps([(argv, tty) for argv, tty, _ in run_cases]),
        capture_output=True, text=True, env=env, timeout=600, check=True)
    result = json.loads(proc.stdout)
    for (argv, _, expected), code in zip(run_cases, result["codes"]):
        assert code in ((0, 1) if expected is None else (expected,)), argv
    called = {tuple(c) for c in result["called"]}
    defined = defined_functions()
    unreached = {name for key, name in defined.items() if key not in called}
    assert unreached == UNREACHED


def unused_imports(tree: ast.Module) -> set:
    """Names a module imports (``__future__`` features aside) that it
    neither reads nor lists in ``__all__``."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif (isinstance(node, ast.Assign)
                and any(getattr(x, "id", None) == "__all__"
                        for x in node.targets)):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_unused_imports_guard_sees_an_unused_name():
    tree = ast.parse("from .jets import tgrad, tmul\n__all__ = ['tmul']\n")
    assert unused_imports(tree) == {"tgrad"}


def test_package_imports_only_names_it_uses():
    unused = {path.name: sorted(unused_imports(ast.parse(path.read_text())))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in unused.items() if v} == {}
