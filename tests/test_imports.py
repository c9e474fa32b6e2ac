import ast
import glob
import importlib
import os
import runpy
import sys

import sessionkit

SRC = os.path.dirname(sessionkit.__file__)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "perfbench")


def _imported(tree):
    """Top-level module names of every absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    allowed = sys.stdlib_module_names | {"sessionkit"}
    for path in files:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        bad = sorted(set(_imported(tree)) - allowed)
        assert not bad, (os.path.basename(path), bad)


def test_benchmark_hooks_resolve():
    # a hook whose target is renamed away would silently zero a layer metric
    hooks = runpy.run_path(os.path.join(PERFBENCH, "tracing.py"))["HOOKS"]
    assert hooks
    for _, mod, path, _ in hooks:
        target = importlib.import_module(f"sessionkit.{mod}")
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target), (mod, path)


def test_equiv_runs_only_as_the_oracle():
    # equality of types is identity on the store; ``types.equiv`` is only the
    # independent check, and in the program only ``lts.fas_oracle`` reads it
    calls = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "equiv" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    calls.append((os.path.basename(path), getattr(top, "name", None),
                                  node.lineno))
    assert calls and all(c[:2] == ("lts.py", "fas_oracle") for c in calls), calls
