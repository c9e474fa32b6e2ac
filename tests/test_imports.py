import ast
import dataclasses
import glob
import importlib
import os
import runpy
import sys

import sessionkit
from sessionkit import runtime

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


def test_the_game_makes_no_text():
    # the game records moves and types; a verdict becomes text only at output
    # (``Verdict.to_json``, the CLI, validator messages), so no function of
    # the game path names a renderer, whether it calls it or passes it on
    game = {"_expand", "check", "_extract_witness", "_extract_trace", "_note"}
    with open(os.path.join(SRC, "relations.py")) as fh:
        tree = ast.parse(fh.read())
    found, named = set(), []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in game:
            found.add(top.name)
            named += [(top.name, node.lineno) for node in ast.walk(top)
                      if str(getattr(node, "id", None) or getattr(node, "attr", None))
                      .startswith("render")]
    assert found == game and not named, named


def test_runtime_records_are_not_assigned_after_construction():
    # the records are slotted, not frozen, and the probe's ``seen`` set hashes
    # them: their fields are set in their constructors and never again; the
    # hash a cut keeps once it has computed it is the one exception
    records = (runtime.TagOut, runtime.ChanOut, runtime.Thread, runtime.CutNode,
               runtime.Redex)
    fields = {f.name for cls in records for f in dataclasses.fields(cls)} - {"_hash"}
    assert {"chan", "pending", "guard", "left", "right", "path"} <= fields
    names = {cls.__name__ for cls in records}
    bad = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        constructors = {id(f) for c in ast.walk(tree)
                        if isinstance(c, ast.ClassDef) and c.name in names
                        for f in c.body if isinstance(f, ast.FunctionDef)
                        and f.name in ("__init__", "__post_init__")}
        todo = [tree]
        while todo:
            node = todo.pop()
            if id(node) in constructors:
                continue
            todo += ast.iter_child_nodes(node)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = list(getattr(node, "targets", [getattr(node, "target", None)]))
                while targets:  # the assigned places, unpacked, not what indexes them
                    t = targets.pop()
                    if isinstance(t, (ast.Tuple, ast.List)):
                        targets += t.elts
                    elif isinstance(t, ast.Starred):
                        targets.append(t.value)
                    elif isinstance(t, ast.Attribute) and t.attr in fields:
                        bad.append((os.path.basename(path), t.lineno))
            elif isinstance(node, ast.Call) and {"setattr", "__setattr__"} & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
                named = node.args[1] if len(node.args) > 1 else None
                if not isinstance(named, ast.Constant) or named.value in fields:
                    bad.append((os.path.basename(path), node.lineno))
    assert not bad, bad


def test_recursion_is_an_allowed_decision():
    # every other walk over terms and configurations is a loop; each function
    # here recurses once per level of its input, which ``types.MAX_NESTING``
    # caps, so a new self-call must be added to this list on purpose
    allowed = {"types.Cursor._type", "process._term", "process.rename",
               "process._check_guardedness.unfolded", "measures._walk",
               "runtime.to_configuration_raw.build", "runtime.MinMeasure.term_measure"}
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        todo = [(tree, os.path.basename(path)[:-3])]
        while todo:
            node, where = todo.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    todo.append((child, where))
                    continue
                name = f"{where}.{child.name}"
                todo.append((child, name))
                # a call by the bare name, or on ``self`` or ``cls``; other
                # attribute calls, such as ``object.__new__``, are not self-calls
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(c, ast.Call) and (
                            getattr(c.func, "id", None) == child.name
                            or getattr(c.func, "attr", None) == child.name
                            and getattr(c.func.value, "id", None) in ("self", "cls"))
                        for c in ast.walk(child)):
                    found.add(name)
    assert found == allowed
