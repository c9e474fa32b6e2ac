import ast
import glob
import os
import sys

import sessionkit

SRC = os.path.dirname(sessionkit.__file__)


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
