"""The package imports nothing but the standard library and itself.

That is what lets it install and run offline, without numpy or numba.
"""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "erdosmat"


def _absolute_imports(tree):
    """(line, module) of every import that is not relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
