"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import selmerkit

MODULES = sorted(Path(selmerkit.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads.

    A name counts as read where it appears as an expression name, or as a
    string in an `__all__` assignment, which is how the package re-exports.
    """
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from fractions import Fraction\nimport os.path\nimport sys as system\n\nos.sep\n"
    assert unused_imports(source) == [(1, "Fraction"), (3, "system")]
    assert unused_imports('from .a import b\n__all__ = ["b"]\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
