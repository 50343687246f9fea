"""No module of the package imports a name it never uses, and no private
function or method of the package goes without a caller."""

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


def uncalled_private_functions(sources: list[str]) -> list[str]:
    """Names of the `_`-prefixed functions and methods, dunders aside, that no
    source reads as an expression name or an attribute."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_the_check_sees_an_uncalled_private_function():
    source = (
        "class A:\n"
        "    def __init__(self):\n        self._used()\n"
        "    def _used(self):\n        return _helper()\n"
        "    def _lift(self):\n        pass\n"
        "def _helper():\n    pass\n"
    )
    assert uncalled_private_functions([source]) == ["_lift"]


def test_every_private_function_has_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert uncalled_private_functions(sources) == []
