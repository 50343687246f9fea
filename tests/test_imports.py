"""No module of the package imports anything but the standard library and
its own modules, no module imports a name it never uses or imports inside a
function (the package's lazy cli names aside), no private function or method
of the package goes without a caller, no module-level constant goes unread,
and no parameter default goes without a call that overrides it."""

import ast
import sys
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


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports that are not standard library
    modules; relative imports (of the package's own modules) are skipped."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names)


def test_the_check_sees_a_foreign_import():
    source = (
        "from __future__ import annotations\nimport os.path\nimport mpmath as mp\n"
        "from . import curves\nfrom .errors import InputError\nfrom numpy.linalg import det\n"
    )
    assert foreign_imports(source) == ["mpmath", "numpy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def function_level_imports(source: str) -> list[str]:
    """`function: import` for each import statement inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                f"{node.name}: {ast.unparse(inner)}"
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return found


def test_the_check_sees_a_function_level_import():
    source = (
        "import os\n"
        "def f():\n    from .analytic import cycle_period\n    return os.sep\n"
        "class A:\n    def m(self):\n        import json\n"
    )
    assert function_level_imports(source) == [
        "f: from .analytic import cycle_period",
        "m: import json",
    ]


# the package loads the cli on the first use of a cli name, so that
# `python -m selmerkit.cli` does not find it already imported
LAZY_IMPORTS = {"__init__.py": ["__getattr__: from . import cli"]}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_at_the_top(path):
    assert function_level_imports(path.read_text(encoding="utf-8")) == LAZY_IMPORTS.get(path.name, [])


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


def unread_constants(sources: list[str]) -> list[str]:
    """Names of the module-level UPPER_CASE constants that no source reads,
    as an expression name or an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defined |= {
                target.id
                for target in targets
                if isinstance(target, ast.Name) and target.id.lstrip("_").isupper()
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_the_check_sees_an_unread_constant():
    source = (
        "LIMIT = 10\n_CACHE: dict = {}\n__all__ = []\nlower = 4\n"
        "def f():\n    _CACHE[0] = LIMIT\n"
    )
    assert unread_constants([source]) == []
    assert unread_constants([source + "CAP: int = 3\nSPARE = 5\n"]) == ["CAP", "SPARE"]
    # a read from another module counts
    assert unread_constants(["SPARE = 5\n", "import m\nm.SPARE\n"]) == []


def test_every_module_constant_is_read():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unread_constants(sources) == []


def defaults_without_a_caller(package: list[str], callers: list[str]) -> list[str]:
    """`function(parameter=)` for each defaulted parameter of a function in
    the package sources that no call in the caller sources passes, by keyword
    or positionally past its index.

    A call is matched to a function by name, as `name(...)` or
    `obj.name(...)`.  The first parameter of a method (self, cls) is bound,
    so a call's positional arguments start at the second one.
    """
    defaults: dict[str, dict[str, int]] = {}
    for source in package:
        tree = ast.parse(source)
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = 1 if id(node) in methods else 0
            named = defaults.setdefault(node.name, {})
            for index in range(len(positional) - len(args.defaults), len(positional)):
                named[positional[index].arg] = index - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    named[arg.arg] = -1  # keyword only
    passed: set[tuple[str, str]] = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defaults:
                continue
            count = len(node.args)
            for parameter, index in defaults[name].items():
                by_position = 0 <= index < count
                if by_position or any(kw.arg == parameter for kw in node.keywords):
                    passed.add((name, parameter))
    return sorted(
        f"{name}({parameter}=)"
        for name, named in defaults.items()
        for parameter in named
        if (name, parameter) not in passed
    )


def test_the_check_sees_a_default_without_a_caller():
    package = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class A:\n"
        "    def m(self, x=0, y=0):\n        pass\n"
    )
    callers = "f(0, 1)\nf(0, d=4)\nA().m(5)\n"
    assert defaults_without_a_caller([package], [callers]) == ["f(c=)", "m(y=)"]
    assert defaults_without_a_caller([package], [callers + "f(0, 1, 2)\nA().m(y=1)\n"]) == []


def test_every_parameter_default_has_a_caller():
    root = Path(selmerkit.__file__).parents[2]
    callers = [*MODULES, *(root / "tests").glob("*.py"), *(root / "selmerbench").rglob("*.py")]
    package = [path.read_text(encoding="utf-8") for path in MODULES]
    sources = [path.read_text(encoding="utf-8") for path in callers]
    assert defaults_without_a_caller(package, sources) == []
