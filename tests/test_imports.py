"""Static checks on the package and test source, with the standard library
only: no module imports a name it never uses, and `dfao.__all__` lists
exactly the names the package imports."""

import ast
from pathlib import Path

import dfao

PACKAGE = Path(dfao.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports and never reads, `__future__` aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Iterable, Iterator\n"
        "def f(x: np.ndarray) -> Iterator[int]: ...\n"
    )
    assert unused_imports(source) == ["Iterable"]


def test_no_module_imports_an_unused_name():
    # __init__.py imports its names to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_no_test_module_imports_an_unused_name():
    # the acceptance gate is kept byte for byte, unused import included
    modules = sorted(p for p in TESTS.glob("*.py") if p.name != "test_acceptance.py")
    assert len(modules) >= 15
    for path in modules:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_all_lists_exactly_the_imported_names():
    # a name deleted from a module but left in __all__ fails here, not at
    # `from dfao import *`
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(dfao.__all__) == sorted(imported | {"__version__"})
    assert len(set(dfao.__all__)) == len(dfao.__all__)
    for name in dfao.__all__:
        assert hasattr(dfao, name), name
