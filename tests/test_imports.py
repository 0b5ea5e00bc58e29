"""Static check on the package source, with the standard library only:
no module imports a name it never uses."""

import ast
from pathlib import Path

import dfao

PACKAGE = Path(dfao.__file__).parent


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
