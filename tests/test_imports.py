"""Static checks on the package and test source, with the standard library
only: no module imports a name it never uses, every private module-level
name of the package is read by the package itself, `dfao.__all__` lists
exactly the names the package imports, none of them but `minimize` is
also a submodule's name, and every deliberate raise is a DfaoError."""

import ast
from pathlib import Path

import dfao
from dfao import errors

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


def unread_private_names(sources: list[str]) -> list[str]:
    """Private module-level names defined in `sources` that no source reads."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        read.update(
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        )
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_unread_private_names_are_found():
    sources = ["_A = 1\n_B: int = 2\ndef _f(): return _A\n", "class _C: ...\nprint(_f)\n"]
    assert unread_private_names(sources) == ["_B", "_C"]


def test_every_private_name_is_read_by_the_package():
    # a helper kept only for the tests to call fails here
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


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


def test_no_public_name_shadows_a_submodule():
    # `minimize` is the one known case, documented in the README: the
    # package attribute is the function, so `import dfao.minimize as m`
    # binds the function, not the module
    submodules = {p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert submodules & set(dfao.__all__) == {"minimize"}


# The raises that are no DfaoError, as (module, enclosing def, class raised).
NOT_DFAO_ERRORS = {
    # argparse turns it into a usage error with exit 2, as for any bad option
    ("cli.py", "_term_count", "ArgumentTypeError"),
    # an invariant of a value type that no machine description reaches
    ("dyadic.py", "DyadicDistance.__post_init__", "ValueError"),
}


def raised_classes(source: str) -> list[tuple[str, str]]:
    """(enclosing def, class name) of every raise in `source` that names a
    class, called or not; a bare re-raise names none."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((scope, exc.attr if isinstance(exc, ast.Attribute) else exc.id))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_raised_classes_are_found():
    source = (
        "class C:\n"
        "    def f(self):\n"
        "        try:\n"
        "            raise KeyError\n"
        "        except KeyError:\n"
        "            raise\n"
        "def g():\n"
        "    raise argparse.ArgumentTypeError('x') from None\n"
    )
    assert raised_classes(source) == [("C.f", "KeyError"), ("g", "ArgumentTypeError")]


def test_every_raise_names_a_dfao_error():
    # `except DfaoError` around any entry point catches every refusal
    allowed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, name in raised_classes(path.read_text(encoding="utf-8")):
            if (path.name, scope, name) in NOT_DFAO_ERRORS:
                allowed.add((path.name, scope, name))
                continue
            cls = getattr(errors, name, None)  # every DfaoError lives in dfao.errors
            assert isinstance(cls, type) and issubclass(cls, errors.DfaoError), (path, scope, name)
    assert allowed == NOT_DFAO_ERRORS  # an allowance no raise uses fails here
