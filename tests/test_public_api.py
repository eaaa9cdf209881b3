"""Every name that monoidring/__init__.py exports, and every function and
class defined at the top level of a package module, has a reader: a
reference in the package outside the name's own definition, an entry of
the benchmark tracer's TARGETS, or a use in a python block of the
README."""

import ast
from pathlib import Path

from test_readme import python_blocks
from test_tracer_targets import tracer_targets

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "monoidring"


def exports() -> list[tuple[str, str]]:
    """(module, name) for every name the package's __init__ imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used(tree: ast.AST) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def package_references() -> set[str]:
    """Names referred to in the package's modules, each outside a top-level
    definition of that name."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.parse(path.read_text()).body:
                refs |= names_used(node) - {getattr(node, "name", None)}
    return refs


def definitions() -> list[tuple[str, str]]:
    """(module, name) for every function and class defined at the top level
    of a package module."""
    return [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def unread(names: list[tuple[str, str]]) -> list[str]:
    """The (module, name) pairs of names that have no reader."""
    package = package_references()
    traced = {(module, name) for module, names in tracer_targets().items() for name in names}
    readme = set().union(*(names_used(ast.parse(code)) for code in python_blocks()))
    return [
        f"{module}.{name}" for module, name in names
        if name not in package | readme and (module, name) not in traced
    ]


def test_every_export_has_a_reader():
    assert not unread(exports()), "exports without a reader"


def test_every_definition_has_a_reader():
    assert not unread(definitions()), "definitions without a reader"


def unloaded_imports() -> list[str]:
    """module.name for every name a top-level import of a package module
    other than __init__ binds and the module never loads."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = names_used(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append(f"{path.stem}.{name}")
    return out


def test_every_import_is_loaded():
    assert not unloaded_imports(), "imports never loaded"
