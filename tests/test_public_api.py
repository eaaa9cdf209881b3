"""Every name that monoidring/__init__.py exports has a reader: a reference
in the package outside the name's own definition, an entry of the
benchmark tracer's TARGETS, or a use in a python block of the README."""

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


def test_every_export_has_a_reader():
    package = package_references()
    traced = {(module, name) for module, names in tracer_targets().items() for name in names}
    readme = set().union(*(names_used(ast.parse(code)) for code in python_blocks()))
    unread = [
        name for module, name in exports()
        if name not in package | readme and (module, name) not in traced
    ]
    assert not unread, f"exports without a reader: {unread}"
