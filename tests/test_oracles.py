"""The oracles of tests/oracles.py share no code with the paths they check:
from monoidring they import only the lattice kernels of exactlin, the face
types of polyhedral and the error types."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
ALLOWED = {
    "monoidring.exactlin": None,  # any lattice kernel
    "monoidring.errors": None,
    "monoidring.polyhedral": {"Face", "FaceLattice"},
}


def test_oracles_import_only_kernels_and_types():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    library = [(module, name) for module, name in imported if module.split(".")[0] == "monoidring"]
    assert library, "the oracles import no lattice kernel"
    for module, name in library:
        assert module in ALLOWED, f"{module} imported"
        assert ALLOWED[module] is None or name in ALLOWED[module], f"{module}.{name} imported"
