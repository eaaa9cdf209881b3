"""The benchmark's tracer wraps library functions by name: every (module,
name) pair in perfbench/tracer.py TARGETS must still name a function of
monoidring, or a traced run fails at install."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    for node in ast.parse(TRACER.read_text()).body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_target_resolves():
    targets = tracer_targets()
    assert sum(map(len, targets.values())) >= 30
    for module, names in targets.items():
        mod = importlib.import_module(f"monoidring.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
