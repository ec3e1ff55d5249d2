"""The benchmark's tracer wraps program functions by name.

``bench/layers.py`` lists them in ``SPANS`` and ``COUNTED`` as
``(module, attribute path)`` pairs.  The file is read as text and its two
tables are evaluated as literals, so nothing under ``bench/`` is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _tables():
    tree = ast.parse(LAYERS.read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


WRAPPED = [(name, target) for table in _tables().values() for name, target in table.items()]


def test_layers_declares_both_tables():
    assert set(_tables()) == {"SPANS", "COUNTED"}
    assert "weierstrass.find_regular_change" in dict(WRAPPED)


@pytest.mark.parametrize("name,target", WRAPPED, ids=[name for name, _ in WRAPPED])
def test_wrapped_name_resolves_to_a_callable(name, target):
    module, path = target
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module}.{path} is not callable"
