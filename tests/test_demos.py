"""Every demo compiles and every name it takes from isac_beamkit exists.

The demos run for minutes, so they are parsed, not executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    tree = ast.parse(source, filename=str(path))
    aliases = {}  # local name -> package module bound by `import ... as`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "isac_beamkit":
            module = importlib.import_module(node.module)
            for name in node.names:
                assert hasattr(module, name.name), f"{node.module}.{name.name}"
        elif isinstance(node, ast.Import):
            for name in node.names:
                if name.name.split(".")[0] == "isac_beamkit":
                    module = importlib.import_module(name.name)
                    if name.asname:
                        aliases[name.asname] = module
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            module = aliases[node.value.id]
            assert hasattr(module, node.attr), f"{module.__name__}.{node.attr}"
