"""Every demo compiles and every name it takes from isac_beamkit exists, and
the README's library quick start runs.

The demos run for minutes, so they are parsed, not executed.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_quick_start_runs():
    # a public name deleted from the package must not stay in the docs
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
