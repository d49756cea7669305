"""Every module in src/sentnet uses each name it imports.

No linter ships with the test environment, so this stands in for the
unused-import check (pyflakes F401). The package's __init__.py is exempt:
its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sentnet"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, as "name (line N)"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .data import load_manifest, read_means\n"
    source += "np.zeros(read_means)\n"
    assert unused_imports(source) == ["os (line 1)", "load_manifest (line 3)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_imports_only_what_it_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
