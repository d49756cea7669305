"""Every module in src/sentnet uses each name it imports, every function
reads each parameter it takes, and every private module-level name is read
somewhere in the package.

No linter ships with the test environment, so this stands in for the
unused-import check (pyflakes F401) and an unused-argument check. The
package's __init__.py is exempt from the first: its imports are the public
re-exports. The second skips self and cls, parameters named with a leading
underscore (kept for a caller's signature), and stubs whose body is only a
docstring or `...`, such as a Protocol's methods.
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


def unused_parameters(source: str) -> list[str]:
    """Parameters a function never reads, as "function(name) (line N)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        if all(isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) for stmt in body):
            continue  # a stub: only a docstring or `...`
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg) if a]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}({p}) (line {node.lineno})" for p in params
                  if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return found


def test_finds_an_unused_parameter():
    source = "def f(a, b, *args, c, _d, **kw):\n    x = b\n    return lambda e: kw[x]\n"
    source += "class P:\n    def stub(self, n):\n        \"\"\"Doc.\"\"\"\n    def dots(self, n): ...\n"
    source += "def g(self, h):\n    def inner():\n        return h\n    return inner\n"
    assert unused_parameters(source) == ["f(a) (line 1)", "f(args) (line 1)", "f(c) (line 1)", "<lambda>(e) (line 3)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_parameter(module):
    assert unused_parameters((PACKAGE / module).read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (one leading underscore) that no module
    reads, as "module:name (line N)". A name counts as read where it is
    loaded, imported by another module, or reached as an attribute."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[f"{module}:{name}"] = (name, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{key} (line {line})" for key, (name, line) in defined.items() if name not in read]


def test_finds_an_unread_private_name():
    sources = {
        "a.py": "_KEPT = 1\n_LOST = 2\ndef _helper():\n    return _KEPT\ndef _orphan():\n    pass\n",
        "b.py": "from .a import _helper\nclass _Used: ...\n_Used()\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["a.py:_LOST (line 2)", "a.py:_orphan (line 5)"]


def test_every_private_module_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


# The package's layering: the modules each module may import from within the
# package. A new edge is a design decision, made here on purpose. The train
# loop scores no held-out views, so optim needs nothing from data.
LAYERS = {
    "__init__": {"checkpoint", "data", "errors", "harness", "network", "ops", "optim", "probe", "surgery"},
    "checkpoint": {"errors", "network"},
    "cli": {"data", "errors", "harness", "synth"},
    "data": {"checkpoint", "errors"},
    "errors": set(),
    "harness": {"checkpoint", "data", "errors", "network", "ops", "optim", "probe", "surgery"},
    "network": {"checkpoint", "errors", "ops"},
    "ops": {"errors"},
    "optim": {"checkpoint", "errors", "network", "ops"},
    "probe": {"checkpoint", "data", "errors", "network"},
    "surgery": {"checkpoint", "errors", "network"},
    "synth": {"data", "errors"},
}


def package_imports(source: str) -> set[str]:
    """The package modules a module imports: `from .m import ...` and `from . import m`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_finds_package_imports():
    source = "import os\nfrom . import probe as p, ops\nfrom .data import x\ndef f():\n    from .network import y\n"
    assert package_imports(source) == {"probe", "ops", "data", "network"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_imports_only_its_layers(module):
    assert module in LAYERS, f"{module} is not in the layering table"
    assert package_imports((PACKAGE / f"{module}.py").read_text()) <= LAYERS[module]
