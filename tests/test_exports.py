import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import bunkbed


def test_every_export_resolves():
    checked = 0
    for info in pkgutil.iter_modules(bunkbed.__path__):
        module = importlib.import_module(f"bunkbed.{info.name}")
        exports = getattr(module, "__all__", None)
        if exports is None:
            continue
        assert [x for x in exports if not hasattr(module, x)] == [], info.name
        checked += 1
    assert checked


def _own_names(tree: ast.Module) -> set:
    """Names a module binds at top level itself: defs, classes, assignments
    and imports from outside the package, not names taken from a sibling."""
    own = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack += node.body + node.orelse + getattr(node, "finalbody", [])
            stack += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Import):
            own |= {(a.asname or a.name).split(".")[0] for a in node.names if not a.name.startswith("bunkbed")}
        elif isinstance(node, ast.ImportFrom) and not node.level and not node.module.startswith("bunkbed"):
            own |= {a.asname or a.name for a in node.names}
    return own


def test_every_export_is_defined_in_its_own_module():
    # A name is exported by the module that defines it, never re-exported by
    # a sibling that imports it.
    checked = 0
    for info in pkgutil.iter_modules(bunkbed.__path__):
        module = importlib.import_module(f"bunkbed.{info.name}")
        exports = getattr(module, "__all__", None)
        if exports is None:
            continue
        own = _own_names(ast.parse(Path(module.__file__).read_text()))
        assert [x for x in exports if x not in own] == [], info.name
        checked += 1
    assert checked


def test_package_imports_only_stdlib_and_gmpy2():
    # A code path must not depend on what else is installed: no numpy or sympy.
    allowed = sys.stdlib_module_names | {"gmpy2", "bunkbed"}
    outside = []
    for path in sorted(Path(bunkbed.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert outside == []


def test_readme_layout_names_every_module_and_oracle():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    layout = set(re.findall(r"\w+\.py", readme.split("## Layout", 1)[1].split("```")[1]))
    files = [p.name for p in (root / "src" / "bunkbed").glob("*.py") if p.name != "__init__.py"]
    files += [p.name for p in (root / "tests").glob("*_oracle.py")]
    assert files
    assert sorted(name for name in files if name not in layout) == []
