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
