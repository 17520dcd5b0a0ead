import importlib
import pkgutil

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
