"""Every name a module exports exists."""
import importlib
import pkgutil

import secrelay


def test_every_all_entry_resolves():
    modules = [secrelay] + [importlib.import_module(f"secrelay.{info.name}")
                            for info in pkgutil.iter_modules(secrelay.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
