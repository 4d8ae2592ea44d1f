"""Every name a ``regmaps`` module exports still resolves.

``from regmaps.wreath import *`` and documentation tools read ``__all__``,
so a name deleted from a module but left in its ``__all__`` would only
fail when someone imports it.
"""

import importlib
import pkgutil

import regmaps


def test_every_exported_name_resolves():
    modules = [regmaps] + [
        importlib.import_module(f"regmaps.{info.name}")
        for info in pkgutil.iter_modules(regmaps.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {"regmaps.graphs", "regmaps.maps", "regmaps.perms", "regmaps.wreath"} <= {
        m.__name__ for m in exporting
    }
    missing = [
        f"{m.__name__}.{name}" for m in exporting for name in m.__all__ if not hasattr(m, name)
    ]
    assert missing == []
