"""Every module under ``repro`` imports, and its ``__all__`` resolves.

A re-export of a deleted name, or an import of a deleted module, fails
here even where no linter runs.  The numba kernel backend is the one
module allowed to fail to import: numba is optional.
"""

import importlib
import pkgutil

import repro

OPTIONAL = {"repro.kernels.backends.numba_backend"}


def test_every_module_imports_and_exports_what_it_lists():
    names = ["repro"] + [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    imported, broken = 0, []
    for name in names:
        try:
            module = importlib.import_module(name)
        except ImportError:
            if name in OPTIONAL:
                continue
            raise
        imported += 1
        broken += [
            f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)
        ]
    assert imported > 100
    assert not broken, f"listed in __all__ but missing: {broken}"
