"""Certified spectral constants on H-type groups R^(2n) x R^m.

Computes, with proven error enclosures: the Landau-level series c(n, m),
the sharp L^2 Sobolev constant, the Weyl eigenvalue-counting constant,
the nodal-domain (Pleijel) bound gamma_tilde and its rational truncation
bound gamma_bar, the Radon-Hurwitz admissibility classification of
(n, m), and explicit integer matrix families realising the groups.

Each library module lists its public names once, in its ``__all__``; the
package exports exactly those.  Importing the package runs none of them:
every library module is registered in ``sys.modules`` as a lazy module and
runs on its first attribute access (``__dict__`` included), under one lock,
so a thread that finds a module running waits until it has run.  An
exported name is resolved on first use by reading the ``__all__`` of each
exporting module in turn, which runs every module up to the one that lists
it: ``from pleijel import DimPair`` runs ``core`` alone, and
``from pleijel import zeta_interval`` runs all eight; ``oracles`` comes
last.  A CLI verb imports from the modules directly, so it compiles and
runs only the modules it calls: ``oracles`` (what only ``check`` and the
tests call) under ``check``, ``cells`` (the cells of ``value`` and
``table``) under those two, ``render`` (the table formats) under
``table``.  ``cli`` is not registered, so that ``python -m pleijel.cli``
finds it unloaded.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# the modules whose ``__all__`` the package exports, in this order
_EXPORTING = ("core", "admissibility", "numerics", "series", "constants", "monotonicity",
              "htype_algebra", "oracles")
_LOCK = threading.RLock()


class _LazyModule(types.ModuleType):
    """A registered module not yet run: the first attribute access runs it under
    the lock, then makes it a plain module.  Its own run, and the runs it imports,
    re-enter the lock and read the module as it stands, as an import cycle would."""

    def __getattribute__(self, attr):
        get = types.ModuleType.__getattribute__
        spec = get(self, "__spec__")
        with _LOCK:
            if spec.loader_state is None:  # unused by the source loader: marks the run
                spec.loader_state = "run"
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return get(self, attr)


for _name in (*_EXPORTING, "reference", "checks", "render", "cells"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _module = importlib.util.module_from_spec(_spec)
    _module.__class__ = _LazyModule
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name: str):
    """The package's ``__all__``, or an export from its module; kept once found."""
    modules = [globals()[module] for module in _EXPORTING]
    if name == "__all__":
        value = [export for module in modules for export in module.__all__]
    else:
        # `from pleijel import cli` asks for cli before importing it: that runs nothing
        owner = None if name == "cli" else next(
            (module for module in modules if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
