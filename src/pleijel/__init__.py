"""Certified spectral constants on H-type groups R^(2n) x R^m.

Computes, with proven error enclosures: the Landau-level series c(n, m),
the sharp L^2 Sobolev constant, the Weyl eigenvalue-counting constant,
the nodal-domain (Pleijel) bound gamma_tilde and its rational truncation
bound gamma_bar, the Radon-Hurwitz admissibility classification of
(n, m), and explicit integer matrix families realising the groups.

Each library module lists its public names once, in its ``__all__``; the
package exports exactly those.  Importing the package runs none of them:
every library module is registered in ``sys.modules`` as a lazy module
(``importlib.util.LazyLoader``) and runs on its first attribute access.
An exported name is resolved on first use by reading the ``__all__`` of
each exporting module in turn, which runs every module up to the one
that lists it: ``from pleijel import DimPair`` runs ``core`` alone, and
``from pleijel import zeta`` runs all eight; ``oracles`` comes last.  A
CLI verb imports from the modules directly, so it compiles and runs only
the modules it calls: ``oracles`` (what only ``check`` and the tests call)
under ``check``, ``render`` (the table formats) under ``table``.  ``cli``
is not registered, so that ``python -m pleijel.cli`` finds it unloaded.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the modules whose ``__all__`` the package exports, in this order
_EXPORTING = ("core", "admissibility", "numerics", "series", "constants", "monotonicity",
              "htype_algebra", "oracles")

for _name in (*_EXPORTING, "reference", "checks", "render"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # marks it lazy; it runs on first attribute access
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
