"""Lazy package exports (PEP 562).

A package ``__init__`` names what it exports in one table and imports
nothing itself; each name is imported the first time it is read::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "SimConfig": ".config",              # repro.core.config.SimConfig
        "simulator": ".simulator",           # the submodule itself
        "workload_cache_stats": ".materialize:cache_stats",  # renamed
    })

So ``import repro`` costs only this module, and a run pays for the
layers it touches (the simulator path never loads numpy).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s namespace.

    ``table`` maps each public name to its defining module, relative to
    ``package`` (one leading dot); ``"module:attr"`` exports ``attr``
    under the table's name.  An entry whose module is ``"." + name`` is
    that submodule.  ``__all__`` lists every name except the submodules.
    A resolved name is stored in the namespace, so later reads are plain
    lookups.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module_name, _, attr = table[name].partition(":")
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        full_name = package + module_name
        # __import__, not importlib.import_module: it goes through the
        # import statement's machinery, which ``-X importtime`` logs.
        __import__(full_name)
        module = sys.modules[full_name]
        value = (module if module_name == "." + name
                 else getattr(module, attr or name))
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    exports = [name for name, target in table.items()
               if target != "." + name]
    return __getattr__, __dir__, exports
