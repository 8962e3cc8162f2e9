"""Lazy public names for the package ``__init__`` modules (PEP 562).

Each subpackage lists its public names by defining module and resolves
a name, on first use, by importing only that module.  Importing a
package therefore loads none of its submodules, so a simulation loads
only what it runs: networkx and the verification, static-analysis and
figure stacks stay out of processes that never call them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``table`` maps each defining module (relative, e.g. ``".probe"``)
    to the public names it defines.  A resolved name is stored in the
    package namespace, so later lookups never reach ``__getattr__``.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
