"""Package surfaces that resolve their public names on first use.

Every package ``__init__`` in :mod:`repro` declares which submodule
provides each of its public names and hands that table to
:func:`lazy_surface`, which returns the PEP 562 module ``__getattr__`` /
``__dir__`` pair and the package's ``__all__``.  A name is imported the
first time it is read and then bound in the package namespace, so every
later read is a plain attribute lookup and a patch applied to that
binding sticks.  Importing a package therefore loads only the layers a
command runs: deriving a run key loads the run vocabulary, the config,
the policy registry and the program builders, never the simulator, the
mechanism or the serve daemon (DESIGN.md §3.1).

Each package also imports the same names under ``if TYPE_CHECKING:``,
so type checkers see exactly the types they saw before.
"""

from __future__ import annotations

import sys
from importlib.util import resolve_name
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, \
    Tuple


def lazy_surface(package: str,
                 attrs: Mapping[str, Sequence[str]],
                 modules: Optional[Mapping[str, str]] = None,
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``attrs`` maps a module path relative to the package (``".cache"``,
    ``"..observe.events"``) to the public names that module provides;
    ``modules`` maps a public name to the module it *is*
    (``{"configs": ".uarch.config"}``).
    """
    table: Dict[str, Tuple[str, Optional[str]]] = {
        name: (resolve_name(module, package), name)
        for module, names in attrs.items() for name in names}
    for name, module in (modules or {}).items():
        table[name] = (resolve_name(module, package), None)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        # The import statement's machinery, not importlib.import_module,
        # so ``python -X importtime`` reports these imports too.
        __import__(module)
        value: Any = sys.modules[module]
        if attr is not None:
            value = getattr(value, attr)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__, list(table)
