"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package declares its public names once, as a map from submodule to
the names that submodule defines, and binds what :func:`lazy_exports`
returns::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "layer1": ("Layer1PowerModel", "SignalStateRecorder"),
        "security": ("security",),
    })

A name listed under its own submodule (``"security"`` above) exports
the submodule itself.  The first access to a name imports its
submodule and caches the value in the package globals, so later
lookups never reach ``__getattr__`` and the value is the very object
the submodule defines.  An unknown name raises the standard
:class:`AttributeError`, which keeps ``from package import submodule``
working for submodules the map does not list.
"""

from __future__ import annotations

import importlib
import sys
import typing


def lazy_exports(package: str,
                 exports: typing.Mapping[str, typing.Sequence[str]]
                 ) -> typing.Tuple[typing.List[str],
                                   typing.Callable[[str], object],
                                   typing.Callable[[], typing.List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for *package*, whose
    public names *exports* maps from submodule to names."""
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> typing.List[str]:
        return sorted(namespace.keys() | home.keys())

    return sorted(home), __getattr__, __dir__
