"""Exact construction and cross-validation of Ward-related integer triangles.

`Kind` and `Strategy`, all that the command line needs to read its
arguments, are defined here (`triangles` re-exports them).  Every other
public name is read from its submodule on first use (PEP 562), so
`import wardtri`, `wardtri --help` and a usage error compile none of the
triangle engine.
"""

import sys
from enum import Enum
from types import ModuleType


class Kind(Enum):
    WARD1 = "ward1"
    WARD2 = "ward2"
    WARD_LAH = "ward-lah"
    VARIED_WARD1 = "varied-ward1"
    VARIED_WARD2 = "varied-ward2"
    VARIED_WARD_LAH = "varied-ward-lah"
    BINOMIAL_WARD1 = "binomial-ward1"
    BINOMIAL_WARD2 = "binomial-ward2"
    BINOMIAL_WARD_LAH = "binomial-ward-lah"


class Strategy(Enum):
    RECURRENCE = "recurrence"
    EXPLICIT = "explicit"
    PARTITION_TRANSFORM = "partition-transform"
    SCALING = "scaling"
    ALTERNATING_SUM = "alternating-sum"


__version__ = "0.1.0"

# The submodule that defines each name read on first use.
_SOURCE = {
    "ExactnessError": "exact_arith",
    "exact_div": "exact_arith",
    "constant_one": "partition_transform",
    "partition_transform": "partition_transform",
    "ward_first_kind": "partition_transform",
    "ward_second_kind": "partition_transform",
    "Triangle": "triangles",
    "UnsupportedStrategyError": "triangles",
    "central": "triangles",
    "lah": "triangles",
    "stirling1_unsigned": "triangles",
    "stirling2": "triangles",
    "stream": "triangles",
    "triangle": "triangles",
    "value": "triangles",
}

__all__ = sorted(["Kind", "Strategy", *_SOURCE])


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})


class _Package(ModuleType):
    """The import system binds each submodule it loads on its package, and
    `partition_transform` names both a submodule and the function it
    exports: a public name is never rebound to a module, so it keeps its
    object in any import order."""

    def __setattr__(self, name, value):
        if not (name in _SOURCE and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
