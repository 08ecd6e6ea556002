"""Ground answer-set programs compiled to tight ordered completion.

The names below load their module on first use, so that importing one
part of the package, the oracle say, loads no other part.
"""

import importlib

__version__ = "0.1.0"

_HOME = {"parse_program": "parser", "Program": "program", "Rule": "program",
         "toc_module": "toc", "toc_program": "toc"}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
