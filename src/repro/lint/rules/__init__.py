"""Built-in lint rules.

Importing this package registers every rule with
:mod:`repro.lint.registry`. To add a rule: create (or extend) a module
here, subclass :class:`repro.lint.registry.Rule`, decorate it with
:func:`repro.lint.registry.register_rule`, and import the module below.
See ``docs/lint.md`` for a worked example.
"""

from repro.lint.rules import (  # noqa: F401  (imports register the rules)
    determinism,
    hotpath,
    hygiene,
    imports,
    instrument_names,
    layering,
    units,
)

__all__ = [
    "determinism",
    "hotpath",
    "hygiene",
    "imports",
    "instrument_names",
    "layering",
    "units",
]
