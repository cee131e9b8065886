"""The config schema: field checks and the JSON form of the config dataclasses.

Config values arrive from JSON, where ``2.5``, ``"false"`` and ``NaN`` are
all well-formed values of the wrong kind. Each config checks its fields
against their annotations at construction, so such a value is rejected
before a run starts instead of being coerced or silently misread.

The same annotations define the JSON form: a field is a JSON key exactly
when ``check_fields`` checks its annotation. Any other field (a nested
config, a prebuilt object) is neither read from nor written to JSON.
"""

from __future__ import annotations

import dataclasses
import math
import numbers


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Annotations are matched as strings, so the config modules postpone their
# evaluation (``from __future__ import annotations``).
_CHECKS = {
    "bool": lambda value: isinstance(value, bool),
    "int": _is_int,
    "float": lambda value: isinstance(value, numbers.Real) and not isinstance(value, bool),
    "str": lambda value: isinstance(value, str),
    "tuple[int, ...]": lambda value: isinstance(value, tuple) and all(map(_is_int, value)),
}


def check_fields(obj) -> None:
    """Raise ValueError unless each scalar field matches its annotation.

    ``bool`` fields take only booleans, ``int`` fields only integers (not
    booleans), ``float`` fields any finite real number except booleans.
    Fields of any other annotation are left to the dataclass's own checks.
    """
    for f in dataclasses.fields(obj):
        if f.type not in _CHECKS:
            continue
        value = getattr(obj, f.name)
        if not _CHECKS[f.type](value):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def keys(cls) -> tuple[str, ...]:
    """The JSON keys of a dataclass: the fields ``check_fields`` checks."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.type in _CHECKS)


def load(cls, raw, section: str):
    """Build ``cls`` from ``raw``, the JSON object of config ``section``.

    A non-object or a key outside ``keys(cls)`` is rejected; lists become
    tuples. The dataclass checks the values.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"bad {section} config: expected an object, got {raw!r}")
    unknown = sorted(set(raw) - set(keys(cls)))
    if unknown:
        raise ValueError(f"bad {section} config: unknown keys {unknown}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def dump(obj) -> dict:
    """The JSON object of a dataclass instance: its ``keys`` and their values."""
    return {name: getattr(obj, name) for name in keys(type(obj))}
