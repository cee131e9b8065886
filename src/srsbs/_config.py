"""Type and finiteness checks shared by the config dataclasses.

Config values arrive from JSON, where ``2.5``, ``"false"`` and ``NaN`` are
all well-formed values of the wrong kind. Each config checks its fields
against their annotations at construction, so such a value is rejected
before a run starts instead of being coerced or silently misread.
"""

from __future__ import annotations

import dataclasses
import math
import numbers


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_fields(obj, allow_inf: tuple[str, ...] = ()) -> None:
    """Raise ValueError unless each scalar field matches its annotation.

    ``bool`` fields take only booleans, ``int`` fields only integers (not
    booleans), ``float`` fields any real number except booleans and NaN;
    infinity only for the fields named in ``allow_inf``. Fields of any other
    annotation are left to the dataclass's own checks. Annotations are
    matched as strings, so the config modules postpone their evaluation
    (``from __future__ import annotations``).
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type == "bool":
            ok = isinstance(value, bool)
        elif f.type == "int":
            ok = _is_int(value)
        elif f.type == "float":
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if ok and not math.isfinite(value) and (
                math.isnan(value) or f.name not in allow_inf
            ):
                raise ValueError(f"{f.name} must be finite, got {value}")
        elif f.type == "str":
            ok = isinstance(value, str)
        elif f.type == "tuple[int, ...]":
            ok = isinstance(value, tuple) and all(_is_int(x) for x in value)
        else:
            continue
        if not ok:
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
