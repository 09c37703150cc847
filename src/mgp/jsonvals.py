"""Strict conversion of parsed JSON values into arrays.

``json.loads`` yields ``bool``, ``int``, ``float``, ``str`` and ``None``
leaves, and numpy reads ``true`` as 1.0, ``"1.5"`` as 1.5 and ``None`` as
NaN without complaint. These helpers check the type of every leaf first, so
a mistyped field raises ValidationError instead of being coerced.
"""
from __future__ import annotations

import math
from itertools import chain
from typing import Any

import numpy as np

from .errors import ValidationError

_NUMBER = frozenset((int, float))
_NUMBER_OR_NULL = frozenset((int, float, type(None)))


def _leaves(values: Any, what: str, width: int | None, types: frozenset, noun: str) -> list:
    """A JSON array's values, or those of an array of ``width``-value arrays
    flattened in row order, after checking that each has one of ``types``."""
    if type(values) is not list:
        raise ValidationError(f"{what} must be a JSON array")
    if width is not None:
        if values and set(map(len, values)) != {width}:
            raise ValidationError(f"{what} need {width} values each")
        values = list(chain.from_iterable(values))
    if not types.issuperset(map(type, values)):
        raise ValidationError(f"{what} must be {noun}")
    return values


def _array(values: list, flat: list, dtype: type, what: str, width: int | None) -> np.ndarray:
    try:
        a = np.array(flat, dtype=dtype)
    except OverflowError as exc:
        raise ValidationError(f"{what} out of range") from exc
    return a if width is None else a.reshape(len(values), width)


def floats(
    values: Any, what: str, width: int | None = None, *, nulls: bool = False
) -> np.ndarray:
    """Finite JSON numbers as float64, shape (n,) or (n, width). With
    ``nulls``, a JSON null reads as NaN and is the only non-finite value."""
    flat = _leaves(values, what, width, _NUMBER_OR_NULL if nulls else _NUMBER, "numbers")
    a = _array(values, flat, np.float64, what, width)
    if np.count_nonzero(~np.isfinite(a)) != (flat.count(None) if nulls else 0):
        raise ValidationError(f"{what} must be finite")
    return a


def integers(values: Any, what: str, width: int | None = None) -> np.ndarray:
    """JSON integers (not booleans) as int64, shape (n,) or (n, width)."""
    flat = _leaves(values, what, width, frozenset((int,)), "integers")
    return _array(values, flat, np.int64, what, width)


def flags(values: Any, what: str) -> np.ndarray:
    """JSON booleans as a bool array."""
    return np.array(_leaves(values, what, None, frozenset((bool,)), "booleans"), dtype=bool)


def strings(values: Any, what: str) -> tuple[str, ...]:
    return tuple(_leaves(values, what, None, frozenset((str,)), "strings"))


def number(value: Any, what: str) -> float:
    """One finite JSON number."""
    if type(value) not in _NUMBER:
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return x
