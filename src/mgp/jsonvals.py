"""Strict conversion of parsed JSON values into arrays and config objects.

``json.loads`` yields ``bool``, ``int``, ``float``, ``str`` and ``None``
leaves, and numpy reads ``true`` as 1.0, ``"1.5"`` as 1.5 and ``None`` as
NaN without complaint. These helpers check the type of every leaf first, so
a mistyped field raises ValidationError instead of being coerced.
:func:`decode` applies the same rules to every key of a config dataclass,
walking its fields by their type hints.
"""
from __future__ import annotations

import enum
import functools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from itertools import chain
from typing import Any, Callable, TypeVar

import numpy as np

from .core import AntennaLayout, UnitQuaternion, Vec3, hexagon_layout, read_quaternion
from .errors import ConfigurationError, InputError, ValidationError

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
    bad = np.count_nonzero(~np.isfinite(a))
    # a null reads as NaN: count the nulls only when there is a NaN to explain
    if bad and bad != (flat.count(None) if nulls else 0):
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


def integer(value: Any, what: str) -> int:
    """One JSON integer (not a boolean)."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def flag(value: Any, what: str) -> bool:
    """One JSON boolean."""
    if type(value) is not bool:
        raise ValidationError(f"{what} must be a boolean, got {value!r}")
    return value


def string(value: Any, what: str) -> str:
    """One JSON string."""
    if type(value) is not str:
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


# -- config objects -------------------------------------------------------------

T = TypeVar("T")

_SCALARS = {bool: flag, int: integer, float: number, str: string}
_ARRAYS = {int: integers, float: floats}
_POINTS = {
    Vec3: (3, lambda v: Vec3(*v)),
    UnitQuaternion: (4, read_quaternion),
}


@dataclass(frozen=True)
class _Hexagon:
    hexagon_circumradius_m: float


def decode(cls: type[T], obj: Any, where: str) -> T:
    """The config dataclass ``cls`` from its JSON object form.

    Each field is one key, read by its type hint: ``bool``, ``int``,
    ``float`` and ``str`` by the rules above, an enum by its value, a
    :class:`Vec3` as 3 numbers, a :class:`UnitQuaternion` as 4 of unit norm
    within :data:`mgp.core.QUAT_READ_TOL` (then normalized),
    ``X | None`` as null or an X, ``tuple[X, ...]`` and fixed-length tuples
    as arrays, and a nested dataclass as an object. An
    :class:`AntennaLayout` is ``{"body_positions": [...]}`` or
    ``{"hexagon_circumradius_m": r}``. A missing key takes the field's
    default.

    A value of the wrong JSON type, a missing required key or an unknown key
    raises ConfigurationError; a constructor's ValidationError passes
    through. Both messages start with ``where`` and the dotted key path.
    """
    return _within(where, _dataclass, cls, obj, "")


def load(cls: type[T], path: str, where: str) -> T:
    """:func:`decode` of the JSON object in the file at ``path``; every
    message starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if type(obj) is not dict:
        raise InputError(f"{path}: expected a JSON object at top level")
    return _within(path, decode, cls, obj, where)


@functools.cache
def _fields(cls: type) -> dict[str, tuple[Any, bool]]:
    """Each init field's resolved type hint and whether it is required.
    Resolved on first use, not at import."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if f.init
    }


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _dataclass(cls: type[T], value: Any, path: str) -> T:
    if type(value) is not dict:
        raise ConfigurationError(f"{path or 'config'} must be a JSON object, got {value!r}")
    spec = _fields(cls)
    unknown = sorted(set(value) - set(spec), key=str)
    if unknown:
        raise ConfigurationError(f"unknown key {', '.join(_key(path, k) for k in unknown)}")
    kwargs = {}
    for name, (hint, required) in spec.items():
        if name in value:
            kwargs[name] = _value(hint, value[name], _key(path, name))
        elif required:
            raise ConfigurationError(f"{_key(path, name)} is required")
    return _within(path, cls, **kwargs)


def _within(prefix: str, build: Callable[..., T], *args: Any, **kwargs: Any) -> T:
    """``build(*args, **kwargs)``, with ``prefix`` (a file or key path) put
    before the message of a ConfigurationError or ValidationError."""
    try:
        return build(*args, **kwargs)
    except (ConfigurationError, ValidationError) as exc:
        if not prefix:
            raise
        raise type(exc)(f"{prefix}: {exc}") from exc


def _leaf(rule: Callable[[Any, str], Any], value: Any, path: str) -> Any:
    """``rule(value, path)``, its type complaint a configuration error."""
    try:
        return rule(value, path)
    except ValidationError as exc:
        raise ConfigurationError(str(exc)) from None


def _value(hint: Any, value: Any, path: str) -> Any:
    if hint in _SCALARS:
        return _leaf(_SCALARS[hint], value, path)
    if hint in _POINTS:
        size, build = _POINTS[hint]
        v = _leaf(floats, value, path).tolist()
        if len(v) != size:
            raise ConfigurationError(f"{path} must be {size} numbers, got {len(v)}")
        return _within(path, build, v)
    if hint is AntennaLayout and type(value) is dict:
        if ("body_positions" in value) == ("hexagon_circumradius_m" in value):
            raise ConfigurationError(
                f"{path} needs exactly one of body_positions and hexagon_circumradius_m"
            )
        if "body_positions" not in value:
            radius = _dataclass(_Hexagon, value, path).hexagon_circumradius_m
            return _within(path, hexagon_layout, radius)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        for member in hint:
            if type(member.value) is type(value) and member.value == value:
                return member
        names = [member.value for member in hint]
        raise ConfigurationError(f"{path} must be one of {names}, got {value!r}")
    if is_dataclass(hint):
        return _dataclass(hint, value, path)
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _value(inner, value, path)
    if typing.get_origin(hint) is tuple:
        if args[1:] == (Ellipsis,) and args[0] in _ARRAYS:
            return tuple(_leaf(_ARRAYS[args[0]], value, path).tolist())
        if type(value) is not list:
            raise ConfigurationError(f"{path} must be a JSON array, got {value!r}")
        if args[1:] == (Ellipsis,):
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(f"{path} must be {len(args)} values, got {len(value)}")
        return tuple(_value(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    raise TypeError(f"{path}: no JSON form for {hint!r}")
