"""Canonical JSON encoding shared by all report writers.

Reports must be byte-reproducible, so this module owns one serialization
policy: floats are printed with 17 significant digits (round-trip exact for
IEEE doubles), dict keys keep insertion order, and arbitrary-precision
integers pass through unchanged.

It also owns the one codec between Python values and JSON values. encode is
the only place where a report value becomes JSON. It tests for the JSON
leaves (float, int, str, bool, None) first, recurses into dicts, lists and
tuples (a NamedTuple becomes an object of its fields), writes a dataclass's
fields in declaration order minus those whose metadata sets "omit", and
encodes whatever a to_json method returns in turn. decode builds a
dataclass from its field types, refusing keys it does not declare and
naming the path of the first malformed value.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str, in C


class PreconditionError(ValueError):
    """A refused input: the root of every package error, the CLI's exit 1."""


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise PreconditionError(f"non-finite float {x!r} cannot appear in a report")
    if x == int(x) and abs(x) < 1e16:
        # keep an explicit ".0" so the value reads back as a float
        return f"{x:.1f}"
    return format(x, ".17g")


def _encode(obj, parts: list[str], indent: str, level: int) -> None:
    pad = indent * level
    inner = indent * (level + 1)
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{inner}{_quote(key)}: ")
            _encode(value, parts, indent, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(inner)
            _encode(value, parts, indent, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dumps(obj, indent: int = 2) -> str:
    """Serialize to canonical JSON text (trailing newline included)."""
    parts: list[str] = []
    _encode(obj, parts, " " * indent, 0)
    parts.append("\n")
    return "".join(parts)


def _reject_constant(token: str):
    raise PreconditionError(f"non-finite number {token} is not allowed in JSON input")


def _finite_float(text: str) -> float:
    x = float(text)
    if math.isinf(x):
        raise PreconditionError(f"number {text} overflows to a non-finite float")
    return x


def loads(text: str):
    """Parse JSON text; NaN, Infinity and overflowing numbers are rejected
    here, because a report could not encode them."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(dumps(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# dataclass codec


class Family:
    """Root of a variant family, such as ScalarSet.

    Each member names its kind, `class Circle(ScalarSet, kind="circle")`, and
    so enters the root's `kinds` table. Its JSON object leads with "kind".
    """

    def __init_subclass__(cls, kind=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if Family in cls.__bases__:
            cls.kinds = {}
        elif kind is not None:
            cls.kind = kind
            cls.kinds[kind] = cls


_LEAVES = frozenset({float, int, str, bool, type(None)})


def encode(obj):
    """The JSON value of obj.

    A dataclass becomes an object of its fields, led by "kind" for a family
    member. A field's metadata may rename its key ("key"), name the value
    that null stands for ("null") or leave the field out ("omit"). Complex
    numbers become [re, im] pairs.
    """
    if type(obj) in _LEAVES:  # most values are: test first, and inline in containers
        return obj
    if type(obj) in (list, tuple):
        return [x if type(x) in _LEAVES else encode(x) for x in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {key: x if type(x) in _LEAVES else encode(x) for key, x in obj.items()}
    if isinstance(obj, tuple):  # a NamedTuple
        return {key: x if type(x) in _LEAVES else encode(x) for key, x in zip(obj._fields, obj)}
    if hasattr(obj, "to_json"):
        return encode(obj.to_json())
    if not dataclasses.is_dataclass(obj):
        return obj
    out = {"kind": obj.kind} if isinstance(obj, Family) else {}
    for f in dataclasses.fields(obj):
        if f.metadata.get("omit"):
            continue
        value = getattr(obj, f.name)
        null = f.metadata.get("null")
        out[f.metadata.get("key", f.name)] = (
            None if null is not None and value == null else encode(value)
        )
    return out


_JSON_TYPES = {
    bool: "a boolean", int: "a number", float: "a number", str: "a string",
    list: "a list", dict: "an object", type(None): "null",
}
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"),
            bool: (bool, "a boolean"), str: (str, "a string")}
# raw JSON values, checked for their type only: a list, an object, anything
_RAW = {list: "a list", dict: "an object", object: "a value"}


@functools.cache
def _field_types(cls) -> dict:
    # resolved on first use: a process that decodes nothing pays nothing
    return typing.get_type_hints(cls)


def _expected(what: str, obj, path: str) -> PreconditionError:
    return PreconditionError(f"{path}: expected {what}, got {_JSON_TYPES.get(type(obj), 'a value')}")


def construct(make, path: str, *args):
    """make(*args) on decoded input; a ValueError becomes a refusal prefixed by path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise PreconditionError(f"{path}: {exc}") from exc


def check_keys(obj, known, path: str) -> None:
    """Refuse a JSON object obj (at path) holding a key outside known: the
    PreconditionError names the first such key, e.g. `set.outer_radus: unknown field`."""
    if not isinstance(obj, dict):
        raise _expected("an object", obj, path)
    for key in obj:
        if key not in known:
            raise PreconditionError(f"{path + '.' if path else ''}{key}: unknown field")


@functools.cache
def _declared_keys(cls) -> frozenset:
    keys = {f.metadata.get("key", f.name) for f in dataclasses.fields(cls)}
    return frozenset(keys | {"kind"} if issubclass(cls, Family) else keys)


def decode_key(cls, obj, key: str, path: str, default=dataclasses.MISSING):
    """decode(cls, obj[key], f"{path}.{key}") for the JSON object obj (just
    key at the top level, where path is ""); a missing key gives default, or
    is an error when there is none."""
    if not isinstance(obj, dict):
        raise _expected("an object", obj, path)
    sub = f"{path}.{key}" if path else key
    if key in obj:
        return decode(cls, obj[key], sub)
    if default is dataclasses.MISSING:
        raise PreconditionError(f"{sub}: missing field")
    return default


def decode(cls, obj, path: str):
    """Build a value of type cls from the JSON value obj.

    The inverse of encode: a family root reads "kind" to pick its member,
    and a class with its own from_json decodes through it. A key that the
    dataclass does not declare is refused ("kind" is declared for a family
    member). list, dict and object stand for raw JSON values of that type,
    and Literal[...] admits only the values it lists. Numbers must be JSON
    numbers (not booleans or strings). Every malformed value is a
    PreconditionError that starts with its path, e.g. `set.members[1].radius: missing field`.
    """
    if cls in _SCALARS:
        types, what = _SCALARS[cls]
        if not isinstance(obj, types) or (isinstance(obj, bool) and cls is not bool):
            raise _expected(what, obj, path)
        try:
            return cls(obj)
        except OverflowError:
            raise PreconditionError(f"{path}: number too large for a float") from None
    if cls in _RAW:
        if not isinstance(obj, cls):
            raise _expected(_RAW[cls], obj, path)
        return obj
    if typing.get_origin(cls) is typing.Literal:
        allowed = typing.get_args(cls)
        if obj not in allowed:
            raise PreconditionError(f"{path}: expected one of {list(allowed)}, got {obj!r}")
        return obj
    if cls is complex:
        if not (isinstance(obj, list) and len(obj) == 2):
            raise _expected("an [re, im] pair", obj, path)
        z = complex(decode(float, obj[0], f"{path}[0]"), decode(float, obj[1], f"{path}[1]"))
        try:
            abs(z)  # every consumer takes the modulus
        except OverflowError:
            raise PreconditionError(f"{path}: modulus too large for a float") from None
        return z
    if typing.get_origin(cls) is tuple:
        items = typing.get_args(cls)
        if items[-1] is Ellipsis:
            if not isinstance(obj, list):
                raise _expected("a list", obj, path)
            items = items[:1] * len(obj)
        elif not (isinstance(obj, list) and len(obj) == len(items)):
            raise _expected(f"a list of {len(items)}", obj, path)
        return tuple(decode(t, x, f"{path}[{i}]") for i, (t, x) in enumerate(zip(items, obj)))
    from_json = getattr(cls, "from_json", None)
    if from_json is not None:
        return from_json(obj, path)
    if "kinds" in cls.__dict__:
        kind = decode_key(str, obj, "kind", path)
        if kind not in cls.kinds:
            known = sorted(cls.kinds)
            raise PreconditionError(f"{path}.kind: unknown kind {kind!r}, not one of {known}")
        cls = cls.kinds[kind]
    check_keys(obj, _declared_keys(cls), path)
    hints = _field_types(cls)
    args = []
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        if "null" in f.metadata and key in obj and obj[key] is None:
            args.append(f.metadata["null"])
        else:
            args.append(decode_key(hints[f.name], obj, key, path, f.default))
    return construct(cls, path, *args)
