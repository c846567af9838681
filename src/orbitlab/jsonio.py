"""Canonical JSON writing and reading, shared by all reports and configs.

Reports must be byte-reproducible, so this module owns one serialization
policy: floats are printed with 17 significant digits (round-trip exact for
IEEE doubles), dict keys keep insertion order, and arbitrary-precision
integers pass through unchanged up to Python's int-to-str digit limit.

It also owns the package's value classes and the one codec between Python
values and JSON values. A Record reads its annotated fields once, when its
class is made, and shares one __init__, __eq__, __hash__ and __repr__
among all records, with no code generated per class. dumps is the one
writer: one walk writes the JSON leaves and containers, complex numbers and
NamedTuples it meets, and any other value through its one-level JSON form
(_json_value). decode is the one reader: it builds a record from its field
types, refusing keys it does not declare and naming the path of the first
malformed value.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import typing
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str, in C


class PreconditionError(ValueError):
    """A refused input: the root of every package error, the CLI's exit 1."""


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise PreconditionError(f"non-finite float {x!r} cannot appear in a report")
    if x.is_integer() and abs(x) < 1e16:
        # keep an explicit ".0" so the value reads back as a float
        return f"{x:.1f}"
    return format(x, ".17g")


def format_int(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise PreconditionError(
            f"integer of {n.bit_length()} bits has too many digits to appear in a report"
        ) from None


# the text of each JSON leaf type, by exact type; subclasses take _encode's
# isinstance tests
_LEAF_TEXT = {
    float: format_float,
    int: format_int,
    str: _quote,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _encode(obj, parts: list[str], pad: str) -> None:
    """Append obj's text to parts; pad is the indent of the line it starts on."""
    leaf = _LEAF_TEXT.get(type(obj))
    if leaf is not None:
        parts.append(leaf(obj))
    elif type(obj) in (list, tuple):
        if not obj:
            parts.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        parts.append("[\n" + inner)
        for value in obj:
            _encode(value, parts, inner)
            parts.append(sep)
        parts[-1] = "\n" + pad + "]"
    elif isinstance(obj, complex):
        inner = pad + "  "
        re, im = format_float(obj.real), format_float(obj.imag)
        parts.append(f"[\n{inner}{re},\n{inner}{im}\n{pad}]")
    elif isinstance(obj, (dict, tuple)):  # a tuple here is a NamedTuple: an object of its fields
        if not obj:
            parts.append("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        parts.append("{\n" + inner)
        for key, value in zip(obj._fields, obj) if isinstance(obj, tuple) else obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(_quote(key) + ": ")
            _encode(value, parts, inner)
            parts.append(sep)
        parts[-1] = "\n" + pad + "}"
    elif isinstance(obj, int):
        parts.append(format_int(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    else:
        _encode(_json_value(obj), parts, pad)


def dumps(obj) -> str:
    """Serialize to canonical JSON text, two-space indented, with a trailing newline."""
    parts: list[str] = []
    _encode(obj, parts, "")
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


def find_sha256(modules=("_sha2", "_sha256")):
    """sha256 of the first of the interpreter's builtin modules that exists
    (_sha2 from 3.12, _sha256 before), else hashlib's: importing hashlib loads
    OpenSSL, which costs a CLI process more than the digest of its config."""
    for name in modules:
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256


_sha256 = find_sha256()


def config_hash(cfg: dict) -> str:
    return _sha256(dumps(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# records and their codec

MISSING = object()  # the default of a required field


class Field:
    """A field declared with more than a default: `start: float = Field(key="from")`.

    The codec reads key (the field's JSON name), null (the value that JSON
    null stands for) and omit (left out of the JSON form); repr=False leaves
    the field out of repr(). default is MISSING for a required field.
    """

    __slots__ = ("name", "default", "key", "null", "omit", "repr")

    def __init__(self, default=MISSING, *, key=None, null=None, omit=False, repr=True):
        self.default, self.key, self.null, self.omit, self.repr = default, key, null, omit, repr


class Record:
    """Base of the package's immutable value classes.

    A subclass declares its fields as annotations, in order, each with an
    optional default or Field. They are read once into the class's `fields`
    table, after those of its bases. Records share one __init__ (fields by
    position or name, then defaults, then __post_init__ where the class has
    one), __eq__ and __hash__ over the field values of one class, and a
    `Name(field=value, ...)` repr. Assignment is refused, so an __init__ of
    its own sets fields with object.__setattr__.
    """

    fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        table = {f.name: f for f in cls.fields}
        for name in cls.__dict__.get("__annotations__", {}):
            f = cls.__dict__.get(name, MISSING)
            if not isinstance(f, Field):
                f = Field(f)
            elif f.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
            f.name, f.key = name, f.key or name
            table[name] = f
        cls.fields = tuple(table.values())

    def __init__(self, *args, **kwargs):
        name, fields, values = type(self).__name__, self.fields, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for f, value in zip(fields, args):
            values[f.name] = value
        for f in fields[len(args):]:
            value = kwargs.pop(f.name, f.default)
            if value is MISSING:
                raise TypeError(f"{name}() missing argument {f.name!r}")
            values[f.name] = value
        if kwargs:
            raise TypeError(f"{name}() got an unexpected argument {next(iter(kwargs))!r}")
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, f.name) for f in self.fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.fields if f.repr)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Family(Record):
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


def _json_value(obj):
    """The JSON form, one level deep, of a value that _encode does not write
    itself: what a to_json method returns, or an object of a record's fields
    (led by "kind" in a family)."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if not isinstance(obj, Record):
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")
    out = {"kind": obj.kind} if isinstance(obj, Family) else {}
    for f in obj.fields:
        if f.omit:
            continue
        value = getattr(obj, f.name)
        out[f.key] = None if f.null is not None and value == f.null else value
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
    keys = {f.key for f in cls.fields}
    return frozenset(keys | {"kind"} if issubclass(cls, Family) else keys)


def decode_key(cls, obj, key: str, path: str, default=MISSING):
    """decode(cls, obj[key], f"{path}.{key}") for the JSON object obj (just
    key at the top level, where path is ""); a missing key gives default, or
    is an error when there is none."""
    if not isinstance(obj, dict):
        raise _expected("an object", obj, path)
    sub = f"{path}.{key}" if path else key
    if key in obj:
        return decode(cls, obj[key], sub)
    if default is MISSING:
        raise PreconditionError(f"{sub}: missing field")
    return default


def decode(cls, obj, path: str):
    """Build a value of type cls from the JSON value obj.

    The inverse of dumps: a family root reads "kind" to pick its member,
    and a class with its own from_json decodes through it. A key that the
    record does not declare is refused ("kind" is declared for a family
    member). list, dict and object stand for raw JSON values of that type.
    Numbers must be JSON numbers (not booleans or strings). Every malformed value
    is a PreconditionError that starts with its path, e.g. `set.members[1].radius: missing field`.
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
    for f in cls.fields:
        if f.null is not None and obj.get(f.key, MISSING) is None:
            args.append(f.null)
        else:
            args.append(decode_key(hints[f.name], obj, f.key, path, f.default))
    return construct(cls, path, *args)
