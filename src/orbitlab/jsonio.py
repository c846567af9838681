"""Canonical JSON encoding shared by all report writers.

Reports must be byte-reproducible, so this module owns one serialization
policy: floats are printed with 17 significant digits (round-trip exact for
IEEE doubles), dict keys keep insertion order, and arbitrary-precision
integers pass through unchanged. Complex numbers are encoded as [re, im]
pairs; exact scalars as {"num", "exp2"} when dyadic, {"num", "den"} otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot appear in a report")
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
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.dumps(key)}: ")
            _encode(value, parts, indent, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(seq):
            parts.append(inner)
            _encode(value, parts, indent, level + 1)
            parts.append(",\n" if i + 1 < len(seq) else "\n")
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
    raise ValueError(f"non-finite number {token} is not allowed in JSON input")


def _finite_float(text: str) -> float:
    x = float(text)
    if math.isinf(x):
        raise ValueError(f"number {text} overflows to a non-finite float")
    return x


def loads(text: str):
    """Parse JSON text; NaN, Infinity and overflowing numbers are rejected
    here, because a report could not encode them."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(dumps(cfg).encode("utf-8")).hexdigest()


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def encode_fraction(fr: Fraction) -> dict:
    """Exact encoding; dyadic denominators compress to an exponent field."""
    num, den = fr.numerator, fr.denominator
    if den & (den - 1) == 0:
        return {"num": num, "exp2": -(den.bit_length() - 1)}
    return {"num": num, "den": den}

