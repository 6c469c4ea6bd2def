"""Deterministic, injective binary encoding for everything that gets signed or encrypted.

A tiny tagged length-prefixed format: two values encode to the same bytes only
if they are equal, and decoding inverts encoding exactly.  Supported values:
``None``, ``int``, ``str``, ``bytes``, :class:`fractions.Fraction`, and
(nested) lists of those, at most ``MAX_NESTING`` deep when decoded.
:func:`plain` and :func:`canonical_json` render engine state for the trace.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import fields
from fractions import Fraction
from math import gcd
from typing import Any, Sequence


class EncodingError(Exception):
    """Value cannot be encoded, or bytes are not a valid encoding."""


_HEAD = struct.Struct(">BI")  # tag, then a 4-byte big-endian length or item count
_N, _I, _S, _B, _Q, _L = b"NISBQL"  # the decoder compares tags as integers
MAX_NESTING = 32  # lists and fractions the decoder accepts inside one another; the engine's values nest 5 deep
_DUMPED: dict[type, tuple[str, ...]] = {}  # a dataclass -> the names of the fields :func:`plain` dumps


def _write(out: bytearray, value: Any) -> None:
    if isinstance(value, str):
        raw = value.encode()
        out += _HEAD.pack(_S, len(raw)) + raw
    elif isinstance(value, (bytes, bytearray)):
        out += _HEAD.pack(_B, len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out += _HEAD.pack(_L, len(value))
        for item in value:
            _write(out, item)
    elif value is None:
        out += b"N"
    elif isinstance(value, int) and not isinstance(value, bool):  # booleans are not part of the wire format
        raw = str(value).encode()
        out += _HEAD.pack(_I, len(raw)) + raw
    elif isinstance(value, Fraction):
        out += b"Q" + encode_value(value.numerator) + encode_value(value.denominator)
    else:
        raise EncodingError(f"cannot encode {type(value).__name__}")


def encode_value(value: Any) -> bytes:
    out = bytearray()
    _write(out, value)
    return bytes(out)


def _decode_at(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    start = pos + 5
    if start <= len(data):
        tag, length = _HEAD.unpack_from(data, pos)
    elif pos < len(data):  # too short for a head: an N or a Q, or any length overruns the input
        tag, length = data[pos], len(data)
    else:
        raise EncodingError("unexpected end of input")
    if depth == MAX_NESTING and tag in b"LQ":
        raise EncodingError("values nested too deeply")
    if tag in b"ISBL":
        end = start if tag == _L else start + length
        if end > len(data):
            raise EncodingError("truncated input")
        if tag == _L:
            items = []
            for _ in range(length):
                item, end = _decode_at(data, end, depth + 1)
                items.append(item)
            return items, end
        raw = data[start:end]
        if tag == _B:
            return raw, end
        try:
            value = raw.decode() if tag == _S else int(raw)
        except ValueError as exc:  # includes UnicodeDecodeError
            raise EncodingError(f"bad {chr(tag)} value") from exc
        if tag == _I and str(value).encode() != raw:
            raise EncodingError("integer digits are not canonical")
        return value, end
    if tag == _N:
        return None, pos + 1
    if tag == _Q:
        num, pos = _decode_at(data, pos + 1, depth + 1)
        den, pos = _decode_at(data, pos, depth + 1)
        if type(num) is not int or type(den) is not int or den <= 0 or gcd(num, den) != 1:
            raise EncodingError("fraction needs two integers in lowest terms and a positive denominator")
        return Fraction(num, den), pos
    raise EncodingError(f"unknown tag {bytes([tag])!r}")


def decode_value(data: bytes) -> Any:
    """Invert :func:`encode_value`; any input it did not produce raises :class:`EncodingError`."""
    value, pos = _decode_at(data, 0, 0)
    if pos != len(data):
        raise EncodingError("trailing bytes after value")
    return value


def encode(values: Sequence[Any]) -> bytes:
    """Encode a sequence of values as one canonical byte string."""
    return encode_value(list(values))


def plain(value: Any) -> Any:
    """JSON-ready form of engine state: a dataclass becomes its fields by name, without those declared
    ``repr=False``; bytes become hex, sets sorted lists, tuples and deques lists, and a dict key its plain
    form."""
    if value is None or isinstance(value, (str, int)):  # the leaves, most of a dump
        return value
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, (list, tuple, deque)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {plain(k): plain(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(map(plain, value))
    names = _DUMPED.get(type(value)) or _DUMPED.setdefault(type(value), tuple(f.name for f in fields(value) if f.repr))
    return {name: plain(getattr(value, name)) for name in names}  # fields() raises unless a dataclass


def canonical_json(obj: Any) -> str:
    """Stable JSON rendering: sorted keys, no whitespace, UTF-8 safe."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
