"""Deterministic, injective binary encoding for everything that gets signed.

A tiny tagged length-prefixed format: two values encode to the same bytes only
if they are equal, and decoding inverts encoding exactly.  Supported values:
``None``, ``int``, ``str``, ``bytes``, :class:`fractions.Fraction`, and
(nested) lists of those.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction
from math import gcd
from typing import Any, Sequence


class EncodingError(Exception):
    """Value cannot be encoded, or bytes are not a valid encoding."""


def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


def encode_value(value: Any) -> bytes:
    if value is None:
        return b"N"
    if isinstance(value, bool):
        raise EncodingError("booleans are not part of the wire format")
    if isinstance(value, int):
        digits = str(value).encode("ascii")
        return b"I" + _u32(len(digits)) + digits
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + _u32(len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        return b"B" + _u32(len(value)) + bytes(value)
    if isinstance(value, Fraction):
        return b"Q" + encode_value(value.numerator) + encode_value(value.denominator)
    if isinstance(value, (list, tuple)):
        parts = [encode_value(item) for item in value]
        return b"L" + _u32(len(parts)) + b"".join(parts)
    raise EncodingError(f"cannot encode {type(value).__name__}")


def _decode_at(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise EncodingError("unexpected end of input")
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag in (b"I", b"S", b"B"):
        if pos + 4 > len(data):
            raise EncodingError("truncated length prefix")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        pos += 4
        raw = data[pos : pos + length]
        if len(raw) != length:
            raise EncodingError("truncated value")
        pos += length
        if tag == b"B":
            return raw, pos
        try:
            text = raw.decode("utf-8" if tag == b"S" else "ascii")
            value = int(text) if tag == b"I" else text
        except ValueError as exc:  # includes UnicodeDecodeError
            raise EncodingError(f"bad {tag.decode()} value") from exc
        if tag == b"I" and str(value) != text:
            raise EncodingError("integer digits are not canonical")
        return value, pos
    if tag == b"Q":
        num, pos = _decode_at(data, pos)
        den, pos = _decode_at(data, pos)
        if type(num) is not int or type(den) is not int or den <= 0 or gcd(num, den) != 1:
            raise EncodingError("fraction needs two integers in lowest terms and a positive denominator")
        return Fraction(num, den), pos
    if tag == b"L":
        if pos + 4 > len(data):
            raise EncodingError("truncated length prefix")
        (count,) = struct.unpack(">I", data[pos : pos + 4])
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_at(data, pos)
            items.append(item)
        return items, pos
    raise EncodingError(f"unknown tag {tag!r}")


def decode_value(data: bytes) -> Any:
    """Invert :func:`encode_value`; any input it did not produce raises :class:`EncodingError`."""
    try:
        value, pos = _decode_at(data, 0)
    except RecursionError as exc:
        raise EncodingError("lists nested too deeply") from exc
    if pos != len(data):
        raise EncodingError("trailing bytes after value")
    return value


def encode(values: Sequence[Any]) -> bytes:
    """Encode a sequence of values as one canonical byte string."""
    return encode_value(list(values))


def canonical_json(obj: Any) -> str:
    """Stable JSON rendering: sorted keys, no whitespace, UTF-8 safe."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
