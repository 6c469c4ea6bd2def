import struct
import sys
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover.encoding import MAX_NESTING, EncodingError, decode_value, encode, encode_value, plain


@pytest.mark.parametrize(
    "value",
    [
        None,
        0,
        -1,
        36**8 - 1,
        "",
        "tracking-id",
        "ünïcode ✓",
        b"",
        b"\x00\xff" * 9,
        Fraction(15432, 125),
        Fraction(-7, 3),
        [],
        [1, "two", b"three", None, Fraction(1, 2), ["nested", [2]]],
    ],
)
def test_roundtrip(value):
    assert decode_value(encode_value(value)) == value


def test_injectivity_on_close_values():
    pairs = [
        (1, "1"),
        ("1", b"1"),
        (b"", ""),
        (None, ""),
        ([1, 2], [12]),
        (["ab", "c"], ["a", "bc"]),
        (Fraction(1, 2), [1, 2]),
        (-12, 12),
    ]
    for a, b in pairs:
        assert encode_value(a) != encode_value(b)


def test_encode_sequence_matches_list():
    assert encode([1, "x"]) == encode_value([1, "x"])


def test_trailing_bytes_rejected():
    with pytest.raises(EncodingError):
        decode_value(encode_value(1) + b"x")


def test_truncation_rejected():
    raw = encode_value([1, 2, 3])
    for cut in range(1, len(raw)):
        with pytest.raises(EncodingError):
            decode_value(raw[:cut])


def test_unknown_tag_rejected():
    with pytest.raises(EncodingError):
        decode_value(b"Zjunk")


def _text(tag, raw):
    return tag + len(raw).to_bytes(4, "big") + raw


@pytest.mark.parametrize(
    "data",
    [
        b"Q" + encode_value(1) + encode_value(0),
        b"Q" + encode_value("1") + encode_value(2),
        b"Q" + encode_value(1) + b"N",
        b"Q" + encode_value([1]) + encode_value(2),
        _text(b"I", b"x"),
        _text(b"I", b"\xff"),
        _text(b"S", b"\xff"),
        b"L\x00\x00\x00\x01" * 5000 + b"N",  # nested far deeper than MAX_NESTING
        b"Q" * 5000 + encode_value(1),  # fractions as numerators, as deep
        _text(b"I", b"1_000"),
        _text(b"I", b" 12"),
        _text(b"I", b"+5"),
        _text(b"I", b"-0"),
        _text(b"I", b"07"),
        b"Q" + encode_value(2) + encode_value(4),
        b"Q" + encode_value(1) + encode_value(-2),
    ],
    ids=[
        "zero-denominator",
        "str-numerator",
        "none-denominator",
        "list-numerator",
        "int-not-a-number",
        "int-not-ascii",
        "str-not-utf8",
        "deep-nesting",
        "deep-fractions",
        "int-underscore",
        "int-leading-space",
        "int-plus-sign",
        "int-minus-zero",
        "int-leading-zero",
        "fraction-not-reduced",
        "fraction-negative-denominator",
    ],
)
def test_malformed_input_raises_only_encoding_error(data):
    with pytest.raises(EncodingError):
        decode_value(data)


def test_unencodable_values_rejected():
    with pytest.raises(EncodingError):
        encode_value(object())
    with pytest.raises(EncodingError):
        encode_value(True)
    with pytest.raises(EncodingError):
        encode_value(1.5)


_scalars = st.one_of(
    st.none(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.fractions(),
)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=6), max_leaves=25)


@given(value=_values)
@settings(max_examples=200, deadline=None)
def test_roundtrip_property(value):
    assert decode_value(encode_value(value)) == value


@given(a=_values, b=_values)
@settings(max_examples=200, deadline=None)
def test_injectivity_property(a, b):
    # tuples and lists encode identically by design; normalize before comparing
    if a != b:
        assert encode_value(a) != encode_value(b)


_small_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=4)
# bytes int() accepts in non-canonical digits, plus any byte at all
_mutant_bytes = st.one_of(st.sampled_from(b" +-0_"), st.integers(0, 255))


@st.composite
def _mutated_encodings(draw):
    data = bytearray(encode_value(draw(_small_values)))
    data[draw(st.integers(0, len(data) - 1))] = draw(_mutant_bytes)
    return bytes(data)


@given(data=st.one_of(st.binary(max_size=64), _mutated_encodings()))
@settings(max_examples=1000, deadline=None)
def test_decoder_accepts_only_canonical_bytes(data):
    # canonical: whatever decodes re-encodes to exactly the input bytes
    try:
        value = decode_value(data)
    except EncodingError:
        return
    assert encode_value(value) == data


# -- the recursive codec this module replaced, kept as an oracle --------------


def _oracle_encode_value(value):
    if value is None:
        return b"N"
    if isinstance(value, bool):
        raise EncodingError("booleans are not part of the wire format")
    if isinstance(value, int):
        digits = str(value).encode("ascii")
        return b"I" + struct.pack(">I", len(digits)) + digits
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + struct.pack(">I", len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        return b"B" + struct.pack(">I", len(value)) + bytes(value)
    if isinstance(value, Fraction):
        return b"Q" + _oracle_encode_value(value.numerator) + _oracle_encode_value(value.denominator)
    if isinstance(value, (list, tuple)):
        parts = [_oracle_encode_value(item) for item in value]
        return b"L" + struct.pack(">I", len(parts)) + b"".join(parts)
    raise EncodingError(f"cannot encode {type(value).__name__}")


def _oracle_decode_at(data, pos):
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
        except ValueError as exc:
            raise EncodingError(f"bad {tag.decode()} value") from exc
        if tag == b"I" and str(value) != text:
            raise EncodingError("integer digits are not canonical")
        return value, pos
    if tag == b"Q":
        num, pos = _oracle_decode_at(data, pos)
        den, pos = _oracle_decode_at(data, pos)
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
            item, pos = _oracle_decode_at(data, pos)
            items.append(item)
        return items, pos
    raise EncodingError(f"unknown tag {tag!r}")


def _oracle_decode_value(data):
    try:
        value, pos = _oracle_decode_at(data, 0)
    except RecursionError as exc:
        raise EncodingError("lists nested too deeply") from exc
    if pos != len(data):
        raise EncodingError("trailing bytes after value")
    return value


def _outcome(function, argument):
    """What a codec function does with ``argument``: its result with every type spelled out, or the rejection."""
    try:
        result = function(argument)
    except EncodingError:
        return "EncodingError"
    return _typed(result)


def _typed(value):
    # pre-order tokens with list lengths; a loop, as the value may nest past the recursion limit
    tokens, stack = [], [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            tokens.append(("list", len(item)))
            stack.extend(reversed(item))
        else:
            tokens.append((type(item).__name__, item))
    return tokens


class _Int(int):
    pass


_any_scalars = st.one_of(
    _scalars,
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30).map(_Int),
    st.binary(max_size=40).map(bytearray),
    st.fractions(max_denominator=10**12),
)
_any_values = st.recursive(
    _any_scalars, lambda inner: st.one_of(st.lists(inner, max_size=6), st.lists(inner, max_size=6).map(tuple)), max_leaves=25
)


@given(value=_any_values)
@settings(max_examples=300, deadline=None)
def test_encoder_writes_the_oracles_bytes(value):
    assert _outcome(encode_value, value) == _outcome(_oracle_encode_value, value)
    assert _outcome(encode, [value]) == _outcome(_oracle_encode_value, [value])


def _nested(depth):
    return b"L\x00\x00\x00\x01" * depth + b"N"


# up to the decoder's limit, where the recursive oracle agrees with it; past the limit, see the next test
_depths = st.integers(0, MAX_NESTING)


@st.composite
def _mutated_nesting(draw):
    data = bytearray(_nested(draw(_depths)))
    if draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(_mutant_bytes)
    return bytes(data)


@given(data=st.one_of(st.binary(max_size=64), _mutated_encodings(), _mutated_nesting()))
@settings(max_examples=600, deadline=None)
def test_decoder_accepts_and_rejects_as_the_oracle(data):
    assert _outcome(decode_value, data) == _outcome(_oracle_decode_value, data)


def _deepest_accepted(decode):
    low, high = 0, 20 * sys.getrecursionlimit()  # low decodes, high does not
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if _outcome(decode, _nested(mid)) == "EncodingError" else (mid, high)
    return low


def _at_stack_depth(frames, function):
    return function() if frames == 0 else _at_stack_depth(frames - 1, function)


def test_nesting_limit_is_the_constant_at_any_stack_depth():
    # the limit counts the lists in the bytes, not the caller's frames
    shallow = _deepest_accepted(decode_value)
    deep = _at_stack_depth(sys.getrecursionlimit() // 2, lambda: _deepest_accepted(decode_value))
    assert shallow == deep == MAX_NESTING


@dataclass
class _State:
    key: bytes
    seen: set
    open: dict
    queue: deque
    parsed: object = field(default=None, repr=False)


def test_plain_renders_state_as_json_ready_values():
    state = _State(b"\x01\xff", {"b", "a"}, {b"\x04": ("kind", {"n": b"\x02"})}, deque([(b"\x03", "k")]), object())
    assert plain(state) == {
        "key": "01ff",
        "seen": ["a", "b"],
        "open": {"04": ["kind", {"n": "02"}]},
        "queue": [["03", "k"]],
    }
