from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover.encoding import EncodingError, decode_value, encode, encode_value


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
        b"L\x00\x00\x00\x01" * 5000 + b"N",  # nested deeper than the interpreter recurses
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
