"""The PIN-secrecy scan over one joined wire buffer reports exactly what the
per-chunk scan reported, order included."""

import functools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from handover import invariants
from handover.encoding import canonical_json
from handover.invariants import scan_trace
from handover.scenarios import parse_scenario, run_scenario


def per_chunk_scan_pin_secrecy(secrets, dumps, wire_chunks):
    """Oracle: the scan that tested every secret against every chunk in turn."""
    violations = []
    texts = [(agent_id, seq, state.get("role", ""), canonical_json(state)) for agent_id, (seq, state) in dumps.items()]
    for secret in secrets:
        owner = secret.get("owner")
        pin_bytes = secret["pin"].encode("ascii")
        key_hex = secret["keyHex"]
        key_bytes = bytes.fromhex(key_hex)
        for seq, chunk in wire_chunks:
            if pin_bytes in chunk or key_bytes in chunk or key_hex.encode("ascii") in chunk:
                violations.append(invariants._violation(seq, "pin-secrecy", f"secret of {owner} visible on the wire"))
        for agent_id, seq, role, text in texts:
            if agent_id == owner:
                continue
            if secret["pin"] in text:
                violations.append(
                    invariants._violation(seq, "pin-secrecy", f"plaintext PIN of {owner} stored by {agent_id}")
                )
            if role != "manufacturer" and key_hex in text:
                violations.append(
                    invariants._violation(seq, "pin-secrecy", f"symmetric key of {owner} stored by {agent_id}")
                )
    return violations


@functools.cache
def fleet_trace():
    """4 products bought, claimed, resold and claimed again: 4 secrets on the trace."""
    wallets, script = [], []
    for i in range(4):
        first, second, product = f"A{i}", f"B{i}", f"PC-{i}"
        wallets += [first, second]
        script += [
            {"op": "record_sale", "product": product, "buyer": first, "expect": "accepted"},
            {"op": "connect", "a": first, "b": "MF", "expect": "ok"},
            {"op": "claim_new", "wallet": first, "product": product, "expect": "accepted"},
            {"op": "connect", "a": first, "b": second, "expect": "ok"},
            {"op": "sell", "seller": first, "buyer": second, "product": product, "expect": "accepted"},
            {"op": "connect", "a": second, "b": "MF", "expect": "ok"},
            {"op": "transfer", "seller": first, "product": product, "expect": "accepted"},
            {"op": "claim_used", "wallet": second, "expect": "accepted"},
        ]
    cast = {"manufacturer": "MF", "distributor": "DS", "wallets": wallets}
    spec = parse_scenario(
        {"name": "fleet-4", "seed": 11, "cast": cast, "products": [f"PC-{i}" for i in range(4)], "script": script}
    )
    result = run_scenario(spec)
    assert result.ok
    return tuple(result.world.trace)


def secrets_of(records):
    return [rec["meta"] for rec in records if rec["kind"] == "secret-minted"]


def wire_indices(records):
    """Indices of the records ``scan_trace`` reads wire bytes from, in its order."""
    return [
        i
        for i, rec in enumerate(records)
        if (rec["channel"] in ("ssi", "https") and "bytes" in rec["meta"])
        or (rec["channel"] == "oob-email" and "fields" in rec["meta"])
    ]


def with_meta(records, index, **changes):
    records[index] = {**records[index], "meta": {**records[index]["meta"], **changes}}


def splice_bytes(records, index, at, needle):
    """Insert ``needle`` at ``at`` (modulo the chunk length), or at the very end for ``at=-1``."""
    data = bytes.fromhex(records[index]["meta"]["bytes"])
    at = len(data) if at < 0 else at % (len(data) + 1)
    with_meta(records, index, bytes=(data[:at] + needle + data[at:]).hex())


def split_pairs(records):
    """Positions in wire order whose chunk and the next one are both ssi bytes."""
    wire = wire_indices(records)
    return [
        (wire[n], wire[n + 1])
        for n in range(len(wire) - 1)
        if records[wire[n]]["channel"] == records[wire[n + 1]]["channel"] == "ssi"
    ]


def plant_split(records, pair, needle, cut):
    first, second = pair
    head = bytes.fromhex(records[first]["meta"]["bytes"])
    tail = bytes.fromhex(records[second]["meta"]["bytes"])
    with_meta(records, first, bytes=(head + needle[:cut]).hex())
    with_meta(records, second, bytes=(needle[cut:] + tail).hex())


PLACES = ("chunk", "split", "email", "owner-dump", "other-dump", "manufacturer-dump")
plants = st.tuples(
    st.integers(0, 3),  # which secret
    st.sampled_from(("pin", "raw", "hex")),
    st.sampled_from(PLACES),
    st.integers(0, 10**6),  # which record
    st.one_of(st.sampled_from((0, -1)), st.integers(0, 10**6)),  # where in a chunk, or where a needle is cut
)


def plant(records, secret_index, needle_kind, place, position, offset):
    secret = secrets_of(records)[secret_index]
    pin, key_hex = secret["pin"], secret["keyHex"]
    needle = {"pin": pin.encode("ascii"), "raw": bytes.fromhex(key_hex), "hex": key_hex.encode("ascii")}[needle_kind]
    text = pin if needle_kind == "pin" else key_hex  # JSON fields and dumps hold text, so a raw key goes in as hex
    if place == "chunk":
        chunks = [i for i in wire_indices(records) if "bytes" in records[i]["meta"]]  # sealed or https bytes
        splice_bytes(records, chunks[position % len(chunks)], offset, needle)
    elif place == "split":
        pairs = split_pairs(records)
        plant_split(records, pairs[position % len(pairs)], needle, 1 + offset % (len(needle) - 1))
    elif place == "email":
        emails = [i for i, rec in enumerate(records) if rec["channel"] == "oob-email"]
        index = emails[position % len(emails)]
        with_meta(records, index, fields={**records[index]["meta"]["fields"], "note": f"re: {text}."})
    else:
        dumps = [i for i, rec in enumerate(records) if rec["kind"] == "state-dump"]
        if place == "owner-dump":
            dumps = [i for i in dumps if records[i]["from"] == secret["owner"]]
        elif place == "manufacturer-dump":
            dumps = [i for i in dumps if records[i]["meta"]["state"].get("role") == "manufacturer"]
        else:
            dumps = [
                i
                for i in dumps
                if records[i]["from"] != secret["owner"] and records[i]["meta"]["state"].get("role") != "manufacturer"
            ]
        index = dumps[position % len(dumps)]
        with_meta(records, index, state={**records[index]["meta"]["state"], "note": text})


def scan_both(records):
    joined = scan_trace(records)
    with mock.patch.object(invariants, "_scan_pin_secrecy", per_chunk_scan_pin_secrecy):
        per_chunk = scan_trace(records)
    return joined, per_chunk


def test_fleet_trace_is_clean():
    assert len(secrets_of(fleet_trace())) == 4
    assert scan_trace(fleet_trace()) == []


@settings(max_examples=150, deadline=None)
@given(st.lists(plants, max_size=5))
def test_joined_scan_matches_per_chunk_scan(planted):
    records = list(fleet_trace())
    for args in planted:
        plant(records, *args)
    joined, per_chunk = scan_both(records)
    assert joined == per_chunk


def test_needle_inside_one_chunk_is_reported_at_its_seq():
    records = list(fleet_trace())
    secret = secrets_of(records)[2]
    index = [i for i in wire_indices(records) if records[i]["channel"] == "ssi"][7]
    splice_bytes(records, index, 5, bytes.fromhex(secret["keyHex"]))
    joined, per_chunk = scan_both(records)
    detail = f"secret of {secret['owner']} visible on the wire"
    assert joined == per_chunk == [{"seq": records[index]["seq"], "invariant": "pin-secrecy", "detail": detail}]


def test_a_secret_in_an_https_payload_is_visible_on_the_wire():
    # the sale leg's records carry their payload bytes, and the scan reads them as it reads sealed bytes
    records = list(fleet_trace())
    secret = secrets_of(records)[1]
    index = next(i for i, rec in enumerate(records) if rec["channel"] == "https")
    splice_bytes(records, index, 3, secret["pin"].encode("ascii"))
    joined, per_chunk = scan_both(records)
    detail = f"secret of {secret['owner']} visible on the wire"
    assert joined == per_chunk == [{"seq": records[index]["seq"], "invariant": "pin-secrecy", "detail": detail}]


def test_needle_split_across_two_chunks_is_no_violation():
    records = list(fleet_trace())
    secret = secrets_of(records)[0]
    needle = secret["pin"].encode("ascii")
    pair = split_pairs(records)[3]
    plant_split(records, pair, needle, 3)
    wire = b"".join(bytes.fromhex(records[i]["meta"]["bytes"]) for i in pair)
    assert needle in wire
    assert scan_both(records) == ([], [])


def test_match_across_chunks_does_not_hide_an_overlapping_match_inside_one():
    # wire "..AB" | "ABABAB..": the match at the boundary overlaps the one inside the second chunk
    records = list(fleet_trace())
    minted = next(i for i, rec in enumerate(records) if rec["kind"] == "secret-minted")
    with_meta(records, minted, pin="ABABAB")
    pair = split_pairs(records)[3]
    plant_split(records, pair, b"ABABABAB", 2)
    detail = f"secret of {records[minted]['meta']['owner']} visible on the wire"
    expected = [{"seq": records[pair[1]]["seq"], "invariant": "pin-secrecy", "detail": detail}]
    assert scan_both(records) == (expected, expected)


def test_empty_pin_matches_the_per_chunk_scan():
    # a trace file can name an empty PIN: it is in every chunk, and the search must stop at the buffer's end
    records = list(fleet_trace())
    minted = next(i for i, rec in enumerate(records) if rec["kind"] == "secret-minted")
    with_meta(records, minted, pin="")
    joined, per_chunk = scan_both(records)
    assert joined == per_chunk
    assert sum(v["detail"].endswith("on the wire") for v in joined) == len(wire_indices(records))
