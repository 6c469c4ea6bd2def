import random
from fractions import Fraction

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from handover import crypto, messages
from handover.credential import ProofPresentation, present_proof, vc_from_wire
from handover.crypto import DecryptError, fresh_nonce, generate_keypair, generate_signing_key
from handover.encoding import EncodingError, canonical_json, encode
from handover.messages import (
    CHALLENGE_OPERANDS,
    CHALLENGE_TYPES,
    KIND_FIELDS,
    PIN_ALPHABET,
    EnvelopeReject,
    MessagePayload,
    PayloadError,
    canonical_encode_payload,
    decode_payload,
    is_valid_pin,
    mint_pin,
    mint_tid,
    open_inner,
    payload,
    seal,
    unseal_at_mediator,
    verify_inner,
)
from handover.scenarios import builtin_scenario, run_scenario
from handover.simnet import World

from conftest import (
    HEAD_LEN,
    count_calls,
    fresh_lifecycle,
    layer,
    layer_counter,
    layer_head,
    inner_plain,
    outer_plain,
    send_as,
    send_inner,
    send_plain,
    vc_signed,
)

TID = "00112233445566778899aabbccddeeff"


def credential(credential_id, cred_def_id, attributes, signature):
    """A credential as it arrives: signed bytes over the content, and a signature that need not verify."""
    return vc_from_wire([vc_signed(credential_id, cred_def_id, attributes), signature])


def sample_vc():
    return credential("vc-" + "a" * 24, "creddef-1", (("productCode", "PC-100"), ("status", "sold")), b"\x01" * 64)


def sample_payload(kind):
    vc = sample_vc()
    bodies = {
        "productSellingReq": dict(productCode="PC-100", distributorID="DS", email="b1@mail.local"),
        "productSellingResp": dict(tid=TID),
        "ownershipClaimReq": dict(tid=TID, pin="9X4K2M"),
        "usedClaimReq": dict(tid=TID, key=b"\x00" * 32, email="b2@mail.local"),
        "ownershipClaimResp": dict(credential=vc),
        "ownershipClaimAck": dict(),
        "PINReq": dict(tid=TID),
        "PINResp": dict(encryptedPin=b"\x02" * 38, tid=TID),
        "ownershipTransferReq": dict(productCode="PC-100", encryptedPin=b"\x03" * 38, tid=TID),
        "ownershipTransferResp": dict(),
        "ownershipProofReq": dict(attributes=["productCode", "status"], challenge=b"\x04" * 16),
        "ownershipProofResp": dict(
            presentation=present_proof(vc, b"\x04" * 16, generate_signing_key(random.Random(1)))
        ),
        "pinChallengeReq": dict(tid=TID, challengeBy=1234, challengeType="/"),
        "pinChallengeResp": dict(tid=TID, challengeResult=Fraction(15432, 125)),
        "revokeVC": dict(productCode="PC-100"),
        "revokeVCResp": dict(),
        "problemReport": dict(reason="unknown-claim"),
    }
    return payload(kind, **bodies[kind])


@pytest.mark.parametrize("kind", tuple(KIND_FIELDS))
def test_codec_roundtrip_each_kind(kind):
    p = sample_payload(kind)
    assert decode_payload(canonical_encode_payload(p)) == p


def test_seventeen_kinds_total():
    assert len(KIND_FIELDS) == 17


def test_one_field_difference_changes_bytes():
    base = canonical_encode_payload(sample_payload("pinChallengeReq"))
    for mutated in (
        payload("pinChallengeReq", tid=TID, challengeBy=1235, challengeType="/"),
        payload("pinChallengeReq", tid=TID, challengeBy=1234, challengeType="+"),
        payload("pinChallengeReq", tid="ff" + TID[2:], challengeBy=1234, challengeType="/"),
    ):
        assert canonical_encode_payload(mutated) != base


def test_construction_order_irrelevant():
    # permute-construction oracle: canonical bytes follow the declared field order
    a = payload("PINResp", encryptedPin=b"\x09" * 12, tid=TID)
    b = payload("PINResp", tid=TID, encryptedPin=b"\x09" * 12)
    assert canonical_encode_payload(a) == canonical_encode_payload(b)


def test_claim_req_exactly_one_secret():
    # a new-product claim carries a PIN and a used-product claim a key: each refuses the other's field
    with pytest.raises(PayloadError):
        payload("ownershipClaimReq", tid=TID, pin="9X4K2M", key=b"\x00" * 32)
    with pytest.raises(PayloadError):
        payload("usedClaimReq", tid=TID, pin="9X4K2M", key=b"\x00" * 32, email="b2@mail.local")
    payload("ownershipClaimReq", tid=TID, pin="9X4K2M")
    payload("usedClaimReq", tid=TID, key=b"\x00" * 32, email="b2@mail.local")


def test_payload_validation_errors():
    with pytest.raises(PayloadError):
        payload("noSuchKind", x=1)
    with pytest.raises(PayloadError):
        payload("PINReq")  # missing field
    with pytest.raises(PayloadError):
        payload("PINReq", tid=TID, bonus=1)
    with pytest.raises(PayloadError):
        payload("ownershipClaimAck", status="accepted")  # an acknowledgement carries no field
    for reason in ("", "x" * 33, "Unknown-claim", "unknown_claim", "unknown claim"):
        with pytest.raises(PayloadError):
            payload("problemReport", reason=reason)
    with pytest.raises(PayloadError):
        payload("pinChallengeReq", tid=TID, challengeBy=12, challengeType="/")
    with pytest.raises(PayloadError):
        payload("pinChallengeReq", tid=TID, challengeBy=1234, challengeType="%")
    with pytest.raises(PayloadError):
        payload("ownershipClaimReq", tid=TID, pin="bad pin")


def test_a_payload_is_checked_once_when_it_is_built(monkeypatch):
    # a MessagePayload cannot hold a body its kind does not admit, so encoding one checks nothing again
    for kind, body in (("PINReq", {"tid": 5}), ("PINReq", {}), ("noSuchKind", {})):
        with pytest.raises(PayloadError):
            MessagePayload(kind, body)
    checks = count_calls(monkeypatch, messages, "validate_payload")
    p = payload("PINReq", tid=TID)
    assert len(checks) == 1
    wire = canonical_encode_payload(p)
    assert len(checks) == 1
    assert decode_payload(wire) == p and checks == [p, p]


def test_decode_garbage_rejected():
    with pytest.raises(PayloadError):
        decode_payload(b"junk")
    with pytest.raises(PayloadError):
        decode_payload(encode(["noSuchKind", 1]))
    with pytest.raises(PayloadError):
        decode_payload(encode(["PINReq"]))  # wrong field count


def test_a_payload_with_a_field_too_many_is_refused():
    # the one field PINReq declares is valid, so only the count refuses the payload: zip would drop the extra one
    with pytest.raises(PayloadError, match="wrong field count"):
        decode_payload(encode(["PINReq", TID, TID]))


def test_mint_pin_shape():
    rng = random.Random(3)
    pins = [mint_pin(rng) for _ in range(1000)]
    assert all(is_valid_pin(p) for p in pins)
    assert {len(p) for p in pins} == {6, 7, 8}


def test_mint_tid_shape(rng):
    tids = {mint_tid(rng) for _ in range(100)}
    assert len(tids) == 100
    assert all(len(t) == 32 and set(t) <= set("0123456789abcdef") for t in tids)


# -- envelopes ---------------------------------------------------------------


@pytest.fixture
def parties(rng):
    return make_parties(rng)


def make_parties(rng):
    world = World(3)
    return {
        "rng": rng,
        "sender": generate_keypair(rng),
        "endpoint": generate_keypair(rng),
        "world": world,
        "route": world.route("sender"),  # (route id, route key, counter 1), enrolled with the world's mediator
        "routes": world.mediator.route_keys,
    }


def send_key(parties):
    return crypto.channel_keys(parties["sender"], parties["endpoint"].public_key)[0]


def receive_key(parties):
    return crypto.channel_keys(parties["endpoint"], parties["sender"].public_key)[1]


def sealed(parties, p=None, nonce=None, counter=1):
    p = p or sample_payload("PINReq")
    nonce = nonce or fresh_nonce(parties["rng"])
    route = parties["world"].route("sender")  # the sender's next envelope under its route key
    env = seal(send_key(parties), counter, parties["endpoint"].kid, route, "did:handover:endpoint", nonce, p)
    return env, nonce, p


def test_seal_unseal_full_chain(parties):
    env, nonce, p = sealed(parties)
    recipient_did, inner = unseal_at_mediator(parties["routes"], env)
    assert recipient_did == "did:handover:endpoint"
    got_nonce, got_payload = verify_inner(*open_inner(receive_key(parties), inner))
    assert got_nonce == nonce
    assert got_payload == p


def test_endpoint_wrong_key_fails(parties):
    env, _, _ = sealed(parties)
    _, inner = unseal_at_mediator(parties["routes"], env)
    wrong = generate_keypair(parties["rng"])
    endpoint_send_key = crypto.channel_keys(parties["endpoint"], parties["sender"].public_key)[0]
    for key in (endpoint_send_key, *crypto.channel_keys(parties["endpoint"], wrong.public_key)):
        with pytest.raises(EnvelopeReject, match="bad-signature"):
            open_inner(key, inner)


def test_mediator_wrong_key_fails(parties):
    env, _, _ = sealed(parties)
    route_id = parties["route"][0]
    for routes in ({route_id: crypto.SymmetricKey(parties["rng"].randbytes(32))}, {}):  # another key, or none
        with pytest.raises(DecryptError):
            unseal_at_mediator(routes, env)


def test_flip_any_inner_byte_rejected(parties):
    # flip-one-byte oracle over the full inner ciphertext, the key id and the counter (associated data) included
    env, _, _ = sealed(parties)
    _, inner = unseal_at_mediator(parties["routes"], env)
    for index in range(len(inner)):
        mutated = bytearray(inner)
        mutated[index] ^= 0x20
        with pytest.raises(EnvelopeReject, match="bad-signature"):
            open_inner(receive_key(parties), bytes(mutated))


def test_flip_outer_byte_rejected(parties):
    env, _, _ = sealed(parties)
    mutated = bytearray(env.outer_ciphertext)
    mutated[10] ^= 0x01
    with pytest.raises(DecryptError):
        unseal_at_mediator(parties["routes"], type(env)(outer_ciphertext=bytes(mutated)))


def test_seal_layout_draws_nothing_and_each_layer_opens_only_under_its_own_key(parties):
    world = parties["world"]
    streams = (parties["rng"], world.rng, world.transport_rng)
    before = [rng.getstate() for rng in streams]
    env, nonce, p = sealed(parties, nonce=b"\x07" * crypto.NONCE_LEN, counter=0x0102030405060708)
    # neither seal nor the route of an enrolled sender draws a random byte
    assert [rng.getstate() for rng in streams] == before
    outer = env.outer_ciphertext
    recipient_did, inner = unseal_at_mediator(parties["routes"], env)
    # the inner layer: endpoint key id || counter || AES-GCM under the send key, with the counter as the IV and
    # the key id and the counter as associated data; no IV goes on the wire
    head = layer_head(parties["endpoint"].kid, 0x0102030405060708)
    assert head == parties["endpoint"].kid + bytes(range(1, 9))
    plain = inner_plain(nonce, canonical_encode_payload(p))
    iv = bytes(4) + bytes(range(1, 9))
    assert inner == head + AESGCM(send_key(parties).key_bytes).encrypt(iv, plain, head)
    assert inner == layer(parties["endpoint"].kid, send_key(parties), plain, 0x0102030405060708)
    # the outer layer: the same format under the route id, the route key and the sender's envelope counter,
    # which is 2, since the enrolling call in make_parties took 1
    route_id, route_key, _ = parties["route"]
    route_plain = outer_plain(recipient_did, inner)
    assert outer[:HEAD_LEN] == layer_head(route_id, 2)
    assert outer == layer(route_id, route_key, route_plain, 2)
    # the outer layer opens only under the route key its id names, not under another sender's, and only under
    # the counter in its head
    other_id, other_key, _ = world.route("other sender")
    rewrapped = layer(route_id, other_key, route_plain, 2)
    for forged in (other_id + outer[crypto.KEY_ID_LEN :], rewrapped, layer_head(route_id, 3) + outer[HEAD_LEN:]):
        with pytest.raises(DecryptError):
            unseal_at_mediator(parties["routes"], type(env)(outer_ciphertext=forged))
    # and the inner layer only under the endpoint's receive key, not its send key, a route key or the mediator's keys
    endpoint_send_key = crypto.channel_keys(parties["endpoint"], parties["sender"].public_key)[0]
    mediator_keys = crypto.channel_keys(world.mediator.keys, parties["sender"].public_key)
    for key in (endpoint_send_key, route_key, other_key, *mediator_keys):
        with pytest.raises(EnvelopeReject):
            open_inner(key, inner)
    # a byte of the route id flipped is a reject
    for index in range(crypto.KEY_ID_LEN):
        flipped = bytearray(outer)
        flipped[index] ^= 0x01
        with pytest.raises(DecryptError):
            unseal_at_mediator(parties["routes"], type(env)(outer_ciphertext=bytes(flipped)))


def test_signature_stripped_or_replaced_rejected(parties):
    # the GCM tag (the last 16 bytes of the inner layer) removed, zeroed or cut short
    env, _, _ = sealed(parties)
    _, inner = unseal_at_mediator(parties["routes"], env)
    for forged in (inner[:-16], inner[:-16] + b"\x00" * 16, inner[:-1]):
        with pytest.raises(EnvelopeReject) as err:
            open_inner(receive_key(parties), forged)
        assert err.value.reason == "bad-signature"


def test_adversary_key_resign_rejected(parties):
    # adversary-key oracle: a valid layer under a channel key of a key pair not bound to the connection
    adversary = generate_keypair(parties["rng"])
    p = sample_payload("PINReq")
    nonce = fresh_nonce(parties["rng"])
    env = seal(
        crypto.send_key(adversary, parties["endpoint"].public_key),  # the key any stranger can derive
        1,
        parties["endpoint"].kid,
        parties["world"].route("sender"),
        "did:handover:endpoint",
        nonce,
        p,
    )
    _, inner = unseal_at_mediator(parties["routes"], env)
    with pytest.raises(EnvelopeReject) as err:
        open_inner(receive_key(parties), inner)
    assert err.value.reason == "bad-signature"


def test_signature_binds_nonce_kind_and_body(parties):
    # AES-GCM ciphertext is malleable bit by bit: the XOR that would turn the nonce, the kind or the
    # reason into another valid value of the same length leaves bytes that fail to authenticate
    env, nonce, p = sealed(parties, p=payload("problemReport", reason="unknown-tid"))
    _, inner = unseal_at_mediator(parties["routes"], env)
    plain = inner_plain(nonce, canonical_encode_payload(p))
    other_nonce = fresh_nonce(parties["rng"])
    others = [
        inner_plain(other_nonce, canonical_encode_payload(p)),
        inner_plain(nonce, canonical_encode_payload(payload("problemReport", reason="unknown-key"))),
        inner_plain(nonce, encode(["ownershipClaimReq", "refused"])),
    ]
    body = slice(HEAD_LEN, len(inner) - 16)
    for other in others:
        assert len(other) == len(plain) != plain
        mask = bytes(a ^ b for a, b in zip(plain, other))
        forged = inner[: body.start] + bytes(c ^ m for c, m in zip(inner[body], mask)) + inner[body.stop :]
        with pytest.raises(EnvelopeReject):
            open_inner(receive_key(parties), forged)


def test_mediator_view_hides_payload(parties):
    # two equal-length payloads: mediator-visible bytes carry no payload substring
    tid_a = "aa" * 16
    tid_b = "bb" * 16
    env_a, _, _ = sealed(parties, p=payload("PINReq", tid=tid_a))
    env_b, _, _ = sealed(parties, p=payload("PINReq", tid=tid_b))
    assert len(env_a.outer_ciphertext) == len(env_b.outer_ciphertext)
    for env, tid in ((env_a, tid_a), (env_b, tid_b)):
        recipient_did, inner = unseal_at_mediator(parties["routes"], env)
        mediator_view = recipient_did.encode() + inner + env.outer_ciphertext
        assert tid.encode() not in mediator_view
        assert bytes.fromhex(tid) not in mediator_view
        assert b"PINReq" not in mediator_view


# -- replay: one message counter per connection direction ------------------------

# payloads B2 has no handler for: each is refused as unexpected once its layer opens
UNHANDLED = {
    "ownershipClaimReq": payload("ownershipClaimReq", tid=TID, pin="AAAAAA"),
    "ownershipTransferReq": payload("ownershipTransferReq", productCode="PC-100", encryptedPin=b"\x01", tid=TID),
}


@pytest.fixture
def one_connection():
    """B2's connection with B1 after a full lifecycle, and a sender of fresh B1 -> B2 inner layers on it."""
    result = fresh_lifecycle()
    world, b1, b2 = result.world, result.cast["B1"], result.cast["B2"]

    def send(nonce, kind):
        mark = len(world.trace)
        inner = send_plain(world, b1, b2, inner_plain(nonce, canonical_encode_payload(UNHANDLED[kind])), kind)
        return inner, delivered_verdict(world, mark, b2)

    return world, b2, b2.connections[b1.did], send


def delivered_verdict(world, mark, recipient):
    """The verdict of the one delivery to ``recipient`` since trace index ``mark``; a refused message that opened is
    answered by a problemReport, which goes to its sender."""
    [verdict] = [r["verdict"] for r in world.trace[mark:] if r["to"] == recipient.agent_id]
    return verdict


def deliver_again(world, recipient, inner):
    """Deliver ``inner`` to ``recipient`` once more, from the stranger, and return the verdict."""
    mark = len(world.trace)
    send_inner(world, recipient, inner, "copy")
    return delivered_verdict(world, mark, recipient)


def test_a_copy_is_a_replay_before_any_decryption(one_connection, monkeypatch):
    world, b2, conn, send = one_connection
    inner, verdict = send(fresh_nonce(world.rng), "ownershipClaimReq")
    assert verdict == "rejected:unexpected-kind"
    opens = count_calls(monkeypatch, messages, "open_inner")
    assert deliver_again(world, b2, inner) == "rejected:replay"
    assert opens == []


def test_a_lower_or_equal_counter_is_a_replay(one_connection, monkeypatch):
    # a fresh layer that authenticates under the connection's key is still refused by its counter alone
    world, b2, conn, send = one_connection
    send(fresh_nonce(world.rng), "ownershipClaimReq")
    plain = inner_plain(fresh_nonce(world.rng), canonical_encode_payload(UNHANDLED["ownershipTransferReq"]))
    opens = count_calls(monkeypatch, messages, "open_inner")
    for counter in (0, 1, conn.received - 1, conn.received):
        inner = layer(conn.local.kid, conn.receive_key, plain, counter)
        assert deliver_again(world, b2, inner) == "rejected:replay"
    assert opens == []
    received = conn.received
    inner = layer(conn.local.kid, conn.receive_key, plain, received + 1)
    assert deliver_again(world, b2, inner) == "rejected:unexpected-kind"
    assert conn.received == received + 1


def test_a_copy_with_a_raised_counter_fails_the_tag(one_connection):
    # the counter is associated data: raised past the replay check, it no longer authenticates
    world, b2, conn, send = one_connection
    inner, _ = send(fresh_nonce(world.rng), "ownershipClaimReq")
    received = conn.received
    assert layer_counter(inner) == received
    for raised in (received + 1, 2**64 - 1):
        raised_copy = inner[: crypto.KEY_ID_LEN] + raised.to_bytes(8, "big") + inner[HEAD_LEN:]
        assert deliver_again(world, b2, raised_copy) == "rejected:bad-signature"
    assert conn.received == received


def test_a_failed_tag_or_decode_advances_nothing(one_connection):
    world, b2, conn, send = one_connection
    send(fresh_nonce(world.rng), "ownershipClaimReq")
    received = conn.received
    forged = layer(conn.local.kid, crypto.SymmetricKey(world.rng.randbytes(32)), b"", received + 5)
    not_a_payload = inner_plain(b"\x00" * 16, b"N")
    undecodable = layer(conn.local.kid, conn.receive_key, not_a_payload, received + 5)
    assert deliver_again(world, b2, forged) == "rejected:bad-signature"
    assert deliver_again(world, b2, undecodable) == "rejected:malformed-payload"
    assert conn.received == received
    # so the next message in order still arrives
    assert send(fresh_nonce(world.rng), "ownershipClaimReq")[1] == "rejected:unexpected-kind"
    assert conn.received == received + 1


def test_a_refused_delivery_still_advances_the_counter(one_connection):
    # the layer opened and decoded: its counter is spent whatever its handler decides
    world, _, conn, send = one_connection
    received = conn.received
    for expected in range(received + 1, received + 4):
        assert send(fresh_nonce(world.rng), "ownershipClaimReq")[1] == "rejected:unexpected-kind"
        assert conn.received == expected
    assert conn.threads == {}


def test_the_same_nonce_with_another_kind_is_a_new_pair(one_connection):
    world, _, conn, send = one_connection
    nonce = fresh_nonce(world.rng)
    assert send(nonce, "ownershipClaimReq")[1] == "rejected:unexpected-kind"
    assert send(nonce, "ownershipTransferReq")[1] == "rejected:unexpected-kind"
    assert conn.threads == {}  # neither answers an exchange, and nothing is kept of either


def test_a_dump_lists_threads_and_never_ciphertexts(one_connection):
    world, b2, conn, send = one_connection
    inner, _ = send(fresh_nonce(world.rng), "ownershipClaimReq")
    dumped = b2.state_dump()["connections"][conn.remote_did]
    assert {key: dumped[key] for key in ("threads", "sent", "received")} == {
        "threads": {},
        "sent": conn.sent,
        "received": conn.received,
    }
    assert conn.sent > 0 and conn.received == layer_counter(inner)
    assert "ciphertexts" not in dumped and inner.hex() not in canonical_json(b2.state_dump())


@given(
    tid=st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
    by=st.integers(100, 9999),
    op=st.sampled_from("+-*/"),
)
@settings(max_examples=60, deadline=None)
def test_challenge_codec_property(tid, by, op):
    p = payload("pinChallengeReq", tid=tid, challengeBy=by, challengeType=op)
    assert decode_payload(canonical_encode_payload(p)) == p


# -- value domains -------------------------------------------------------------

TEXT = st.text(max_size=12)
PINS = st.text(PIN_ALPHABET, min_size=6, max_size=8)
CREDENTIALS = st.builds(credential, TEXT, TEXT, st.lists(st.tuples(TEXT, TEXT), max_size=3), st.binary(max_size=64))
# the values each field type admits
ADMITTED = {
    messages.STR: TEXT,
    messages.BYTES: st.binary(max_size=40),
    messages.FRACTION: st.fractions(),
    messages.STR_LIST: st.lists(TEXT, max_size=4),
    messages.CREDENTIAL: CREDENTIALS,
    messages.PRESENTATION: st.builds(ProofPresentation, CREDENTIALS, st.binary(max_size=16), st.binary(max_size=64)),
    messages.REASON: st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=32),
    messages.CHALLENGE_TYPE: st.sampled_from(CHALLENGE_TYPES),
    messages.CHALLENGE_BY: st.integers(CHALLENGE_OPERANDS[0], CHALLENGE_OPERANDS[-1]),
    messages.PIN: PINS,
}


@st.composite
def admitted_payloads(draw):
    kind = draw(st.sampled_from(tuple(KIND_FIELDS)))
    return payload(kind, **{name: draw(ADMITTED[ftype]) for name, ftype in KIND_FIELDS[kind]})


@given(admitted_payloads())
@settings(max_examples=200, deadline=None)
def test_every_admitted_value_of_every_kind_roundtrips(p):
    assert decode_payload(canonical_encode_payload(p)) == p


@given(st.integers().filter(lambda n: n not in CHALLENGE_OPERANDS))
@settings(max_examples=60, deadline=None)
def test_challenge_operand_outside_three_or_four_digits_rejected(by):
    with pytest.raises(PayloadError):
        payload("pinChallengeReq", tid=TID, challengeBy=by, challengeType="+")


OUT_OF_DOMAIN = [
    ("pinChallengeReq", "challengeBy", 99),
    ("pinChallengeReq", "challengeBy", 10000),
    ("pinChallengeReq", "challengeType", "%"),
    ("problemReport", "reason", "Maybe"),
    ("ownershipClaimReq", "pin", "abc"),
    ("ownershipClaimReq", "pin", None),  # no field type admits None: each claim kind carries its one secret
    ("usedClaimReq", "key", None),
    ("pinChallengeReq", "challengeBy", True),
]


@pytest.mark.parametrize("kind, name, value", OUT_OF_DOMAIN, ids=[f"{n}={v!r}" for _, n, v in OUT_OF_DOMAIN])
def test_out_of_domain_value_rejected_by_payload_and_on_the_wire(kind, name, value):
    body = dict(sample_payload(kind).body, **{name: value})
    with pytest.raises(PayloadError):
        payload(kind, **body)
    fields = [kind] + [value if field == name else ftype.to_wire(body[field]) for field, ftype in KIND_FIELDS[kind]]
    if value is None or isinstance(value, bool):
        with pytest.raises(EncodingError):  # the codec has no None and no boolean, so no peer can send either
            encode(fields)
        return
    payload_bytes = encode(fields)
    with pytest.raises(PayloadError):
        decode_payload(payload_bytes)
    # B1 encrypts it under its send key on its connection with MF, so only the payload check can refuse it
    result = run_scenario(builtin_scenario("new-purchase"))
    send_as(result.world, result.cast["B1"], result.cast["MF"], payload_bytes, kind)
    assert (result.world.trace[-1]["to"], result.world.trace[-1]["verdict"]) == ("MF", "rejected:malformed-payload")


@given(
    nonce=st.binary(min_size=16, max_size=16),
    p=admitted_payloads(),
    did=st.text(max_size=40),
    counter=st.integers(0, 2**64 - 1),
)
@settings(max_examples=100, deadline=None)
def test_any_nonce_and_payload_survive_the_envelope_property(nonce, p, did, counter):
    parties = make_parties(random.Random(5))
    endpoint = parties["endpoint"].kid
    env = seal(send_key(parties), counter, endpoint, parties["world"].route("sender"), did, nonce, p)
    recipient_did, inner = unseal_at_mediator(parties["routes"], env)
    assert recipient_did == did
    assert layer_counter(inner) == counter
    opened = open_inner(receive_key(parties), inner)
    assert opened == (nonce, canonical_encode_payload(p))
    assert verify_inner(*opened) == (nonce, p)


def test_seal_refuses_a_nonce_of_another_length(parties):
    # the inner layer's framing takes the nonce's length as fixed
    for nonce in (b"\x00" * 15, b"\x00" * 17):
        with pytest.raises(ValueError):
            sealed(parties, nonce=nonce)
