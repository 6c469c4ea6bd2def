from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover import crypto, messages
from handover.credential import ProofPresentation, present_proof, vc_from_wire
from handover.crypto import DecryptError, Rng, fresh_nonce, generate_keypair, generate_signing_key
from handover.encoding import EncodingError, canonical_json, encode
from handover.messages import (
    ACK_STATUSES,
    CHALLENGE_OPERANDS,
    CHALLENGE_TYPES,
    KIND_FIELDS,
    PIN_ALPHABET,
    EnvelopeReject,
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

from conftest import fresh_lifecycle, inner_plain, outer_plain, send_as, send_plain, vc_signed

TID = "00112233445566778899aabbccddeeff"


def credential(credential_id, cred_def_id, attributes, signature):
    """A credential as it arrives: signed bytes over the content, and a signature that need not verify."""
    return vc_from_wire([vc_signed(credential_id, cred_def_id, attributes), signature])


def sample_vc():
    return credential("vc-" + "a" * 24, "creddef-1", (("productCode", "PC-100"), ("status", "sold")), b"\x01" * 64)


def sample_payload(kind):
    vc = sample_vc()
    bodies = {
        "productSellingReq": dict(
            productCode="PC-100",
            distributorID="DS",
            ConnID="",
            status="sold",
            previouslySoldCount=0,
            firstPurchaseDate=1,
            lastPurchaseDate=1,
            email="b1@mail.local",
        ),
        "productSellingResp": dict(tid=TID),
        "ownershipClaimReq": dict(tid=TID, pin="9X4K2M", key=None),
        "ownershipClaimResp": dict(credential=vc),
        "ownershipClaimAck": dict(status="accepted"),
        "PINReq": dict(tid=TID),
        "PINResp": dict(encryptedPin=b"\x02" * 38, tid=TID),
        "ownershipTransferReq": dict(productCode="PC-100", encryptedPin=b"\x03" * 38, tid=TID),
        "ownershipTransferResp": dict(status="rejected"),
        "ownershipProofReq": dict(attributes=["productCode", "status"], challenge=b"\x04" * 16),
        "ownershipProofResp": dict(
            presentation=present_proof(vc, b"\x04" * 16, generate_signing_key(Rng(1)))
        ),
        "pinChallengeReq": dict(tid=TID, challengeBy=1234, challengeType="/"),
        "pinChallengeResp": dict(tid=TID, challengeResult=Fraction(15432, 125)),
        "revokeVC": dict(credentialId="vc-" + "a" * 24, productCode="PC-100"),
        "revokeVCResp": dict(status="accepted"),
    }
    return payload(kind, **bodies[kind])


@pytest.mark.parametrize("kind", tuple(KIND_FIELDS))
def test_codec_roundtrip_each_kind(kind):
    p = sample_payload(kind)
    assert decode_payload(canonical_encode_payload(p)) == p


def test_fifteen_kinds_total():
    assert len(KIND_FIELDS) == 15


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
    with pytest.raises(PayloadError):
        payload("ownershipClaimReq", tid=TID, pin="9X4K2M", key=b"\x00" * 32)
    with pytest.raises(PayloadError):
        payload("ownershipClaimReq", tid=TID, pin=None, key=None)
    payload("ownershipClaimReq", tid=TID, pin=None, key=b"\x00" * 32)


def test_payload_validation_errors():
    with pytest.raises(PayloadError):
        payload("noSuchKind", x=1)
    with pytest.raises(PayloadError):
        payload("PINReq")  # missing field
    with pytest.raises(PayloadError):
        payload("PINReq", tid=TID, bonus=1)
    with pytest.raises(PayloadError):
        payload("ownershipClaimAck", status="maybe")
    with pytest.raises(PayloadError):
        payload("pinChallengeReq", tid=TID, challengeBy=12, challengeType="/")
    with pytest.raises(PayloadError):
        payload("pinChallengeReq", tid=TID, challengeBy=1234, challengeType="%")
    with pytest.raises(PayloadError):
        payload("ownershipClaimReq", tid=TID, pin="bad pin", key=None)


def test_decode_garbage_rejected():
    with pytest.raises(PayloadError):
        decode_payload(b"junk")
    with pytest.raises(PayloadError):
        decode_payload(encode(["noSuchKind", 1]))
    with pytest.raises(PayloadError):
        decode_payload(encode(["PINReq"]))  # wrong field count


def test_mint_pin_shape():
    rng = Rng(3)
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
        "route": world.route("sender"),  # (route id, route key), enrolled with the world's mediator
        "routes": world.mediator.route_keys,
    }


def send_key(parties):
    return crypto.channel_keys(parties["sender"], parties["endpoint"].public_key)[0]


def receive_key(parties):
    return crypto.channel_keys(parties["endpoint"], parties["sender"].public_key)[1]


def sealed(parties, p=None, nonce=None):
    p = p or sample_payload("PINReq")
    nonce = nonce or fresh_nonce(parties["rng"])
    env = seal(
        parties["rng"],
        send_key(parties),
        parties["endpoint"].public_key,
        parties["route"],
        "did:handover:endpoint",
        nonce,
        p,
    )
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
    for routes in ({route_id: crypto.generate_symmetric_key(parties["rng"])}, {}):  # another key, or none
        with pytest.raises(DecryptError):
            unseal_at_mediator(routes, env)


def test_flip_any_inner_byte_rejected(parties):
    # flip-one-byte oracle over the full inner ciphertext, the key id (associated data) included
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


def test_seal_layout_draw_order_and_each_layer_opens_only_under_its_own_key(parties):
    seed = 77
    parties["rng"] = Rng(seed)
    env, nonce, p = sealed(parties, nonce=b"\x07" * crypto.NONCE_LEN)
    outer = env.outer_ciphertext
    recipient_did, inner = unseal_at_mediator(parties["routes"], env)
    # one draw order per envelope: inner IV, outer IV, and no ephemeral key
    replica = Rng(seed)
    inner_iv, outer_iv = replica.token(12), replica.token(12)
    assert parties["rng"].token(4) == replica.token(4)
    # the inner layer: endpoint key id || IV || AES-GCM under the send key, the key id as associated data
    key_id = parties["endpoint"].kid
    plain = inner_plain(nonce, canonical_encode_payload(p))
    assert inner == key_id + inner_iv + crypto.AESGCM(send_key(parties).key_bytes).encrypt(inner_iv, plain, key_id)
    # the outer layer: route id || IV || AES-GCM under the route key, the route id as associated data
    route_id, route_key = parties["route"]
    route_plain = outer_plain(recipient_did, inner)
    assert outer == route_id + outer_iv + crypto.AESGCM(route_key.key_bytes).encrypt(outer_iv, route_plain, route_id)
    # the outer layer opens only under the route key its id names, not under another sender's
    other_id, other_key = parties["world"].route("other sender")
    rewrapped = route_id + crypto.sym_encrypt(Rng(1), other_key, route_plain, route_id)
    for forged in (other_id + outer[crypto.KEY_ID_LEN :], rewrapped):
        with pytest.raises(DecryptError):
            unseal_at_mediator(parties["routes"], type(env)(outer_ciphertext=forged))
    # and the inner layer only under the endpoint's receive key, not its send key, a route key or the mediator's keys
    endpoint_send_key = crypto.channel_keys(parties["endpoint"], parties["sender"].public_key)[0]
    mediator_keys = crypto.channel_keys(parties["world"].mediator.keys, parties["sender"].public_key)
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
        parties["rng"],
        crypto.channel_keys(adversary, parties["endpoint"].public_key)[0],  # the key any stranger can derive
        parties["endpoint"].public_key,
        parties["route"],
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
    # status into another valid value of the same length leaves bytes that fail to authenticate
    env, nonce, p = sealed(parties, p=payload("ownershipClaimAck", status="accepted"))
    _, inner = unseal_at_mediator(parties["routes"], env)
    plain = inner_plain(nonce, canonical_encode_payload(p))
    other_nonce = fresh_nonce(parties["rng"])
    others = [
        inner_plain(other_nonce, canonical_encode_payload(p)),
        inner_plain(nonce, canonical_encode_payload(payload("ownershipClaimAck", status="rejected"))),
        inner_plain(nonce, encode(["ownershipClaimReq", "accepted"])),
    ]
    body = slice(crypto.KEY_ID_LEN + 12, len(inner) - 16)
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


# -- threads: consumed (nonce, kind) pairs --------------------------------------

# payloads B2 has no handler for: each is refused as unexpected, but it consumes its pair
UNHANDLED = {
    "ownershipClaimReq": payload("ownershipClaimReq", tid=TID, pin="AAAAAA", key=None),
    "ownershipTransferReq": payload("ownershipTransferReq", productCode="PC-100", encryptedPin=b"\x01", tid=TID),
}


@pytest.fixture
def one_connection():
    """B2's connection with B1 after a full lifecycle, and a sender of fresh B1 -> B2 inner layers on it."""
    result = fresh_lifecycle()
    world, b1, b2 = result.world, result.cast["B1"], result.cast["B2"]

    def send(nonce, kind):
        inner = send_plain(world, b1, b2, inner_plain(nonce, canonical_encode_payload(UNHANDLED[kind])), kind)
        assert world.trace[-1]["to"] == "B2"
        return inner, world.trace[-1]["verdict"]

    return world, b2, b2.connections[b1.did], send


def test_a_pair_is_consumed_once(one_connection):
    world, _, conn, send = one_connection
    nonce = fresh_nonce(world.rng)
    assert send(nonce, "ownershipClaimReq")[1] == "rejected:unexpected-kind"
    assert conn.threads[(nonce, "ownershipClaimReq")] is None
    assert send(nonce, "ownershipClaimReq")[1] == "rejected:replay"
    assert send(fresh_nonce(world.rng), "ownershipClaimReq")[1] == "rejected:unexpected-kind"
    assert send(nonce, "ownershipClaimReq")[1] == "rejected:replay"  # still consumed after other pairs


def test_the_same_nonce_with_another_kind_is_a_new_pair(one_connection):
    world, _, conn, send = one_connection
    nonce = fresh_nonce(world.rng)
    assert send(nonce, "ownershipClaimReq")[1] == "rejected:unexpected-kind"
    assert send(nonce, "ownershipTransferReq")[1] == "rejected:unexpected-kind"
    assert {kind for pair_nonce, kind in conn.threads if pair_nonce == nonce} == set(UNHANDLED)


def test_a_fresh_ciphertext_of_a_consumed_pair_is_a_replay_and_is_not_recorded(one_connection):
    world, _, conn, send = one_connection
    nonce = fresh_nonce(world.rng)
    first, _ = send(nonce, "ownershipClaimReq")
    recorded = set(conn.ciphertexts)
    assert first in recorded
    second, verdict = send(nonce, "ownershipClaimReq")
    assert second != first and verdict == "rejected:replay"
    assert conn.ciphertexts == recorded


def test_a_dump_lists_threads_and_never_ciphertexts(one_connection):
    world, b2, conn, send = one_connection
    nonce = fresh_nonce(world.rng)
    send(nonce, "ownershipClaimReq")
    dumped = b2.state_dump()["connections"][conn.remote_did]
    assert dumped["threads"][f"{nonce.hex()}:ownershipClaimReq"] is None
    assert len(dumped["threads"]) == len(conn.threads)
    assert "ciphertexts" not in dumped
    text = canonical_json(b2.state_dump())
    assert conn.ciphertexts and not any(inner.hex() in text for inner in conn.ciphertexts)


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
    messages.INT: st.integers(),
    messages.BYTES: st.binary(max_size=40),
    messages.OPT_BYTES: st.none() | st.binary(max_size=40),
    messages.FRACTION: st.fractions(),
    messages.STR_LIST: st.lists(TEXT, max_size=4),
    messages.CREDENTIAL: CREDENTIALS,
    messages.PRESENTATION: st.builds(ProofPresentation, CREDENTIALS, st.binary(max_size=16), st.binary(max_size=64)),
    messages.ACK_STATUS: st.sampled_from(ACK_STATUSES),
    messages.CHALLENGE_TYPE: st.sampled_from(CHALLENGE_TYPES),
    messages.CHALLENGE_BY: st.integers(CHALLENGE_OPERANDS[0], CHALLENGE_OPERANDS[-1]),
    messages.OPT_PIN: st.none() | PINS,
}


@st.composite
def admitted_payloads(draw):
    kind = draw(st.sampled_from(tuple(KIND_FIELDS)))
    body = {name: draw(ADMITTED[ftype]) for name, ftype in KIND_FIELDS[kind]}
    if kind == "ownershipClaimReq":  # the one cross-field rule: a claim carries exactly one of pin and key
        body["pin"], body["key"] = draw(st.tuples(PINS, st.none()) | st.tuples(st.none(), st.binary(max_size=40)))
    return payload(kind, **body)


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
    ("ownershipClaimAck", "status", "maybe"),
    ("ownershipClaimReq", "pin", "abc"),
    ("pinChallengeReq", "challengeBy", True),
]


@pytest.mark.parametrize("kind, name, value", OUT_OF_DOMAIN, ids=[f"{n}={v!r}" for _, n, v in OUT_OF_DOMAIN])
def test_out_of_domain_value_rejected_by_payload_and_on_the_wire(kind, name, value):
    body = dict(sample_payload(kind).body, **{name: value})
    with pytest.raises(PayloadError):
        payload(kind, **body)
    fields = [kind] + [value if field == name else ftype.to_wire(body[field]) for field, ftype in KIND_FIELDS[kind]]
    if isinstance(value, bool):
        with pytest.raises(EncodingError):  # the codec has no boolean, so no peer can send one
            encode(fields)
        return
    payload_bytes = encode(fields)
    with pytest.raises(PayloadError):
        decode_payload(payload_bytes)
    # B1 encrypts it under its send key on its connection with MF, so only the payload check can refuse it
    result = run_scenario(builtin_scenario("new-purchase"))
    send_as(result.world, result.cast["B1"], result.cast["MF"], payload_bytes, kind)
    assert (result.world.trace[-1]["to"], result.world.trace[-1]["verdict"]) == ("MF", "rejected:malformed-payload")


@given(nonce=st.binary(min_size=16, max_size=16), p=admitted_payloads(), did=st.text(max_size=40))
@settings(max_examples=100, deadline=None)
def test_any_nonce_and_payload_survive_the_envelope_property(nonce, p, did):
    parties = make_parties(Rng(5))
    env = seal(parties["rng"], send_key(parties), parties["endpoint"].public_key, parties["route"], did, nonce, p)
    recipient_did, inner = unseal_at_mediator(parties["routes"], env)
    assert recipient_did == did
    opened = open_inner(receive_key(parties), inner)
    assert opened == (nonce, canonical_encode_payload(p))
    assert verify_inner(*opened) == (nonce, p)


def test_seal_refuses_a_nonce_of_another_length(parties):
    # the inner layer's framing takes the nonce's length as fixed
    for nonce in (b"\x00" * 15, b"\x00" * 17):
        with pytest.raises(ValueError):
            sealed(parties, nonce=nonce)
