import collections
import copy
import sys

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from handover import agents, crypto, messages, simnet
from handover.scenarios import BUILTIN_SCENARIOS, builtin_scenario, parse_scenario, run_scenario
from handover.crypto import (
    DecryptError,
    KeyFormatError,
    Rng,
    SymmetricKey,
    asym_decrypt,
    asym_encrypt,
    derive_did,
    fresh_nonce,
    generate_keypair,
    generate_signing_key,
    generate_symmetric_key,
    sign,
    sym_decrypt,
    sym_encrypt,
    verify,
)


def test_same_seed_same_draws_byte_identical_keypair():
    # re-run oracle: an independent Rng with the same seed replays the draws
    first = generate_signing_key(Rng(42))
    second = generate_signing_key(Rng(42))
    assert first.public_key == second.public_key
    assert sign(first, b"same draws") == sign(second, b"same draws")  # Ed25519 signing is deterministic
    assert generate_keypair(Rng(42)).public_key == generate_keypair(Rng(42)).public_key


def test_independent_states_distinct_keys():
    for generate in (generate_keypair, generate_signing_key):
        assert generate(Rng(42)).public_key != generate(Rng(43)).public_key


def test_same_seed_identical_nonces_and_ciphertexts():
    a, b = Rng(9), Rng(9)
    key_a, key_b = generate_keypair(a), generate_keypair(b)
    assert fresh_nonce(a) == fresh_nonce(b)
    ct_a = asym_encrypt(a, key_a.public_key, b"x")
    assert ct_a == asym_encrypt(b, key_b.public_key, b"x")
    sym_a, sym_b = generate_symmetric_key(a), generate_symmetric_key(b)
    assert sym_encrypt(sym_a, 1, b"x", b"") == sym_encrypt(sym_b, 1, b"x", b"")


def test_two_draws_from_one_rng_distinct(rng):
    a = generate_keypair(rng)
    b = generate_keypair(rng)
    assert a.public_key != b.public_key


def test_each_key_draws_32_bytes_and_parses_one_private_key():
    rng, replica = Rng(3), Rng(3)
    did_key, agreement = generate_signing_key(rng), generate_keypair(rng)
    signer = crypto.Ed25519PrivateKey.from_private_bytes(replica.token(32))
    agreer = crypto.X25519PrivateKey.from_private_bytes(replica.token(32))
    assert did_key.public_key == signer.public_key().public_bytes_raw()
    assert agreement.public_key == agreer.public_key().public_bytes_raw()
    assert agreement.kid == crypto.key_id(agreement.public_key)
    assert rng.token(8) == replica.token(8)


def test_sign_verify_roundtrip(rng):
    keys = generate_signing_key(rng)
    sig = sign(keys, b"abc")
    assert verify(keys.public_key, b"abc", sig)


def test_verify_wrong_key_fails(rng):
    keys = generate_signing_key(rng)
    other = generate_signing_key(rng)
    sig = sign(keys, b"abc")
    assert not verify(other.public_key, b"abc", sig)


def test_single_bit_flip_oracle(rng):
    # exhaustive: flipping any single bit of a 32-byte message breaks the signature
    keys = generate_signing_key(rng)
    message = rng.token(32)
    sig = sign(keys, message)
    for byte_index in range(32):
        for bit in range(8):
            mutated = bytearray(message)
            mutated[byte_index] ^= 1 << bit
            assert not verify(keys.public_key, bytes(mutated), sig)


def test_sign_empty_message_rejected(rng):
    keys = generate_signing_key(rng)
    with pytest.raises(ValueError):
        sign(keys, b"")


def test_sign_malformed_key(rng):
    with pytest.raises(KeyFormatError):
        verify(b"\x00" * 3, b"abc", b"\x00" * 64)
    # a key's parsed private key and key id take no part in ==, hash or repr
    for generate, private in ((generate_keypair, "agreer"), (generate_signing_key, "signer")):
        first, second = generate(Rng(42)), generate(Rng(42))
        assert getattr(first, private) is not getattr(second, private)
        assert first == second and hash(first) == hash(second) and repr(first) == repr(second)
        assert "signer" not in repr(first) and "agreer" not in repr(first) and "kid" not in repr(first)


def test_a_two_half_key_is_refused(rng):
    # keys are 32-byte public keys of one kind; the old Ed25519 || X25519 form is no key
    did_key, agreement = generate_signing_key(rng), generate_keypair(rng)
    two_halves = did_key.public_key + agreement.public_key
    with pytest.raises(KeyFormatError):
        verify(two_halves, b"abc", sign(did_key, b"abc"))
    with pytest.raises(KeyFormatError):
        crypto.channel_keys(agreement, two_halves)
    with pytest.raises(KeyFormatError):
        asym_encrypt(rng, two_halves, b"route key")
    with pytest.raises(KeyFormatError):
        derive_did(two_halves)


def test_channel_keys_agree_pairwise_and_differ_by_direction(rng):
    a, b, stranger = generate_keypair(rng), generate_keypair(rng), generate_keypair(rng)
    a_send, a_receive = crypto.channel_keys(a, b.public_key)
    assert crypto.channel_keys(b, a.public_key) == (a_receive, a_send)
    assert a_send != a_receive
    assert not {a_send, a_receive} & set(crypto.channel_keys(stranger, b.public_key))
    assert crypto.send_key(a, b.public_key) == a_send and crypto.send_key(b, a.public_key) == a_receive
    ciphertext = sym_encrypt(a_send, 1, b"abc", b"to b")
    assert sym_decrypt(crypto.channel_keys(b, a.public_key)[1], 1, ciphertext, b"to b") == b"abc"
    with pytest.raises(DecryptError):
        sym_decrypt(a_receive, 1, ciphertext, b"to b")
    with pytest.raises(KeyFormatError):
        crypto.channel_keys(a, b"\x00" * 3)
    with pytest.raises(KeyFormatError):
        crypto.send_key(a, b"\x00" * 3)


def signs_and_verifies(monkeypatch, spec):
    """(signs, verifies) one run of ``spec`` makes; the run must give every verdict its script expects."""
    calls = collections.Counter()
    for name in ("sign", "verify"):
        original = getattr(crypto, name)
        monkeypatch.setattr(crypto, name, lambda *args, _f=original, _n=name: calls.update([_n]) or _f(*args))
    assert run_scenario(spec).ok
    return calls["sign"], calls["verify"]


def test_an_enrollment_derives_only_the_send_key_it_uses(monkeypatch):
    # a connection uses both direction keys of its one agreement; an enrolling sender only sends to the mediator,
    # which keeps that same key, so an enrollment derives one key: one BLAKE2b and one AES-GCM context
    derived = collections.Counter()
    direction_key = crypto._direction_key

    def counted(shared, sender, recipient):
        derived[sys._getframe(1).f_code.co_name] += 1
        return direction_key(shared, sender, recipient)

    monkeypatch.setattr(crypto, "_direction_key", counted)
    result = run_scenario(builtin_scenario("full-lifecycle"))
    assert result.ok
    connections = sum(len(agent.connections) for agent in result.cast.values()) // 2
    enrolled = len(result.world.mediator.route_keys)
    assert derived == {"channel_keys": 2 * connections, "send_key": enrolled} == {"channel_keys": 6, "send_key": 3}


def test_full_lifecycle_signs_only_credentials_and_presentations(monkeypatch):
    # messages inside a connection are encrypted under channel keys: only the 2 issued credentials and
    # the 1 presentation are signed, and each credential is verified on receipt; MF checks the presentation
    # under its holder's key only, since it holds the exact credential it issued
    assert signs_and_verifies(monkeypatch, builtin_scenario("full-lifecycle")) == (3, 3)


def test_forged_transfers_are_refused_with_one_signature_check_in_three(monkeypatch):
    # the full lifecycle, then every stock attack, as the attack benchmark runs it: EVE signs a credential
    # and a presentation for each of 3 forged transfers, but only the one under MF's own definition gets a
    # signature check; a foreign or unknown definition is refused before any
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["cast"]["adversaries"] = ["EVE"]
    forged = (
        ("self-issued", "rejected:wrong-issuer"),
        ("unknown-creddef", "rejected:unknown-issuer"),
        ("garbage", "rejected:bad-issuer-sig"),
    )
    data["script"] += [
        {"op": "replay", "seq": "all-ssi", "expect": "all-rejected"},
        {"op": "tamper", "seq": "all-ssi", "expect": "all-rejected"},
        {"op": "connect", "a": "EVE", "b": "MF", "expect": "ok"},
        *(
            {"op": "adversary_transfer", "adversary": "EVE", "product": "PC-100", "mode": mode, "expect": expect}
            for mode, expect in forged
        ),
        {"op": "spoof", "a": "B2", "recipient": "MF", "knows_endpoint_key": True, "expect": "rejected:bad-signature"},
        {"op": "spoof", "a": "B2", "recipient": "MF", "knows_endpoint_key": False, "expect": "rejected:decrypt-error"},
    ]
    assert signs_and_verifies(monkeypatch, parse_scenario(data)) == (9, 4)


def test_asym_roundtrip_empty_payload(rng):
    keys = generate_keypair(rng)
    assert asym_decrypt(keys, asym_encrypt(rng, keys.public_key, b"")) == b""


def test_asym_roundtrip_one_mebibyte(rng):
    # byte-compare oracle on a large payload
    keys = generate_keypair(rng)
    payload = bytes(range(256)) * 4096
    assert len(payload) == 1 << 20
    assert asym_decrypt(keys, asym_encrypt(rng, keys.public_key, payload)) == payload


def test_asym_wrong_private_key(rng):
    keys = generate_keypair(rng)
    other = generate_keypair(rng)
    ct = asym_encrypt(rng, keys.public_key, b"secret")
    with pytest.raises(DecryptError):
        asym_decrypt(other, ct)


def test_asym_encrypt_draws_a_fresh_ephemeral_key_then_its_iv():
    keys = generate_keypair(Rng(5))
    rng, replica = Rng(11), Rng(11)
    ct = asym_encrypt(rng, keys.public_key, b"route key")
    eph_pub = crypto.X25519PrivateKey.from_private_bytes(replica.token(32)).public_key().public_bytes_raw()
    assert ct[crypto.KEY_ID_LEN : crypto.KEY_ID_LEN + 44] == eph_pub + replica.token(12)
    assert asym_encrypt(rng, keys.public_key, b"route key")[crypto.KEY_ID_LEN :][:32] != eph_pub


def test_ciphertext_starts_with_recipient_key_id(rng):
    keys, other = generate_keypair(rng), generate_keypair(rng)
    ct = asym_encrypt(rng, keys.public_key, b"secret")
    assert ct[: crypto.KEY_ID_LEN] == keys.kid != other.kid
    with pytest.raises(DecryptError, match="another key"):
        asym_decrypt(other, ct)
    # naming the other key does not let it decrypt
    with pytest.raises(DecryptError, match="authentication"):
        asym_decrypt(other, other.kid + ct[crypto.KEY_ID_LEN :])


def test_asym_truncated_ciphertext(rng):
    keys = generate_keypair(rng)
    ct = asym_encrypt(rng, keys.public_key, b"secret")
    with pytest.raises(DecryptError):
        asym_decrypt(keys, ct[: len(ct) // 2])
    with pytest.raises(DecryptError):
        asym_decrypt(keys, b"")


def test_sym_roundtrip_pin(rng):
    key = generate_symmetric_key(rng)
    assert sym_decrypt(key, 0, sym_encrypt(key, 0, b"PIN:9X4K2M", b""), b"") == b"PIN:9X4K2M"


def test_sym_associated_data_is_bound_and_empty_is_plain_gcm():
    # a PIN passes no associated data, and its bytes are those of AES-GCM with none, under the 12-byte
    # big-endian form of the counter as the IV and with no IV in front
    key = generate_symmetric_key(Rng(3))
    for counter in (0, 1, 2**64 - 1):
        iv = counter.to_bytes(12, "big")
        assert sym_encrypt(key, counter, b"PIN:9X4K2M", b"") == AESGCM(key.key_bytes).encrypt(iv, b"PIN:9X4K2M", None)
    bound = sym_encrypt(key, 7, b"payload", b"\x01" * crypto.KEY_ID_LEN)
    assert sym_decrypt(key, 7, bound, b"\x01" * crypto.KEY_ID_LEN) == b"payload"
    for other in (b"", b"\x02" * crypto.KEY_ID_LEN):
        with pytest.raises(DecryptError):
            sym_decrypt(key, 7, bound, other)


def test_sym_flip_every_byte_rejected(rng):
    # flip-one-byte oracle, exhaustive over the whole ciphertext
    key = generate_symmetric_key(rng)
    ct = sym_encrypt(key, 0, b"PIN:9X4K2M", b"")
    for index in range(len(ct)):
        mutated = bytearray(ct)
        mutated[index] ^= 0x01
        with pytest.raises(DecryptError):
            sym_decrypt(key, 0, bytes(mutated), b"")


def test_sym_wrong_key_never_silently_succeeds(rng):
    key = generate_symmetric_key(rng)
    other = generate_symmetric_key(rng)
    ct = sym_encrypt(key, 0, b"payload", b"")
    with pytest.raises(DecryptError):
        sym_decrypt(other, 0, ct, b"")


def test_sym_distinct_keys_distinct_ciphertexts():
    # two keys under one counter and one plaintext give two ciphertexts
    rng = Rng(5)
    k1 = generate_symmetric_key(rng)
    k2 = generate_symmetric_key(rng)
    assert sym_encrypt(k1, 1, b"same", b"") != sym_encrypt(k2, 1, b"same", b"")


def test_sym_counter_is_the_only_iv(rng):
    # the counter is the IV, so one key and one counter always give one ciphertext (which is why no key may see
    # a counter twice); another counter gives another, and only the counter that made a ciphertext opens it
    key = generate_symmetric_key(rng)
    assert sym_encrypt(key, 1, b"same", b"") == sym_encrypt(key, 1, b"same", b"")
    assert sym_encrypt(key, 1, b"same", b"") != sym_encrypt(key, 2, b"same", b"")
    with pytest.raises(DecryptError):
        sym_decrypt(key, 2, sym_encrypt(key, 1, b"same", b""), b"")


def test_sym_decrypt_of_a_ciphertext_shorter_than_the_tag_raises_decrypt_error(rng):
    # a ciphertext of 0-15 bytes cannot hold the 16-byte tag; AES-GCM refuses it like any forgery
    key = generate_symmetric_key(rng)
    for length in range(16):
        with pytest.raises(DecryptError):
            sym_decrypt(key, 0, b"\x00" * length, b"")
        with pytest.raises(DecryptError):
            sym_decrypt(key, 0, sym_encrypt(key, 0, b"", b"")[:length], b"")


def test_symmetric_key_length_enforced():
    with pytest.raises(KeyFormatError):
        SymmetricKey(b"short")


def test_nonce_uniqueness_100k(rng):
    draws = {fresh_nonce(rng) for _ in range(100_000)}
    assert len(draws) == 100_000
    assert all(len(n) == crypto.NONCE_LEN for n in list(draws)[:10])


def test_did_rederivation_matches(rng):
    keys = generate_signing_key(rng)
    a = derive_did(keys.public_key)
    b = derive_did(keys.public_key)
    assert a == b
    assert a.startswith("did:handover:")


def test_did_distinct_keys_distinct_ids(rng):
    a = derive_did(generate_signing_key(rng).public_key)
    b = derive_did(generate_signing_key(rng).public_key)
    assert a != b


@given(message=st.binary(min_size=1, max_size=600), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_sign_verify_property(message, seed):
    rng = Rng(seed)
    keys = generate_signing_key(rng)
    assert verify(keys.public_key, message, sign(keys, message))


@given(message=st.binary(min_size=1, max_size=600), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_each_key_does_its_one_job_property(message, seed):
    # a DID key, which signs (test_sign_verify_property), cannot agree; an agreement key agrees the same way
    # from both sides but cannot sign
    rng = Rng(seed)
    did_key, a, b = generate_signing_key(rng), generate_keypair(rng), generate_keypair(rng)
    with pytest.raises(AttributeError):
        crypto.channel_keys(did_key, a.public_key)
    with pytest.raises(AttributeError):
        sign(a, message)
    a_send, a_receive = crypto.channel_keys(a, b.public_key)
    b_send, b_receive = crypto.channel_keys(b, a.public_key)
    assert (b_send, b_receive) == (a_receive, a_send) and a_send != a_receive
    assert sym_decrypt(b_receive, 1, sym_encrypt(a_send, 1, message, b""), b"") == message


def _agreement_pair(secret: bytes) -> crypto.KeyPair:
    agreer = X25519PrivateKey.from_private_bytes(secret)
    public_key = agreer.public_key().public_bytes_raw()
    return crypto.KeyPair(public_key, agreer, crypto.key_id(public_key))


@given(secrets=st.lists(st.binary(min_size=32, max_size=32), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_the_peer_of_a_channel_gets_its_keys_swapped_property(secrets):
    # X25519 gives both ends one secret (RFC 7748 6.1), so establish_connection agrees once and hands
    # the invitee the inviter's (send, receive) pair swapped; any two private keys must allow that
    a, b = map(_agreement_pair, secrets)
    a_send, a_receive = crypto.channel_keys(a, b.public_key)
    assert crypto.channel_keys(b, a.public_key) == (a_receive, a_send)
    assert (a_send == a_receive) == (a.public_key == b.public_key)


@given(message=st.binary(max_size=600), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_hybrid_roundtrip_property(message, seed):
    rng = Rng(seed)
    keys = generate_keypair(rng)
    assert asym_decrypt(keys, asym_encrypt(rng, keys.public_key, message)) == message


@given(message=st.binary(max_size=600), seed=st.integers(0, 2**32), counter=st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_symmetric_roundtrip_property(message, seed, counter):
    key = generate_symmetric_key(Rng(seed))
    assert sym_decrypt(key, counter, sym_encrypt(key, counter, message, b""), b"") == message


def test_full_lifecycle_parses_each_long_lived_key_once(monkeypatch):
    # one private key per key, parsed when it is generated: 4 DID keys (Ed25519), and X25519 for the mediator,
    # 2 sides x 3 connections and each of 3 senders' enrollment pair; a second key per pair, a key parsed per
    # message or a hybrid wrap breaks the total of 14
    calls = collections.Counter()

    def count(owners, name, label):
        original = getattr(owners[0], name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counted)

    count([crypto.Ed25519PrivateKey], "from_private_bytes", "ed25519")
    count([crypto.X25519PrivateKey], "from_private_bytes", "x25519")
    count([crypto], "generate_keypair", "generate_keypair")
    count([crypto], "generate_signing_key", "generate_signing_key")
    count([crypto], "asym_encrypt", "asym_encrypt")
    count([crypto], "asym_decrypt", "asym_decrypt")
    count([messages, agents, simnet], "seal", "seal")
    result = run_scenario(builtin_scenario("full-lifecycle"))
    assert result.ok
    connections = sum(len(agent.connections) for agent in result.cast.values()) // 2
    assert (len(result.cast), connections, len(result.world.mediator.route_keys)) == (4, 3, 3)
    assert calls["asym_encrypt"] == calls["asym_decrypt"] == 0 < calls["seal"]
    assert calls["ed25519"] == calls["generate_signing_key"] == len(result.cast) == 4
    assert calls["x25519"] == calls["generate_keypair"] == 1 + 2 * connections + 3 == 10
    assert calls["ed25519"] + calls["x25519"] == 14


def test_a_sealed_message_costs_no_x25519_agreement(monkeypatch):
    # every X25519 agreement parses its peer's key in ``_agree``: once per connection for both sides'
    # direction keys (the invitee takes the inviter's pair swapped), and once per sender when it enrolls, with
    # the mediator's key as the peer (the mediator keeps the sender's send key, so its own key never agrees);
    # sealing, relaying and opening a message does none, so more messages cost no more agreements
    callers, agreeing = collections.Counter(), []
    parse = crypto.X25519PublicKey.from_public_bytes

    def counted(data):
        frame = sys._getframe(1)
        callers[frame.f_code.co_name] += 1
        agreeing.append(frame.f_locals.get("local"))
        return parse(data)

    monkeypatch.setattr(crypto.X25519PublicKey, "from_public_bytes", counted)
    result = run_scenario(builtin_scenario("full-lifecycle"))
    assert result.ok
    world, b2, mf = result.world, result.cast["B2"], result.cast["MF"]
    connections = sum(len(agent.connections) for agent in result.cast.values()) // 2
    enrolled = len(world.mediator.route_keys)
    assert (connections, enrolled) == (3, 3)  # MF, B1 and B2 send; DS talks to MF over https only
    for extra in (0, 5):
        for _ in range(extra):
            tid = messages.mint_tid(world.rng)
            context = {"tid": tid, "productCode": "PC-100"}  # the thread a sale would open
            b2.send(b2.connections[mf.did], crypto.fresh_nonce(world.rng), messages.payload("PINReq", tid=tid), context)
        world.run_until_quiescent()
        # MF has no handler for a PINReq, so it answers each with a problemReport
        assert sum(r["channel"] == "ssi" and r["to"] == "MD" for r in world.trace) == 16 + 2 * extra
        assert callers == {"_agree": connections + enrolled} == {"_agree": 6}
    assert all(local is not world.mediator.keys for local in agreeing)
    own = {conn.local for agent in result.cast.values() for conn in agent.connections.values()}
    assert sum(local in own for local in agreeing) == connections  # the rest are the 3 enrollment pairs
