import struct

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from handover import crypto
from handover.crypto import Rng
from handover.encoding import encode
from handover.messages import REPLIES, Envelope
from handover.scenarios import builtin_scenario, run_scenario


@pytest.fixture
def rng():
    return Rng(7)


@pytest.fixture(scope="session")
def lifecycle_readonly():
    """One completed full lifecycle shared by read-only assertions."""
    return run_scenario(builtin_scenario("full-lifecycle"))


def unread_context(kind):
    """A thread context with each field that the handler of a ``kind`` reply reads, every one None: enough for
    ``Agent.send`` to open the thread of a reply that never comes, or that comes as a problemReport."""
    return dict.fromkeys(REPLIES[kind][1]) if kind in REPLIES else None


def fresh_lifecycle(seed=None):
    return run_scenario(builtin_scenario("full-lifecycle"), seed=seed)


# The two layer layouts and a credential's signed bytes, written from the spec
# rather than taken from ``handover``, so the tests that use them check it.


def inner_plain(nonce, payload_bytes):
    """The inner layer's plaintext: the 16-byte nonce, then the payload bytes."""
    return bytes(nonce) + bytes(payload_bytes)


def outer_plain(did, inner):
    """The outer layer's plaintext: the length of the DID's UTF-8 bytes (2, big-endian), those bytes, then the
    inner layer.  A DID given as bytes goes in as it is."""
    raw = did.encode("utf-8") if isinstance(did, str) else bytes(did)
    return struct.pack(">H", len(raw)) + raw + bytes(inner)


def vc_signed(credential_id, cred_def_id, attributes):
    """A credential's signed bytes: the encoding of ["vc", id, definition id, attribute pairs]."""
    return encode(["vc", credential_id, cred_def_id, [list(pair) for pair in attributes]])


HEAD_LEN = crypto.KEY_ID_LEN + 8  # the key id, then the counter


def layer_head(key_id, counter):
    """A layer's clear head, which is also its associated data: the key id, then the counter (8, big-endian)."""
    return bytes(key_id) + struct.pack(">Q", counter)


def layer_counter(data):
    """The counter in the clear head of a layer."""
    return struct.unpack(">Q", data[crypto.KEY_ID_LEN : HEAD_LEN])[0]


def layer(key_id, key, plain, counter):
    """The layer, inner or outer, for ``key_id`` and ``counter`` that encrypts ``plain``, whatever it holds, under
    ``key``: its head, then AES-GCM with the counter as the 12-byte big-endian IV and the head as associated data."""
    head = layer_head(key_id, counter)
    return head + AESGCM(key.key_bytes).encrypt(counter.to_bytes(12, "big"), bytes(plain), head)


def open_layer(key, data):
    """The plaintext of a layer under ``key``; raises InvalidTag unless it authenticates."""
    iv = layer_counter(data).to_bytes(12, "big")
    return AESGCM(key.key_bytes).decrypt(iv, data[HEAD_LEN:], data[:HEAD_LEN])


def outer_layer(world, plain, sender="adversary"):
    """The outer layer that wraps ``plain``, whatever it holds, under ``sender``'s route key and next counter."""
    route_id, route_key, counter = world.route(sender)
    return Envelope(layer(route_id, route_key, plain, counter))


def send_inner(world, recipient, inner, kind):
    """Wrap ``inner``, whatever it holds, for the mediator to ``recipient`` as the stranger, and deliver it."""
    world.send_envelope("adversary", outer_layer(world, outer_plain(recipient.did, inner)), kind)
    world.run_until_quiescent()


def send_plain(world, sender, recipient, plain, kind):
    """Encrypt ``plain``, whatever it holds, as the inner layer ``sender`` would send next on its connection with
    ``recipient``, under its send key and its next counter, and deliver it; returns that inner layer."""
    conn = sender.connections[recipient.did]
    conn.sent += 1
    inner = layer(crypto.key_id(conn.remote_public_key), conn.send_key, plain, conn.sent)
    send_inner(world, recipient, inner, kind)
    return inner


def send_as(world, sender, recipient, payload_bytes, kind):
    """Seal ``payload_bytes``, whatever they hold, as ``sender`` would on its connection with ``recipient``, and
    deliver them."""
    send_plain(world, sender, recipient, inner_plain(crypto.fresh_nonce(world.rng), payload_bytes), kind)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call appends its first argument to the returned list."""
    calls, original = [], getattr(module, name)

    def counting(first, *args):
        calls.append(first)
        return original(first, *args)

    monkeypatch.setattr(module, name, counting)
    return calls
