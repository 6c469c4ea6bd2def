import struct

import pytest

from handover import crypto
from handover.crypto import Rng
from handover.encoding import encode
from handover.messages import Envelope
from handover.scenarios import builtin_scenario, run_scenario


@pytest.fixture
def rng():
    return Rng(7)


@pytest.fixture(scope="session")
def lifecycle_readonly():
    """One completed full lifecycle shared by read-only assertions."""
    return run_scenario(builtin_scenario("full-lifecycle"))


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


def inner_layer(rng, key_id, key, plain):
    """The inner layer for ``key_id`` that encrypts ``plain``, whatever it holds, under ``key``."""
    return key_id + crypto.sym_encrypt(rng, key, plain, key_id)


def outer_layer(world, plain, sender="adversary"):
    """The outer layer that wraps ``plain``, whatever it holds, under ``sender``'s route key."""
    route_id, route_key = world.route(sender)
    return Envelope(route_id + crypto.sym_encrypt(world.rng, route_key, plain, route_id))


def send_inner(world, recipient, inner, kind):
    """Wrap ``inner``, whatever it holds, for the mediator to ``recipient`` as the stranger, and deliver it."""
    world.send_envelope("adversary", outer_layer(world, outer_plain(recipient.did, inner)), kind)
    world.run_until_quiescent()


def send_plain(world, sender, recipient, plain, kind):
    """Encrypt ``plain``, whatever it holds, as the inner layer ``sender`` would send on its connection with
    ``recipient``, under its send key, and deliver it; returns that inner layer."""
    conn = sender.connections[recipient.did]
    inner = inner_layer(world.rng, crypto.key_id(conn.remote_public_key), conn.send_key, plain)
    send_inner(world, recipient, inner, kind)
    return inner


def send_as(world, sender, recipient, payload_bytes, kind):
    """Seal ``payload_bytes``, whatever they hold, as ``sender`` would on its connection with ``recipient``, and
    deliver them."""
    send_plain(world, sender, recipient, inner_plain(crypto.fresh_nonce(world.rng), payload_bytes), kind)
