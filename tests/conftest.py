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


def inner_layer(rng, key_id, key, inner_plain):
    """The inner layer for ``key_id`` that encrypts ``inner_plain``, whatever it holds, under ``key``."""
    return key_id + crypto.sym_encrypt(rng, key, inner_plain, key_id)


def send_inner(world, recipient, inner, kind):
    """Wrap ``inner``, whatever it holds, for the mediator to ``recipient``, and deliver it."""
    route = encode(["route", recipient.did.uri, inner])
    outer = crypto.asym_encrypt(world.rng, crypto.ephemeral_key(world.rng), world.mediator_public_key(), route)
    world.send_envelope("adversary", Envelope(outer), kind)
    world.run_until_quiescent()


def send_as(world, sender, recipient, payload_bytes, kind):
    """Seal ``payload_bytes``, whatever they hold, as ``sender`` would on its connection with ``recipient``, under
    its send key, and deliver them."""
    conn = sender.connections[recipient.did.uri]
    plain = encode(["inner", crypto.fresh_nonce(world.rng), payload_bytes])
    key_id = crypto.key_id(conn.remote_public_key)
    send_inner(world, recipient, inner_layer(world.rng, key_id, conn.send_key, plain), kind)
