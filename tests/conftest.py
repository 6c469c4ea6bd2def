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


def outer_layer(world, route_plain, sender="adversary"):
    """The outer layer that wraps ``route_plain``, whatever it holds, under ``sender``'s route key."""
    route_id, route_key = world.route(sender)
    return Envelope(route_id + crypto.sym_encrypt(world.rng, route_key, route_plain, route_id))


def send_inner(world, recipient, inner, kind):
    """Wrap ``inner``, whatever it holds, for the mediator to ``recipient`` as the stranger, and deliver it."""
    world.send_envelope("adversary", outer_layer(world, encode(["route", recipient.did.uri, inner])), kind)
    world.run_until_quiescent()


def send_as(world, sender, recipient, payload_bytes, kind):
    """Seal ``payload_bytes``, whatever they hold, as ``sender`` would on its connection with ``recipient``, under
    its send key, and deliver them."""
    conn = sender.connections[recipient.did.uri]
    plain = encode(["inner", crypto.fresh_nonce(world.rng), payload_bytes])
    key_id = crypto.key_id(conn.remote_public_key)
    send_inner(world, recipient, inner_layer(world.rng, key_id, conn.send_key, plain), kind)
