import pytest

from handover import crypto
from handover.crypto import Rng
from handover.encoding import encode
from handover.messages import Envelope, signing_bytes
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


def send_tagged(world, sender, recipient, payload_bytes, kind):
    """Seal ``payload_bytes`` as ``sender`` would on its connection with ``recipient``, tagged under its send key,
    whatever the bytes hold, and deliver it."""
    conn = sender.connections[recipient.did.uri]
    nonce = crypto.fresh_nonce(world.rng)
    tag = crypto.tag(conn.send_key, signing_bytes(nonce, payload_bytes))
    ephemeral = crypto.ephemeral_key(world.rng)
    inner_plain = encode(["inner", nonce, payload_bytes, tag])
    inner = crypto.asym_encrypt(world.rng, ephemeral, conn.remote_public_key, inner_plain)
    route = encode(["route", recipient.did.uri, inner])
    outer = crypto.asym_encrypt(world.rng, ephemeral, world.mediator_public_key(), route)
    world.send_envelope(sender.agent_id, Envelope(outer), kind)
    world.run_until_quiescent()
