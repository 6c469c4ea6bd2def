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


def send_signed(world, sender, recipient, payload_bytes, kind):
    """Seal ``payload_bytes`` as ``sender`` would on its connection with ``recipient``, signed with its own key,
    whatever the bytes hold, and deliver it."""
    conn = sender.connections[recipient.did.uri]
    nonce = crypto.fresh_nonce(world.rng)
    signature = crypto.sign(conn.local, signing_bytes(nonce, payload_bytes))
    ephemeral = crypto.ephemeral_key(world.rng)
    inner_plain = encode(["inner", nonce, payload_bytes, signature])
    inner = crypto.asym_encrypt(world.rng, ephemeral, conn.remote_public_key, inner_plain)
    route = encode(["route", recipient.did.uri, inner])
    outer = crypto.asym_encrypt(world.rng, ephemeral, world.mediator_public_key(), route)
    world.send_envelope(sender.agent_id, Envelope(outer), kind)
    world.run_until_quiescent()
