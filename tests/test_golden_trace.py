"""Pinned trace and ledger bytes of every built-in scenario at its own seed,
and of one test-local scenario that runs the attack steps no built-in runs.

A change that is meant to keep behaviour must leave these digests alone; a
change to the wire format or the trace format updates them on purpose.  The
first two digests cover the bytes ``write_trace`` / ``write_ledger`` would
write.  The third covers each trace record without its ``meta`` (seq, tick,
from, to, channel, kind, verdict): it pins what happened, not the bytes, so a
change that only moves wire bytes or state dumps keeps it unchanged.

The same runs show that every field of every payload kind is read by some
receiver: a field that no receiver reads is wire bytes for nothing.
"""

import copy
import hashlib

import pytest

from handover.agents import Agent
from handover.encoding import canonical_json
from handover.messages import KIND_FIELDS, MessagePayload
from handover.scenarios import BUILTIN_SCENARIOS, builtin_scenario, parse_scenario, run_scenario

GOLDEN = {
    "new-purchase": (
        "45f80543bb82f0a1d22e3307397b0010c3ad77c04d3cc0bd081ca5eb934438ee",
        "b50bd021aadd2d5a1df4cbee19e620722a32fd325a8d46a3b4f63f95eb2b0d98",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "1a4d714097ffc822b224c1e1f855586be5a0e2d941595d2c3384c18ce73f0e3f",
        "23f27ce5dbf3a524e181954fe6203d9bcf940a9c006dc7dfcd2083f0e15a2d6b",
        "ddff79d9b07e0b3f90e6af42f114b60e9e84d36cc3e11b5093ed30633c828ffc",
    ),
    "wrong-pin": (
        "2644768e22fe2a7ea5102e057fa5d2f351579e05486459da63aa68448048274c",
        "7c6fea3a06ead4a326690e16297b4aadfb03ee06b9f15851118a51248d51b237",
        "546c8ecb1619e48331e1ef6d407a3aba85d62b87dbbdb171d9e7d1c758e05212",
    ),
    "replay-attack": (
        "e88fe5afd4289e3ddda2263ceb9214d2d186e6268ea17705816eed46f59e35b9",
        "2fef9be42627c8c788791d45d8b42d5453d5ad132fc7c667d52650b5979e773a",
        "a17350a18818393d49f8a5807415e1ff259d4b6f78a845098677335e8198cbb1",
    ),
    "duplicate-transfer": (
        "8b2ac5e4b4790504bfbf7e938d84f5ba7b5f80cd916aeb7484c6b51fdaade47c",
        "1bcc4455e954b8d9746e3e98b9b9d42d6b08825639d95c4ad8e45361e4d6bfc7",
        "c0ec7c89e2dd1028fad147026e27757260b64447993e927431443393d1ff9180",
    ),
    "spoof-attack": (
        "ceb3d8e3bf2b4d23122f6f04d6bc1c9a608d354c7249340c0022da489ac88f93",
        "1723fa2eba7fcaeb21d060eed8ff0bbf87a6f252c3d7c85067b9e500240d9f55",
        "f1a0b056b614279b25cb32867cef57fbb95c961eba7d645f0fdcd385ce5ad872",
    ),
    "offline-claim": (
        "62dd14a1c7af3c3510b034748a81f42fb089052ac23e707238636bf4d2ed167d",
        "df1d585873647c8f71f429c150d96017a82a51d5ee065540d47bee871d1d12a2",
        "36b6f9d15e66ea18d124f2b5943b2ba59cfb147e29db968ce8f96bbd152d6fc8",
    ),
    "sale-only": (
        "c72cd22f30ab5ed47ddf78e1659550fbee6b8cff6b13da4a657cef006425863d",
        "8d16f9c3a0bc7d28c3e193d4707e0e42471005b93d52fce3b46d19fca1b2382f",
        "8c934205613e4bbb1e5c46ca17b26e604f652b5e82a9134173ee7ec512a34fe7",
    ),
}


def _digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()


def _behaviour_digest(trace):
    return _digest(canonical_json({k: v for k, v in rec.items() if k != "meta"}) for rec in trace)


def test_every_builtin_is_pinned():
    assert sorted(GOLDEN) == sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_and_ledger(name):
    result = run_scenario(builtin_scenario(name))
    assert result.ok
    trace_sha, ledger_sha, behaviour_sha = GOLDEN[name]
    assert _behaviour_digest(result.world.trace) == behaviour_sha
    assert _digest(result.trace_lines()) == trace_sha
    assert _digest(result.world.registry.entries) == ledger_sha


# tamper in flight, tamper a delivered event, spoof without the endpoint key,
# spoof from a sender with no connection, spoof with a connected sender's DID.
# The all-ssi tamper also tampers the copy the first tamper injected: the same
# mask XORed in again restores the original bytes, and that copy is a replay.
ATTACK_STEPS_GOLDEN = (
    "fb316b29ecc6fd5bd19fe5c7efd8cc855577669fc8a3397c52e7a9fd3f6ea85f",
    "4ec361516d47e6cef55842b6dded7b3fd375fb5a9627d998ff83c8acec1cf909",
    "416423e96112ff36bbd3d808ba7b0cfb71f1149cc5ff37de88c61cf1279fd9dc",
)


def attack_steps_scenario():
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["name"] = "attack-steps"
    data["seed"] = 53
    data["cast"]["adversaries"] = ["EVE"]
    revoke = {"kind": "revokeVC", "body": {"productCode": "PC-100"}}
    data["script"] += [
        {"op": "tamper", "seq": "last-ssi", "expect": "rejected:decrypt-error"},
        {"op": "tamper", "seq": 20, "byte_index": 3, "mask": 0xFF, "expect": "rejected:decrypt-error"},
        {"op": "tamper", "seq": "all-ssi", "expect": "all-rejected"},
        {"op": "replay", "seq": "last-ssi", "expect": "rejected:decrypt-error"},
        {"op": "spoof", "a": "B2", "recipient": "MF", "knows_endpoint_key": False, "expect": "rejected:decrypt-error"},
        {"op": "spoof", "forged_sender": "did:handover:ghost", "recipient": "B2", "expect": "rejected:decrypt-error"},
        {"op": "spoof", "a": "B1", "recipient": "B2", "message": revoke, "expect": "rejected:bad-signature"},
    ]
    return parse_scenario(data)


def test_golden_attack_steps():
    result = run_scenario(attack_steps_scenario())
    assert result.ok
    trace_sha, ledger_sha, behaviour_sha = ATTACK_STEPS_GOLDEN
    assert _behaviour_digest(result.world.trace) == behaviour_sha
    assert _digest(result.trace_lines()) == trace_sha
    assert _digest(result.world.registry.entries) == ledger_sha


@pytest.mark.parametrize("name", sorted(GOLDEN) + ["attack-steps"])
def test_every_step_verdict_holds_at_seeds_1_to_40(name):
    # each scenario's expectations hold for any seed, not just its own: a verdict that depends on a drawn byte shows
    spec = attack_steps_scenario() if name == "attack-steps" else builtin_scenario(name)
    for seed in range(1, 41):
        result = run_scenario(spec, seed=seed)
        assert result.ok, (seed, result.divergence, result.violations)


class ReadRecorder(dict):
    """A received body that notes the name of each field its receiver reads, by key, by ``get`` or by iteration (so
    spreading it into a thread context reads every field).  It notes nothing until ``reads`` is set, so the check a
    payload gets when it is built is not a read."""

    reads = None

    def _note(self, names):
        if self.reads is not None:
            self.reads.update(names)

    def __getitem__(self, name):
        self._note([name])
        return super().__getitem__(name)

    def get(self, name, default=None):
        self._note([name])
        return super().get(name, default)

    def __iter__(self):
        self._note(self.keys())
        return super().__iter__()


def test_every_field_of_every_kind_is_read_by_some_receiver(monkeypatch):
    read = {}  # kind -> names of its fields that some receiver read
    receive = Agent._receive

    def recording_receive(self, conn, nonce, p, handlers):
        body = ReadRecorder(p.body)
        watched = MessagePayload(p.kind, body)
        body.reads = read.setdefault(p.kind, set())
        return receive(self, conn, nonce, watched, handlers)

    monkeypatch.setattr(Agent, "_receive", recording_receive)
    for spec in [builtin_scenario(name) for name in sorted(BUILTIN_SCENARIOS)] + [attack_steps_scenario()]:
        assert run_scenario(spec).ok
    fields = [(kind, name) for kind, spec in KIND_FIELDS.items() for name, _ in spec]
    assert [f"{kind}.{name}" for kind, name in fields if name not in read.get(kind, ())] == []
