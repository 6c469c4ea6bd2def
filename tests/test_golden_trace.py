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
import dataclasses
import hashlib

import pytest

from handover.agents import Agent
from handover.encoding import canonical_json
from handover.messages import KIND_FIELDS, MessagePayload, decode_payload, payload
from handover.scenarios import BUILTIN_SCENARIOS, builtin_scenario, parse_scenario, run_scenario
from handover.simnet import World

GOLDEN = {
    "new-purchase": (
        "56d4ccccc55b6bfd07314b44473e0c3fa66f79d3a34d52f2ace394dc7ccd1d94",
        "b50bd021aadd2d5a1df4cbee19e620722a32fd325a8d46a3b4f63f95eb2b0d98",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "e0a129c8d8393016f7189cf855501be3d376f911abfdfa3c8ecb9c1ef1cbb27f",
        "23f27ce5dbf3a524e181954fe6203d9bcf940a9c006dc7dfcd2083f0e15a2d6b",
        "ddff79d9b07e0b3f90e6af42f114b60e9e84d36cc3e11b5093ed30633c828ffc",
    ),
    "wrong-pin": (
        "90bac0384184bb574a0120d95592a6ad97ab32149e74bdd02be1aca9805558ac",
        "7c6fea3a06ead4a326690e16297b4aadfb03ee06b9f15851118a51248d51b237",
        "546c8ecb1619e48331e1ef6d407a3aba85d62b87dbbdb171d9e7d1c758e05212",
    ),
    "replay-attack": (
        "b3416f9708a35d911004987c89450febf9a3443b6e061f4afe282af9d7dbdf15",
        "2fef9be42627c8c788791d45d8b42d5453d5ad132fc7c667d52650b5979e773a",
        "ca1c4a7cb70700e0dea63d4ff2c2c865e2a4a1e951f98f6c2e1b7ed07eeb72af",
    ),
    "duplicate-transfer": (
        "bbf7d629681d40131d4ad219b785845b32d57174e9d2f32c009331f1d6616af5",
        "1bcc4455e954b8d9746e3e98b9b9d42d6b08825639d95c4ad8e45361e4d6bfc7",
        "c0ec7c89e2dd1028fad147026e27757260b64447993e927431443393d1ff9180",
    ),
    "spoof-attack": (
        "4b91581956bd30896d00cf1ff837689fdf552fa3e28115dff1c67c072991c0b2",
        "1723fa2eba7fcaeb21d060eed8ff0bbf87a6f252c3d7c85067b9e500240d9f55",
        "f1a0b056b614279b25cb32867cef57fbb95c961eba7d645f0fdcd385ce5ad872",
    ),
    "offline-claim": (
        "1935388d2d640b8ea77468bb262ee804799393da871015e4bf10aa57bd212c04",
        "df1d585873647c8f71f429c150d96017a82a51d5ee065540d47bee871d1d12a2",
        "36b6f9d15e66ea18d124f2b5943b2ba59cfb147e29db968ce8f96bbd152d6fc8",
    ),
    "sale-only": (
        "579a7837ab48736f05a49dc3a96d9ce2198bf57fa70f889d1d8fb0c21472dda7",
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


def test_the_full_trace_digest_covers_the_sale_legs_payloads(monkeypatch):
    # the https leg is not sealed, so its records carry the payload bytes themselves; a productSellingReq written
    # with another distributorID moves the full-trace digest, and nothing else, when only its record has it
    result = run_scenario(builtin_scenario("sale-only"))
    https = [rec for rec in result.world.trace if rec["channel"] == "https"]
    kinds = [decode_payload(bytes.fromhex(rec["meta"]["bytes"])).kind for rec in https]
    assert kinds == [rec["kind"] for rec in https] == ["productSellingReq", "productSellingResp"]
    event_meta = World._event_meta

    def another_distributor(self, event):
        if event.kind == "productSellingReq":
            body = {**event.body.payload.body, "distributorID": "DS-ELSEWHERE"}
            event = dataclasses.replace(event, body=dataclasses.replace(event.body, payload=payload(event.kind, **body)))
        return event_meta(self, event)

    monkeypatch.setattr(World, "_event_meta", another_distributor)
    moved = run_scenario(builtin_scenario("sale-only"))
    trace_sha, ledger_sha, behaviour_sha = GOLDEN["sale-only"]
    assert _digest(moved.trace_lines()) != trace_sha
    assert (_digest(moved.world.registry.entries), _behaviour_digest(moved.world.trace)) == (ledger_sha, behaviour_sha)


# tamper in flight, tamper a delivered event, spoof without the endpoint key,
# spoof from a sender with no connection, spoof with a connected sender's DID.
# The all-ssi tamper also tampers the copy the first tamper injected: the same
# mask XORed in again restores the original bytes, and that copy is a replay.
ATTACK_STEPS_GOLDEN = (
    "9d32d72d7cd1d5c4832abd4980521cb7a7951648e7067e963649e9d392407ba5",
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
