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

The registry's height is the protocol's clock, so an attack step, which adds
hops and no ledger entry, moves no ledger line and no issued credential.
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
        "6ab604272dc2882ed53d5149e35ac675eade50f7076ca9eaf31327616261501f",
        "a2092a0f7a8d98e9243c65c458801d99662b8996febf849fc707ee24398f92aa",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "a053c38139a260f80233ef9445fd92abd1a4b6c590547d9fa5375bc68a7dac7f",
        "75ad4dae69c1684c6a983070b74984a4e524f88a9f04306e0136d785cebb949e",
        "ddff79d9b07e0b3f90e6af42f114b60e9e84d36cc3e11b5093ed30633c828ffc",
    ),
    "wrong-pin": (
        "eb7176cbe0fcc662f091a6fb8273bae41b2d47776390b0d3dc13e1f81cb79d1e",
        "320340c095d548ebf92184be4e9241c27ba7d6fb81e9c413f94e884856b6bed3",
        "546c8ecb1619e48331e1ef6d407a3aba85d62b87dbbdb171d9e7d1c758e05212",
    ),
    "replay-attack": (
        "88f932ed62abcfc82ad9368be5a5f83238a9a645043016d6cb8c61f2caeaaeab",
        "1cd92575e3741cae1bc6bfd0dc7024914a277eb4a825874df73ffd3675b9312a",
        "ca1c4a7cb70700e0dea63d4ff2c2c865e2a4a1e951f98f6c2e1b7ed07eeb72af",
    ),
    "duplicate-transfer": (
        "aadaa43dc4a912d58036264a2c058ee9610955ee1e27552a4987f3c4e0de2c32",
        "00cb65f391dd0aa307bd594fd21ed49343dd27952666aca52f74a058d5b22075",
        "c0ec7c89e2dd1028fad147026e27757260b64447993e927431443393d1ff9180",
    ),
    "spoof-attack": (
        "0c75cce5cd9346778e41fc9800273ea4708ee6a9ff2e7ca9482be4e345f3e631",
        "167ff33a68ff20f1a98e2423599ca4ab056879d4c22b0f942c9a19ad9c691d32",
        "f1a0b056b614279b25cb32867cef57fbb95c961eba7d645f0fdcd385ce5ad872",
    ),
    "offline-claim": (
        "9630bd794e991a98f40988c14ecfb65268d8bf285c0acfbef088e09699fb8b5f",
        "9746ff00a2e098bb93171f6c1a09b4fe50055b737b8756248818b4bfc2b99cc3",
        "36b6f9d15e66ea18d124f2b5943b2ba59cfb147e29db968ce8f96bbd152d6fc8",
    ),
    "sale-only": (
        "4aae1a5bdce99b774b696918101b1fe3690dc2e8ad9ebcc6c5b7ad87835588b9",
        "d3c516b2602c520de05bd9191e78123dbd9c521ad5f2fdad4e15ec4558085fa7",
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
    "823bb268ac9c32f938d23e72e1f889fa5547a584a96c65910bdef04c86efe95e",
    "f1564e87cd7b859849a21ecdc01e96bdac0c9a03ba182904d2b3c9561b7906e2",
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


def bench_attack_data(seed):
    """The benchmark's ``attack`` workload at ``seed``, written out again here: full-lifecycle with EVE, a replay
    and a tamper of every delivered message, EVE's three forged transfers, then two spoofs."""
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["name"], data["seed"] = "attack", seed
    data["cast"]["adversaries"] = ["EVE"]
    forged = [("self-issued", "wrong-issuer"), ("unknown-creddef", "unknown-issuer"), ("garbage", "bad-issuer-sig")]
    data["script"] += [
        {"op": "replay", "seq": "all-ssi", "expect": "all-rejected"},
        {"op": "tamper", "seq": "all-ssi", "expect": "all-rejected"},
        {"op": "connect", "a": "EVE", "b": "MF", "expect": "ok"},
        *(
            {"op": "adversary_transfer", "adversary": "EVE", "product": "PC-100", "mode": mode, "expect": f"rejected:{why}"}
            for mode, why in forged
        ),
        {"op": "spoof", "a": "B2", "recipient": "MF", "knows_endpoint_key": True, "expect": "rejected:bad-signature"},
        {"op": "spoof", "a": "B2", "recipient": "MF", "knows_endpoint_key": False, "expect": "rejected:decrypt-error"},
    ]
    return data


def attack_after_claim_new(op):
    """full-lifecycle with an ``op`` of every delivered message between the new claim and the resale."""
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["name"] = f"{op}-after-claim-new"
    at = [step["op"] for step in data["script"]].index("claim_new") + 1
    data["script"].insert(at, {"op": op, "seq": "all-ssi", "expect": "all-rejected"})
    return data


LEDGER_CASES = {name: BUILTIN_SCENARIOS[name] for name in sorted(BUILTIN_SCENARIOS)}
LEDGER_CASES["bench-attack@1"] = bench_attack_data(1)
LEDGER_CASES["replay-after-claim-new"] = attack_after_claim_new("replay")
LEDGER_CASES["tamper-after-claim-new"] = attack_after_claim_new("tamper")


@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_no_ledger_byte_depends_on_attack_steps(name):
    # a replay, tamper or spoof adds hops, never a registry entry: the run without them writes the same ledger and
    # issues the same credentials
    data = LEDGER_CASES[name]
    honest = {**data, "script": [step for step in data["script"] if step["op"] not in ("replay", "tamper", "spoof")]}
    runs = [run_scenario(parse_scenario(d)) for d in (data, honest)]
    assert all(run.ok for run in runs)
    issued = [[rec["meta"]["credentialId"] for rec in run.world.trace if rec["kind"] == "vc-issued"] for run in runs]
    assert runs[0].world.registry.entries == runs[1].world.registry.entries
    assert issued[0] == issued[1]


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
