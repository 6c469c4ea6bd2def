"""Pinned trace and ledger bytes of every built-in scenario at its own seed,
and of one test-local scenario that runs the attack steps no built-in runs.

A change that is meant to keep behaviour must leave these digests alone; a
change to the wire format or the trace format updates them on purpose.  The
first two digests cover the bytes ``write_trace`` / ``write_ledger`` would
write.  The third covers each trace record without its ``meta`` (seq, tick,
from, to, channel, kind, verdict): it pins what happened, not the bytes, so a
change that only moves wire bytes or state dumps keeps it unchanged.
"""

import copy
import hashlib

import pytest

from handover.encoding import canonical_json
from handover.scenarios import BUILTIN_SCENARIOS, builtin_scenario, parse_scenario, run_scenario

GOLDEN = {
    "new-purchase": (
        "ca9389d07565ce1dba0b915d057ab602e86c6f2dbe02d8457e71023ece573aed",
        "b50bd021aadd2d5a1df4cbee19e620722a32fd325a8d46a3b4f63f95eb2b0d98",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "d189c97f913e75cf4068b520ce8cb8542be8d58874ee2562e38c12d3b39aee49",
        "23f27ce5dbf3a524e181954fe6203d9bcf940a9c006dc7dfcd2083f0e15a2d6b",
        "93ed0d7581113372330d845c7fca7d749c1a21848c510fe27d36dac78aa3df35",
    ),
    "wrong-pin": (
        "171d3181b88210b14361e7b051e9df369e7622ffa89e108d31a4656bf2426a4d",
        "7c6fea3a06ead4a326690e16297b4aadfb03ee06b9f15851118a51248d51b237",
        "546c8ecb1619e48331e1ef6d407a3aba85d62b87dbbdb171d9e7d1c758e05212",
    ),
    "replay-attack": (
        "4df38ae2d6a9fc131b4bd96a173d4862457b91ef305560f3e4600a7ce5c78451",
        "2fef9be42627c8c788791d45d8b42d5453d5ad132fc7c667d52650b5979e773a",
        "83a9301a255f0c64d242a7485b7ddc1bca08b10f443636c143143710a433bd3d",
    ),
    "duplicate-transfer": (
        "83dbab71ea81586d2db52e00f228fb3bcfd906a769996e0e09fbf04c9c3bb588",
        "1bcc4455e954b8d9746e3e98b9b9d42d6b08825639d95c4ad8e45361e4d6bfc7",
        "c0ec7c89e2dd1028fad147026e27757260b64447993e927431443393d1ff9180",
    ),
    "spoof-attack": (
        "8862568d670acbf60241cc8106a45380d6512315c64d822d2798d06ec36a51ca",
        "1723fa2eba7fcaeb21d060eed8ff0bbf87a6f252c3d7c85067b9e500240d9f55",
        "f1a0b056b614279b25cb32867cef57fbb95c961eba7d645f0fdcd385ce5ad872",
    ),
    "offline-claim": (
        "3dee7357112a06f2c257813079ca72d7b0f7c5bc391155d6694df869d638d4bb",
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
    "ab3879d8693141b19a307f7bca40b3f424cf53ae12ca8b271ccb2bb434cd80b1",
    "4ec361516d47e6cef55842b6dded7b3fd375fb5a9627d998ff83c8acec1cf909",
    "1ffd21b450712b2c0aec514cbf5b9f6358d230a26452c8b79ed3e4a72ebb1581",
)


def attack_steps_scenario():
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["name"] = "attack-steps"
    data["seed"] = 53
    data["cast"]["adversaries"] = ["EVE"]
    revoke = {"kind": "revokeVC", "body": {"credentialId": "vc-x", "productCode": "PC-100"}}
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
