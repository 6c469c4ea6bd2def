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
        "5575f4ee5d2bccf2853bd53d7a69440b6a63e062f53d19fe95770dcf2e33e2e8",
        "6098fc23d2b2158f9a2eeb5218867f56e8fd1569c1122ac45d12daf71c39e474",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "9df13841312a124cf684e1c8daf2264057cca4fb361f088a5a8f6f27b5b2f7d7",
        "e9d7b93ba937897b57bea62ec36bd5d261df316f043b4166401f389d6733271f",
        "93ed0d7581113372330d845c7fca7d749c1a21848c510fe27d36dac78aa3df35",
    ),
    "wrong-pin": (
        "edb40b12bb662c77b6b543f9de8f51477a321de996c625858fb31eea12d43e70",
        "608d39d6d99af16ac45fb7ad61e5bb9c008e490d6a9e1ede5656310e38fd1683",
        "546c8ecb1619e48331e1ef6d407a3aba85d62b87dbbdb171d9e7d1c758e05212",
    ),
    "replay-attack": (
        "7152b061e2d1dddde017a97327fa414cf635a70d1955bec696041c0ec1e149e2",
        "0915f095cbe37a3316a3b2b857fa2f9c3b7aec832caf958035a3d3169fd97437",
        "83a9301a255f0c64d242a7485b7ddc1bca08b10f443636c143143710a433bd3d",
    ),
    "duplicate-transfer": (
        "90a6d42768dc293c762c5cfdee9232d6436bfeb245ddcd7c60bbef2f8e71d8c0",
        "12552a6d6b842edfdebf167bcfcabaae854c7c84f9e09109e9ae128b9749643c",
        "c0ec7c89e2dd1028fad147026e27757260b64447993e927431443393d1ff9180",
    ),
    "spoof-attack": (
        "8d3f6e89b3b9c08fd0569db91630973c99ba4cb0a75bf1d86992a9a50df419dd",
        "c354f37ea583ca505a119af12f1a25ba5b9e1bfffed3029592d3adab955f3883",
        "f1a0b056b614279b25cb32867cef57fbb95c961eba7d645f0fdcd385ce5ad872",
    ),
    "offline-claim": (
        "9f005640c6ac682d6be45f00539b25d0becca5c000a332db3454b3285d946bc4",
        "5bda10c9c1cccfdd6b283dbf37b1df33c3842ffde3f68a7529c7e07bca5acd8d",
        "36b6f9d15e66ea18d124f2b5943b2ba59cfb147e29db968ce8f96bbd152d6fc8",
    ),
    "sale-only": (
        "cafe51b7004b7ce30aca5c39a544fd372420746fc92ce2c6ccfe8b05cf2a14ef",
        "54a92f93f95d01ac4701b92c655773f35c07688d429934d9b6c5f79cbba27a5f",
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
    "44cad834e0e5380661e0106a6df20d1febc30accfc0abdcd79ae562140b0c647",
    "eae7094d0bb0921994fe64b809d60c2a0579c082f3a352072902cf9a22829921",
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
