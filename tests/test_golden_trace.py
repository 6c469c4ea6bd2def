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
        "7a289560f93b1e6769453ff4d1fa00c45c1e198bf4437115a617e759f3fc9acc",
        "6098fc23d2b2158f9a2eeb5218867f56e8fd1569c1122ac45d12daf71c39e474",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "77d28fd5db0d4643e0ce8aba0895107f43e84a73a4e557d3ba0cca84e833e2e4",
        "e9d7b93ba937897b57bea62ec36bd5d261df316f043b4166401f389d6733271f",
        "93ed0d7581113372330d845c7fca7d749c1a21848c510fe27d36dac78aa3df35",
    ),
    "wrong-pin": (
        "7b7ec1c47dd1fde9836f534bd53370f1f145dcfdc11a96e84aca732391a366f6",
        "608d39d6d99af16ac45fb7ad61e5bb9c008e490d6a9e1ede5656310e38fd1683",
        "546c8ecb1619e48331e1ef6d407a3aba85d62b87dbbdb171d9e7d1c758e05212",
    ),
    "replay-attack": (
        "f70fdb036403252f36e94a1edcf1deb1ed8a06dfb7c404946f67e7d12839b3f5",
        "0915f095cbe37a3316a3b2b857fa2f9c3b7aec832caf958035a3d3169fd97437",
        "83a9301a255f0c64d242a7485b7ddc1bca08b10f443636c143143710a433bd3d",
    ),
    "duplicate-transfer": (
        "b5c6caac87d857a2e1006a785d51d14ebc9e97f7c0812a41545598da11406cf3",
        "12552a6d6b842edfdebf167bcfcabaae854c7c84f9e09109e9ae128b9749643c",
        "c0ec7c89e2dd1028fad147026e27757260b64447993e927431443393d1ff9180",
    ),
    "spoof-attack": (
        "661c57a52d88cadf40e5af30406555ff1a61afdc35c830986c4baabc2ee292db",
        "c354f37ea583ca505a119af12f1a25ba5b9e1bfffed3029592d3adab955f3883",
        "f1a0b056b614279b25cb32867cef57fbb95c961eba7d645f0fdcd385ce5ad872",
    ),
    "offline-claim": (
        "fab41c45f367869172d3e3719fee05931e3f24031bc3c3393a431792f486f861",
        "5bda10c9c1cccfdd6b283dbf37b1df33c3842ffde3f68a7529c7e07bca5acd8d",
        "36b6f9d15e66ea18d124f2b5943b2ba59cfb147e29db968ce8f96bbd152d6fc8",
    ),
    "sale-only": (
        "51475360671aba125f56372872a0f4b6556e1443c4734504f900965e8c7e292a",
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
    "aca512bf8c03bd75f6f1da9cdad618c3fab4cd67c5c7c7bbdd242301142a8ba5",
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
