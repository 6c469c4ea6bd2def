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
        "eb78ff52c525e8d7ecc34d09ab8af55c62e4bd6b1d6fabdbbd13f1c3668ab1dc",
        "6098fc23d2b2158f9a2eeb5218867f56e8fd1569c1122ac45d12daf71c39e474",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "c78a401e0821192b9b65c1a79cd3bb6c786e34506247592dcff568618cb5185e",
        "e9d7b93ba937897b57bea62ec36bd5d261df316f043b4166401f389d6733271f",
        "93ed0d7581113372330d845c7fca7d749c1a21848c510fe27d36dac78aa3df35",
    ),
    "wrong-pin": (
        "2a4f7e8062ddde975e970158c2f5e9a815cdec15efd955b38144272645186c65",
        "608d39d6d99af16ac45fb7ad61e5bb9c008e490d6a9e1ede5656310e38fd1683",
        "5abdb00a7a9bd162d815d94ca5b92125973570cf04a64c55ccc2c317950138bd",
    ),
    "replay-attack": (
        "a43538aeee9a6da7bd332312457f663ba132e5d3fc8f6c5a8ddda2bbcecfb763",
        "0915f095cbe37a3316a3b2b857fa2f9c3b7aec832caf958035a3d3169fd97437",
        "83a9301a255f0c64d242a7485b7ddc1bca08b10f443636c143143710a433bd3d",
    ),
    "duplicate-transfer": (
        "f69f4dcdf36a84b90d1d82cbaf1ebe809a56603cb782f29011b084aa22e7aee3",
        "12552a6d6b842edfdebf167bcfcabaae854c7c84f9e09109e9ae128b9749643c",
        "b0bc12636286d3aad2f5b2690c0e169f9882605cea0fa628150b58dc0f7d427e",
    ),
    "spoof-attack": (
        "7d31df43c478480a9ff606074d1339a9f82217a19d7385d202a6bbb8f5697f6b",
        "c354f37ea583ca505a119af12f1a25ba5b9e1bfffed3029592d3adab955f3883",
        "5f4b7d3c52e5ddd01a5593c8d592367728f4f0bc6b6a02347cc2fab9abfac097",
    ),
    "offline-claim": (
        "ca84d6616318d08ede7a5498957310afdd6f43d32302a6fceca90f9a162f7ef2",
        "5bda10c9c1cccfdd6b283dbf37b1df33c3842ffde3f68a7529c7e07bca5acd8d",
        "36b6f9d15e66ea18d124f2b5943b2ba59cfb147e29db968ce8f96bbd152d6fc8",
    ),
    "sale-only": (
        "d195c3bc8c76021ef0f57c931dd52cc27d18e9076bfd16a936c9e97ada1baffc",
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
# spoof from a sender with no connection, spoof with a connected sender's DID
ATTACK_STEPS_GOLDEN = (
    "e58d26ac947be89c54947f74f6e0f74c70eacb5cadb57088d854e2557725bfd0",
    "eae7094d0bb0921994fe64b809d60c2a0579c082f3a352072902cf9a22829921",
    "fa10eecdc06c80881763fbb1503cfb09d05aa06077ce3dea2ebf27c57a07f319",
)


def attack_steps_scenario():
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["name"] = "attack-steps"
    data["seed"] = 53
    data["cast"]["adversaries"] = ["EVE"]
    revoke = {"kind": "revokeVC", "body": {"credentialId": "vc-x", "productCode": "PC-100"}}
    data["script"] += [
        {"op": "tamper", "seq": "last-ssi", "expect": "rejected:decrypt-error"},
        {"op": "tamper", "seq": 20, "byte_index": 3, "new_byte": 0, "expect": "rejected:decrypt-error"},
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
