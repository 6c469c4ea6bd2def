"""Pinned trace and ledger bytes of every built-in scenario at its own seed,
and of one test-local scenario that runs the attack steps no built-in runs.

A change that is meant to keep behaviour must leave these digests alone; a
change to the wire format or the trace format updates them on purpose.  The
digest covers the bytes ``write_trace`` / ``write_ledger`` would write.
"""

import copy
import hashlib

import pytest

from handover.scenarios import BUILTIN_SCENARIOS, builtin_scenario, parse_scenario, run_scenario

GOLDEN = {
    "new-purchase": (
        "5cac0191c34a216f3c288fca3b7bc55e3cd808820df73a08b9192af2ed871c0d",
        "3723ca64364289c5dfad4c1147f364b5ace93d577390d26516c78ecea4c9e2a3",
    ),
    "full-lifecycle": (
        "a3999d29ec156d321c3115ce2f946621c38bf5983bc65b4b962bbb2a97a37f87",
        "7baa4014897c0fb74a43aa7413d6ec1f993b1b89b9dc406fdd121139bf9258fd",
    ),
    "wrong-pin": (
        "b4979842796df74621091d6689827c4ed789f82986933451b7e95e08b681c631",
        "17eac83a2799650981e1d1ed86ae39b5b1a9317cd705be7b5946258b8960cd8b",
    ),
    "replay-attack": (
        "86e131ff667878bb159f17265ed6bb7ffba4a249f85af5a8758ba5c2bdc6e73b",
        "44fc56af41a652fc12c761669f41600e1513b55a697261387b5c5884e52bfa69",
    ),
    "duplicate-transfer": (
        "38caceb001633861eeb80ec6f1318de68e0d7a475d41ad9b90c8fc74c61f9ac0",
        "2caf3fcf6555704e6e9646f60188724bc84a1eda95cea44557c21e78c5af307d",
    ),
    "spoof-attack": (
        "18f3e64783a46186d1ebe429c06a0d657e18fbeab6e7717920655115e0a0bb9a",
        "298243e7849ec88200687e00507fd5e54e8c069352d67486d6ee89265d372081",
    ),
    "offline-claim": (
        "c2b348093acbc6f6e2cb04d38c18a23c72b398daf3046e1ba322dd659f11a20b",
        "cf5588933ac4ad10240c441e8292a0f5cd212285e472364ea99fdc726f5450ad",
    ),
    "sale-only": (
        "182e286304841b3bdf2a84a1ce4587eee3aa274e0d527ce127f9b33906771e54",
        "bea0948189a15b3e1abe41a9287860725f89943dba1dfc01b682ddeba5b2b111",
    ),
}


def _digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()


def test_every_builtin_is_pinned():
    assert sorted(GOLDEN) == sorted(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_and_ledger(name):
    result = run_scenario(builtin_scenario(name))
    assert result.ok
    trace_sha, ledger_sha = GOLDEN[name]
    assert _digest(result.trace_lines()) == trace_sha
    assert _digest(result.world.registry.ledger_lines()) == ledger_sha


# tamper in flight, tamper a delivered event, spoof without the endpoint key,
# spoof from a sender with no connection, spoof with a connected sender's DID
ATTACK_STEPS_GOLDEN = (
    "91fd6646457ae79e060308b7bad579346d916933428fe92e93748ef9b40e2712",
    "6081dba22468c14148f642b495e99269b15563eeea04093c9f5dd622051acceb",
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
    trace_sha, ledger_sha = ATTACK_STEPS_GOLDEN
    assert _digest(result.trace_lines()) == trace_sha
    assert _digest(result.world.registry.ledger_lines()) == ledger_sha
