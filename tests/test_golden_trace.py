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
        "dcb2ad1455c3dae2f6194e2e5ed2800842e6d7b99fc7f5957bbf7e61aa65ba56",
        "3723ca64364289c5dfad4c1147f364b5ace93d577390d26516c78ecea4c9e2a3",
    ),
    "full-lifecycle": (
        "18f025ce4b1580a5df86d07707fe7d015e2c91138c83458343ec039e3a25000c",
        "7baa4014897c0fb74a43aa7413d6ec1f993b1b89b9dc406fdd121139bf9258fd",
    ),
    "wrong-pin": (
        "150f68c2b02a3266eb51ddd31a8c8e0ed5ffeed3506e617555a86506a09f1e5a",
        "17eac83a2799650981e1d1ed86ae39b5b1a9317cd705be7b5946258b8960cd8b",
    ),
    "replay-attack": (
        "d4274ce97091c383d444557dc9ea358ebaa160fb6289650e07095d7b756b265a",
        "44fc56af41a652fc12c761669f41600e1513b55a697261387b5c5884e52bfa69",
    ),
    "duplicate-transfer": (
        "7b7d0ec63e54cbd1591fcaf4730a1655324164e93f936e93dcf5574cf3f9e45a",
        "2caf3fcf6555704e6e9646f60188724bc84a1eda95cea44557c21e78c5af307d",
    ),
    "spoof-attack": (
        "8e44afe2568bba3bd80b8241e4baef679529d3ff596ebe193d4c3de09c476011",
        "298243e7849ec88200687e00507fd5e54e8c069352d67486d6ee89265d372081",
    ),
    "offline-claim": (
        "d480f4a329a87bffcc5f83a121f9dcc6cedffad4a6a4bbba4deaba24aa25d062",
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
    "2577ec27982f9098e5ee12453854c8c3b68ab41dd99f2ac6d0348e63762cf2cf",
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
