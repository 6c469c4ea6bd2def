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
        "37a67b9c01afea8c92067fdd3055b21940e393b6b58012dbf8bc02a363f4e0ff",
        "3723ca64364289c5dfad4c1147f364b5ace93d577390d26516c78ecea4c9e2a3",
    ),
    "full-lifecycle": (
        "89f20e9342c5ea2cf076d221d2e62c976f431c61a59ee43962703866ee322373",
        "7baa4014897c0fb74a43aa7413d6ec1f993b1b89b9dc406fdd121139bf9258fd",
    ),
    "wrong-pin": (
        "dcfe6085aac164acc397dcc6e01a61d5105aaf3a7cb3b107368341a5ff97940d",
        "17eac83a2799650981e1d1ed86ae39b5b1a9317cd705be7b5946258b8960cd8b",
    ),
    "replay-attack": (
        "00f659a831d08107a6405835dbe8a8c8b0828ebd71054ff32442cd20b44ef802",
        "44fc56af41a652fc12c761669f41600e1513b55a697261387b5c5884e52bfa69",
    ),
    "duplicate-transfer": (
        "cd8f297e161e35aca4208069741092b7a5ab77292c4d867188c0142b7e55d205",
        "2caf3fcf6555704e6e9646f60188724bc84a1eda95cea44557c21e78c5af307d",
    ),
    "spoof-attack": (
        "399892276fa66cde2ac1cdb716fd58c57787324701e6ee4e5db7efe1cdb204dc",
        "298243e7849ec88200687e00507fd5e54e8c069352d67486d6ee89265d372081",
    ),
    "offline-claim": (
        "2f85b3a38dcf6f4a3850c6961766916c3cb54211f527f89553f792e27712ad3f",
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
    "5994fe889f1daf1836be8a2e0bebc722fbdab019edde5c2dfe5d1b55e3091a6c",
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
