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
        "8b1f2e725cfa2df10bb96f3168aa7daf0d0dc84929eee108d0178d176ffdf50d",
        "3723ca64364289c5dfad4c1147f364b5ace93d577390d26516c78ecea4c9e2a3",
    ),
    "full-lifecycle": (
        "536491efb6b6db45f24de8e5ff4cc3b22b736e4610c1133647347dd876d52140",
        "7baa4014897c0fb74a43aa7413d6ec1f993b1b89b9dc406fdd121139bf9258fd",
    ),
    "wrong-pin": (
        "e033a6ade162fa876062cc9947154ab95e1453ab2ca182187ce9c2123423f62f",
        "17eac83a2799650981e1d1ed86ae39b5b1a9317cd705be7b5946258b8960cd8b",
    ),
    "replay-attack": (
        "16cae65ecf03db8b454d6f5c92cb3c14b0f0396bb55aeac7a09ec9a3f529c213",
        "44fc56af41a652fc12c761669f41600e1513b55a697261387b5c5884e52bfa69",
    ),
    "duplicate-transfer": (
        "e1d221640857a27907c57281e84ec00ccbb0c87ebf175511776514c54a8fb10d",
        "2caf3fcf6555704e6e9646f60188724bc84a1eda95cea44557c21e78c5af307d",
    ),
    "spoof-attack": (
        "f6319bcff94ca1ae2d81f49b45dd1710abe8d34274f9f1300b1090d174d488c1",
        "298243e7849ec88200687e00507fd5e54e8c069352d67486d6ee89265d372081",
    ),
    "offline-claim": (
        "4849567e35ca7901c61cbe77ff8b6ff487686c9f14349b774c4526783122e69c",
        "cf5588933ac4ad10240c441e8292a0f5cd212285e472364ea99fdc726f5450ad",
    ),
    "sale-only": (
        "8c282a567aea35b3885cf837fe8016eb76da2a6b22b1ade46dc2ab84c59c57bf",
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
    "11fd1866fdc1308274526d12825f32dedd73cb0e9958068d4729da180b512442",
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
