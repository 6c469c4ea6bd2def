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
        "fd32e5d2ab4cc1dd53bde4a1de2bcfe188cb00ced2ff17d877dbf3aa71e50334",
        "3723ca64364289c5dfad4c1147f364b5ace93d577390d26516c78ecea4c9e2a3",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "9db8ee828486bcdf4c70d816c02360ce29099a88d52b29af64f5dedbfc3f1c6f",
        "7baa4014897c0fb74a43aa7413d6ec1f993b1b89b9dc406fdd121139bf9258fd",
        "93ed0d7581113372330d845c7fca7d749c1a21848c510fe27d36dac78aa3df35",
    ),
    "wrong-pin": (
        "4ec6c8ecee4387cc57a67c9907c47fa9d2a0434ca63dc41c2bc1144c7fa9a46c",
        "17eac83a2799650981e1d1ed86ae39b5b1a9317cd705be7b5946258b8960cd8b",
        "5abdb00a7a9bd162d815d94ca5b92125973570cf04a64c55ccc2c317950138bd",
    ),
    "replay-attack": (
        "2ec67102e5e2a6c08aededd9b2477827346389f9ec3bf71cdd412e16c01c844b",
        "44fc56af41a652fc12c761669f41600e1513b55a697261387b5c5884e52bfa69",
        "83a9301a255f0c64d242a7485b7ddc1bca08b10f443636c143143710a433bd3d",
    ),
    "duplicate-transfer": (
        "18f2ae6221b7157856a8a51354d2b486bb9f3cc348ae2cb8411e2d51d49e41db",
        "2caf3fcf6555704e6e9646f60188724bc84a1eda95cea44557c21e78c5af307d",
        "b0bc12636286d3aad2f5b2690c0e169f9882605cea0fa628150b58dc0f7d427e",
    ),
    "spoof-attack": (
        "4f5ebe89fa258f302320a7a6b43c9906c83e6217540d2d3035f72243eccda528",
        "298243e7849ec88200687e00507fd5e54e8c069352d67486d6ee89265d372081",
        "5f4b7d3c52e5ddd01a5593c8d592367728f4f0bc6b6a02347cc2fab9abfac097",
    ),
    "offline-claim": (
        "ad1b4b99072013f60057427edbbe3f9eee3244934df68daac4cf6d522b712949",
        "cf5588933ac4ad10240c441e8292a0f5cd212285e472364ea99fdc726f5450ad",
        "36b6f9d15e66ea18d124f2b5943b2ba59cfb147e29db968ce8f96bbd152d6fc8",
    ),
    "sale-only": (
        "7ab4c6402f2b08495d308d356f101fc377f1a9a7c08d527ced9c8a6d2031efdc",
        "bea0948189a15b3e1abe41a9287860725f89943dba1dfc01b682ddeba5b2b111",
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
    "cd7e721162a7539989c93750a2cf5294f1588ea8a4857e85ac9ade149b7421e3",
    "6081dba22468c14148f642b495e99269b15563eeea04093c9f5dd622051acceb",
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
