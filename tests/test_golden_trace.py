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
        "e0e89cf29738918f41cf9e34f9e9b7a7733a6404bcb4dad4046a448fb1e28fb6",
        "3723ca64364289c5dfad4c1147f364b5ace93d577390d26516c78ecea4c9e2a3",
        "3c5d39c7ab14301602428086d1f1acd2bbf64b9af0bc6770fa0291a477d9317b",
    ),
    "full-lifecycle": (
        "b460249fc50e0f1da6c4eb4645411bbf88826a6fa297404762b9e558ae1f8e75",
        "7baa4014897c0fb74a43aa7413d6ec1f993b1b89b9dc406fdd121139bf9258fd",
        "93ed0d7581113372330d845c7fca7d749c1a21848c510fe27d36dac78aa3df35",
    ),
    "wrong-pin": (
        "83de4f5580b43f1707f15e8100ea61de2a15c06a42a406ae5547236e8b2c4f78",
        "17eac83a2799650981e1d1ed86ae39b5b1a9317cd705be7b5946258b8960cd8b",
        "5abdb00a7a9bd162d815d94ca5b92125973570cf04a64c55ccc2c317950138bd",
    ),
    "replay-attack": (
        "d90722016c9a45cfe2bb681b60ff9c1c28790c5195135757e8fc1b711cf4983f",
        "44fc56af41a652fc12c761669f41600e1513b55a697261387b5c5884e52bfa69",
        "83a9301a255f0c64d242a7485b7ddc1bca08b10f443636c143143710a433bd3d",
    ),
    "duplicate-transfer": (
        "712d96bc8177079585682917536211ca1cd1dadfc8935be75061be3e14c31df9",
        "2caf3fcf6555704e6e9646f60188724bc84a1eda95cea44557c21e78c5af307d",
        "b0bc12636286d3aad2f5b2690c0e169f9882605cea0fa628150b58dc0f7d427e",
    ),
    "spoof-attack": (
        "15957cffc9ed6a035cd57c69964f6919ac4d5922f2d4cf203aee040344458d07",
        "298243e7849ec88200687e00507fd5e54e8c069352d67486d6ee89265d372081",
        "5f4b7d3c52e5ddd01a5593c8d592367728f4f0bc6b6a02347cc2fab9abfac097",
    ),
    "offline-claim": (
        "95a2d2f5d1de4c989e20303b29a83137fe322cc8667f04c03ebe8d414ab7134a",
        "cf5588933ac4ad10240c441e8292a0f5cd212285e472364ea99fdc726f5450ad",
        "36b6f9d15e66ea18d124f2b5943b2ba59cfb147e29db968ce8f96bbd152d6fc8",
    ),
    "sale-only": (
        "1be0ceae3e6046dafe393c9c22176aaf2b8562267bbaca739a1ccbeecd269574",
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
    "0a890cce8f575eaa2fcdb2afa7e0a2057f88673259d2e509e46f36acbd454818",
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
