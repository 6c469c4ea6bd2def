import io
import json

import pytest

from handover.cli import main
from handover.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    builtin_scenario,
    load_scenario_file,
    parse_scenario,
    run_scenario,
)


def run_cli(*argv, stdin=""):
    out = io.StringIO()
    code = main(list(argv), out=out, stdin=io.StringIO(stdin))
    return code, out.getvalue()


def test_run_builtin_passes(tmp_path):
    code, output = run_cli("run", "new-purchase")
    assert code == 0
    assert "scenario new-purchase: PASS" in output
    assert output.count("PASS") >= 3


def test_run_writes_trace_and_ledger(tmp_path):
    trace = tmp_path / "trace.ndjson"
    ledger = tmp_path / "ledger.ndjson"
    code, _ = run_cli("run", "full-lifecycle", "--trace", str(trace), "--ledger-out", str(ledger))
    assert code == 0
    trace_lines = trace.read_text().splitlines()
    assert all(json.loads(line) for line in trace_lines)
    assert ledger.read_text().splitlines()
    # identical invocation gives byte-identical files
    trace2 = tmp_path / "trace2.ndjson"
    ledger2 = tmp_path / "ledger2.ndjson"
    run_cli("run", "full-lifecycle", "--trace", str(trace2), "--ledger-out", str(ledger2))
    assert trace.read_bytes() == trace2.read_bytes()
    assert ledger.read_bytes() == ledger2.read_bytes()


@pytest.mark.parametrize("option", ["--trace", "--ledger-out"])
def test_run_unwritable_output_exit_2(tmp_path, option):
    path = tmp_path / "missing-dir" / "out.ndjson"
    code, output = run_cli("run", "new-purchase", option, str(path))
    assert code == 2
    assert f"cannot write {path}: No such file or directory" in output


def test_run_seed_override_changes_trace(tmp_path):
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    run_cli("run", "new-purchase", "--trace", str(a), "--seed", "5")
    run_cli("run", "new-purchase", "--trace", str(b), "--seed", "6")
    assert a.read_bytes() != b.read_bytes()


def test_run_malformed_scenario_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, output = run_cli("run", str(bad))
    assert code == 2
    assert "scenario error" in output


def test_run_missing_key_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "seed": 1, "cast": {"manufacturer": "MF", "wallets": []}}))
    code, output = run_cli("run", str(bad))
    assert code == 2
    assert "products" in output


def test_run_verdict_mismatch_exit_1(tmp_path):
    data = dict(BUILTIN_SCENARIOS["new-purchase"])
    data = json.loads(json.dumps(data))
    data["script"][2]["expect"] = "rejected:unknown-claim"  # wrong expectation on purpose
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(data))
    code, output = run_cli("run", str(path))
    assert code == 1
    assert "FAIL at step 3" in output
    assert "got accepted" in output


def test_scan_clean_trace(tmp_path):
    trace = tmp_path / "trace.ndjson"
    run_cli("run", "full-lifecycle", "--trace", str(trace))
    code, output = run_cli("scan", str(trace))
    assert code == 0
    assert "0 violation(s)" in output


def _plant_pin_on_wire(records):
    secret = next(r for r in records if r["kind"] == "secret-minted")
    wire = next(r for r in records if r["channel"] == "ssi" and "bytes" in r["meta"])
    wire["meta"]["bytes"] += secret["meta"]["pin"].encode("ascii").hex()


def _plant_second_live_credential(records):
    issued = next(r for r in records if r["kind"] == "vc-issued")
    records.append({**issued, "meta": {**issued["meta"], "credentialId": "vc-planted"}})


def _plant_sold_count(count, reason):
    def plant(records):
        update = [r for r in records if r["kind"] == "product-updated"][-1]  # previouslySoldCount 1
        records.append({**update, "meta": {**update["meta"], "previouslySoldCount": count, "reason": reason}})

    return plant


@pytest.mark.parametrize(
    "plant, invariant",
    [
        (_plant_pin_on_wire, "pin-secrecy"),
        (_plant_second_live_credential, "single-live-credential"),
        (_plant_sold_count(0, "transfer-committed"), "counter-monotonicity"),
        (_plant_sold_count(2, "new-purchase"), "counter-monotonicity"),
    ],
    ids=["pin-on-wire", "second-vc-issued", "sold-count-falls", "sold-count-rises-uncommitted"],
)
def test_scan_detects_planted_violation(tmp_path, plant, invariant):
    trace = tmp_path / "trace.ndjson"
    run_cli("run", "full-lifecycle", "--trace", str(trace))
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    plant(records)
    trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, output = run_cli("scan", str(trace))
    assert code == 1
    assert f" {invariant}: " in output
    assert "1 violation(s)" in output


def test_scan_bad_file_exit_2(tmp_path):
    trace = tmp_path / "trace.ndjson"
    trace.write_text('{"seq": 1}\nnot-json\n')
    code, _ = run_cli("scan", str(trace))
    assert code == 2
    code, _ = run_cli("scan", str(tmp_path / "missing.ndjson"))
    assert code == 2


@pytest.mark.parametrize("content, lineno", [(b'{"seq": 1}\n\xff\xfe\n', 2), (b"\xff\xfe\n", 1)], ids=["line-2", "line-1"])
def test_scan_not_utf8_exit_2(tmp_path, content, lineno):
    trace = tmp_path / "trace.ndjson"
    trace.write_bytes(content)
    code, output = run_cli("scan", str(trace))
    assert code == 2
    assert output == f"{trace}:{lineno}: not UTF-8\n"


@pytest.mark.parametrize(
    "record, reason",
    [
        ({"seq": 1, "kind": "vc-issued", "channel": "registry", "meta": {}}, "KeyError: 'productCode'"),
        ({"seq": 1, "kind": "secret-minted", "channel": "audit", "meta": {}}, "KeyError: 'pin'"),
        ({"seq": 1, "kind": "PINReq", "channel": "ssi", "meta": {"bytes": "zz"}}, "ValueError"),
        ([1, 2], "AttributeError"),
    ],
    ids=["vc-issued-no-fields", "secret-minted-no-fields", "ssi-bad-hex", "not-an-object"],
)
def test_scan_unreadable_record_exit_2(tmp_path, record, reason):
    trace = tmp_path / "trace.ndjson"
    trace.write_text('{"seq": 0, "kind": "note"}\n\n' + json.dumps(record) + "\n")
    code, output = run_cli("scan", str(trace))
    assert code == 2
    assert output.startswith(f"{trace}:3: unreadable record: {reason}")
    assert "Traceback" not in output


def test_list_builtins():
    code, output = run_cli("list")
    assert code == 0
    for name in BUILTIN_SCENARIOS:
        assert name in output


def test_usage_error_exit_2():
    code, _ = run_cli("run")  # missing scenario argument
    assert code == 2


def test_wallet_repl_claim_flow():
    # determinism lets a parallel run of the same scenario predict the emailed values
    reference = run_scenario(builtin_scenario("sale-only"))
    inbox = reference.cast["B1"].inbox
    tid = next(m.fields["tid"] for m in inbox if m.subject == "tid")
    pin = next(m.fields["pin"] for m in inbox if m.subject == "pin")
    script = "\n".join(
        [
            "inbox",
            "credentials",
            "connect MF",
            f"claim {tid} WRONGP",  # wrong pin first: rejection, repl continues
            f"claim {tid} {pin}",
            "credentials",
            "quit",
        ]
    )
    code, output = run_cli("wallet", "B1", stdin=script + "\n")
    assert code == 0
    assert f"tid: nonce=" in output or "tid:" in output  # inbox shows both emails
    assert "pin:" in output
    assert "(none)" in output  # credentials empty before the claim
    assert "claim_new: rejected:unknown-claim" in output
    assert "claim_new: accepted" in output
    assert "[valid]" in output


def test_wallet_repl_reports_a_bad_argument_and_keeps_reading():
    stdin = "connect MF\nclaim abc bad!\nclaim\nsell B2\nconnect B1\ncredentials\nquit\n"
    code, output = run_cli("wallet", "B1", stdin=stdin)
    assert code == 0
    assert "error: claim_new.pin: expected a pin, got 'bad!'" in output
    assert "error: usage: claim <tid> <pin>\n" in output
    assert "error: usage: sell <buyer> <product>\n" in output
    assert "error: connect.b: 'B1' cannot connect to itself\n" in output
    assert "(none)" in output  # the command after the bad ones still ran


def test_wallet_repl_rejects_wrong_agent():
    code, output = run_cli("wallet", "MF")
    assert code == 2
    assert "not a wallet" in output


def _append_step(step):
    return lambda data: data["script"].append({**step, "expect": "-"})


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda data: data["script"][1].__setitem__("a", "GHOST"), "script[1].a"),
        (_append_step({"op": "spoof", "a": "B1", "recipient": "GHOST"}), "script[3].recipient"),
        (lambda data: data["script"][1].pop("b"), "script[1].b"),
        (_append_step({"op": "online"}), "script[3].agent"),
        (_append_step({"op": "adversary_transfer", "adversary": "B1", "product": "PC-100"}), "script[3].adversary"),
        (lambda data: data["cast"].pop("distributor"), "script[0].distributor"),
        (lambda data: data["cast"].__setitem__("wallets", ["B1", 7]), "cast"),
        (_append_step({"op": "spoof", "a": "B1", "recipient": "MF", "message": "PINReq"}), "script[3].message"),
        (_append_step({"op": "claim_new", "wallet": "MF", "tid": "00" * 16, "pin": "AAAAAA"}), "script[3].wallet"),
        (_append_step({"op": "sell", "seller": "DS", "buyer": "B1", "product": "PC-100"}), "script[3].seller"),
        (_append_step({"op": "transfer", "seller": "MF", "product": "PC-100"}), "script[3].seller"),
        (_append_step({"op": "claim_used", "wallet": "DS", "tid": "00" * 16}), "script[3].wallet"),
    ],
    ids=[
        "undeclared-a",
        "spoof-undeclared-recipient",
        "connect-without-b",
        "online-without-agent",
        "adversary-transfer-plain-wallet",
        "record-sale-no-distributor",
        "non-string-wallet",
        "spoof-message-not-object",
        "claim-new-manufacturer",
        "sell-distributor",
        "transfer-manufacturer",
        "claim-used-distributor",
    ],
)
def test_parse_scenario_unknown_agent_reference(tmp_path, mutate, location):
    data = json.loads(json.dumps(BUILTIN_SCENARIOS["new-purchase"]))
    mutate(data)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert str(err.value).startswith(f"{location}: ")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, output = run_cli("run", str(path))
    assert code == 2
    assert output == f"scenario error: {err.value}\n"


def _with_adversary(step):
    def mutate(data):
        data["cast"]["adversaries"] = ["EVE"]
        _append_step(step)(data)

    return mutate


def _set_step_arg(index, key, value):
    return lambda data: data["script"][index].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate, location",
    [
        (lambda data: data["script"][0].pop("product"), "script[0].product"),
        (_set_step_arg(0, "product", ["PC-100"]), "script[0].product"),
        (_set_step_arg(0, "product", 100), "script[0].product"),
        (_set_step_arg(2, "pin", 123456), "script[2].pin"),
        (_set_step_arg(2, "pin", "x"), "script[2].pin"),
        (_append_step({"op": "spoof", "a": "B1", "recipient": "MF", "message": {"body": "tid"}}), "script[3].message"),
        (_append_step({"op": "spoof", "a": "B1", "recipient": "MF", "message": {"kind": ["PINReq"]}}), "script[3].message"),
        (
            _append_step({"op": "spoof", "recipient": "MF", "message": {"kind": "PINResp", "body": {"encryptedPin": "zz"}}}),
            "script[3].message",
        ),
        (_append_step({"op": "spoof", "recipient": "MF", "message": {"kind": "ownershipClaimResp"}}), "script[3].message"),
        (
            _append_step(
                {"op": "spoof", "recipient": "MF", "message": {"kind": "pinChallengeResp", "body": {"challengeResult": [1, 0]}}}
            ),
            "script[3].message",
        ),
        (_append_step({"op": "spoof", "recipient": "MF", "knows_endpoint_key": "yes"}), "script[3].knows_endpoint_key"),
        (_append_step({"op": "tamper", "byte_index": "7"}), "script[3].byte_index"),
        (_append_step({"op": "tamper", "new_byte": None}), "script[3].new_byte"),
        (_append_step({"op": "replay", "seq": "first-ssi"}), "script[3].seq"),
        (_append_step({"op": "replay", "seq": True}), "script[3].seq"),
        (lambda data: data["cast"].__setitem__("adversaries", 1), "cast.adversaries"),
        (lambda data: data.__setitem__("products", [100]), "scenario.products"),
        (_set_step_arg(0, "prodcut", "PC-100"), "script[0].prodcut"),
        (_append_step({"op": "tamper", "byteindex": 3}), "script[3].byteindex"),
        (_append_step({"op": "connect", "a": "B1", "b": "B1"}), "script[3].b"),
        (_append_step({"op": "tamper", "new_byte": 421}), "script[3].new_byte"),
        (_append_step({"op": "tamper", "new_byte": -1}), "script[3].new_byte"),
        (
            _append_step({"op": "spoof", "a": "B1", "forged_sender": "did:handover:ghost", "recipient": "MF"}),
            "script[3].forged_sender",
        ),
        (
            _with_adversary({"op": "adversary_transfer", "adversary": "EVE", "product": "PC-100", "mode": "selfissued"}),
            "script[3].mode",
        ),
    ],
    ids=[
        "record-sale-without-product",
        "record-sale-product-list",
        "record-sale-product-int",
        "claim-new-pin-int",
        "claim-new-pin-not-a-pin",
        "spoof-body-string",
        "spoof-kind-list",
        "spoof-body-bad-hex",
        "spoof-kind-with-credential",
        "spoof-fraction-zero-denominator",
        "spoof-key-flag-string",
        "tamper-byte-index-string",
        "tamper-new-byte-null",
        "replay-unknown-selector",
        "replay-seq-bool",
        "adversaries-int",
        "product-code-int",
        "misspelt-product",
        "misspelt-byte-index",
        "connect-to-itself",
        "tamper-new-byte-above-255",
        "tamper-new-byte-negative",
        "spoof-a-and-forged-sender",
        "adversary-transfer-unknown-mode",
    ],
)
def test_parse_scenario_bad_argument_exit_2(tmp_path, mutate, location):
    data = json.loads(json.dumps(BUILTIN_SCENARIOS["new-purchase"]))
    mutate(data)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert str(err.value).startswith(f"{location}: ")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, output = run_cli("run", str(path))
    assert code == 2
    assert output == f"scenario error: {err.value}\n"


def test_load_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BUILTIN_SCENARIOS["new-purchase"]))
    spec = load_scenario_file(str(path))
    result = run_scenario(spec)
    assert result.ok


def test_run_max_ticks_stops_delivery_with_one_timeout_record(tmp_path):
    trace = tmp_path / "trace.ndjson"
    code, output = run_cli("run", "full-lifecycle", "--max-ticks", "5", "--trace", str(trace))
    assert code == 1
    assert "TIMEOUT" in output
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert sum(r["kind"] == "timeout" for r in records) == 1
    deliveries = [r for r in records if r["channel"] in ("ssi", "https", "oob-email")]
    assert deliveries and max(r["tick"] for r in deliveries) <= 5
