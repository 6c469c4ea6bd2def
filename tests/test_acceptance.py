"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred.
"""

import dataclasses
import time
from fractions import Fraction

import pytest

from handover import crypto
from handover.agents import (
    AdversaryWallet,
    ClaimantAttribute,
    evaluate_challenge,
    pin_numeric,
)
from handover.credential import present_proof, verify_presentation
from handover.crypto import Rng, generate_symmetric_key, sym_encrypt
from handover.encoding import canonical_json
from handover.invariants import scan_trace
from handover.messages import CHALLENGE_TYPES, mint_pin
from handover.scenarios import BUILTIN_SCENARIOS, builtin_scenario, build_world, execute_step, run_scenario

from conftest import fresh_lifecycle


def _report(number, description):
    print(f"\nACCEPTANCE {number:>2}: PASS - {description}")


def _presentation_valid(result, wallet_name, vc=None):
    wallet = result.cast[wallet_name]
    nonce = crypto.fresh_nonce(result.world.rng)
    vc = vc or wallet.credentials["PC-100"]
    presentation = present_proof(vc, nonce, wallet.did_key)
    # as a third party verifier: it accepts MF's definition and issued nothing itself
    mf_cred_def_id = result.cast["MF"].cred_def_id
    return verify_presentation(presentation, nonce, result.world.registry, wallet.did, mf_cred_def_id, None)


def _ssi_submissions(world):
    return [world.wire_log[seq] for seq in sorted(world.wire_log) if world.wire_log[seq].to == "MD"]


def _protocol_snapshot(world):
    # protocol state: agent state plus mediator routing/queues
    return canonical_json(world.state_dumps())


def test_criterion_01_new_purchase_end_to_end():
    started = time.perf_counter()
    result = run_scenario(builtin_scenario("new-purchase"))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"new purchase took {elapsed:.3f}s"
    assert result.ok
    report = _presentation_valid(result, "B1")
    assert report.valid and report.reason == ""
    again = run_scenario(builtin_scenario("new-purchase"))
    assert result.trace_lines() == again.trace_lines()
    _report(1, f"new purchase completes in {elapsed * 1000:.0f} ms, credential verifies, trace deterministic")


def test_criterion_02_full_transfer_lifecycle():
    result = fresh_lifecycle()
    assert result.ok
    mf, b1, b2 = result.cast["MF"], result.cast["B1"], result.cast["B2"]
    product = mf.products["PC-100"]
    assert product.previously_sold_count == 1
    assert product.current_credential_id == b2.credentials["PC-100"].credential_id and "PC-100" not in mf.claimants
    assert product.conn_id == b2.connections[mf.did].conn_id
    # the run up to the used claim holds the seller's credential as the whole run issued and then revoked it
    before_claim = run_scenario(dataclasses.replace(result.spec, script=result.spec.script[:-1]))
    sellers_vc = before_claim.cast["B1"].credentials["PC-100"]
    revoked = [rec["meta"]["credentialId"] for rec in result.world.trace if rec["kind"] == "vc-revoked"]
    assert revoked == [sellers_vc.credential_id]
    assert b1.credentials == {} and b1.sales == {}  # the revocation notice cleared the spent credential and sale
    seller_report = _presentation_valid(result, "B1", sellers_vc)
    assert not seller_report.valid and seller_report.reason == "revoked"
    buyer_report = _presentation_valid(result, "B2")
    assert buyer_report.valid
    _report(2, "transfer lifecycle: seller revoked, buyer verifies, count=1, status=sold, ConnID=buyer")


def test_criterion_03_pin_challenge_soundness():
    rng = Rng(12321)
    world, cast = build_world(builtin_scenario("full-lifecycle"))
    mf = cast["MF"]
    false_accepts = false_rejects = 0
    ops_seen = {op: 0 for op in CHALLENGE_TYPES}
    for sample in range(1000):
        true_pin = mint_pin(rng)
        if sample % 2 == 0:
            responder_pin = true_pin
        else:
            responder_pin = mint_pin(rng)
            while responder_pin == true_pin:
                responder_pin = mint_pin(rng)
        challenge_by = rng.randint(100, 9999)
        challenge_type = CHALLENGE_TYPES[sample % 4]
        ops_seen[challenge_type] += 1
        key = generate_symmetric_key(rng)
        claim = ClaimantAttribute(
            product_code="PC-100",
            tid="00" * 16,
            encrypted_pin=sym_encrypt(key, 0, true_pin.encode("ascii"), b""),
        )
        result = evaluate_challenge(pin_numeric(responder_pin), challenge_by, challenge_type)
        assert isinstance(result, Fraction)
        if challenge_type == "/":
            assert result == Fraction(pin_numeric(responder_pin), challenge_by)  # exact rational
        accepted, _ = mf.check_challenge_response(claim, key, (challenge_by, challenge_type), result)
        # brute-force oracle: recompute both sides directly
        oracle = evaluate_challenge(pin_numeric(true_pin), challenge_by, challenge_type) == result
        assert accepted == oracle
        should_accept = responder_pin == true_pin
        if accepted and not should_accept:
            false_accepts += 1
        if should_accept and not accepted:
            false_rejects += 1
    assert false_accepts == 0 and false_rejects == 0
    assert all(count == 250 for count in ops_seen.values())
    _report(3, "1000 seeded pin-challenge samples over all four operators: 0 false accepts, 0 false rejects")


def test_criterion_04_replay_suite():
    result = fresh_lifecycle()
    world = result.world
    submissions = _ssi_submissions(world)
    kinds = [event.kind for event in submissions]
    distinct_forms = set(kinds)
    assert len(distinct_forms) == 14 and {"ownershipClaimReq", "usedClaimReq"} <= distinct_forms  # both claim forms
    before = canonical_json(world.state_dumps())
    replayed = 0
    for seq in sorted(world.wire_log):
        world.replay(seq)
        world.run_until_quiescent()
        replayed += 1
    verdicts = [
        rec["verdict"]
        for rec in world.trace
        if rec.get("meta", {}).get("injected") == "replay" and rec["to"] != "MD" and rec["channel"] == "ssi"
    ]
    assert len(verdicts) >= replayed // 2
    assert verdicts and all(v.startswith("rejected") for v in verdicts)
    after = canonical_json(world.state_dumps())
    assert before == after  # zero state change
    assert not any(
        rec["kind"] in ("vc-issued", "vc-revoked") and rec["seq"] > submissions[-1].seq for rec in world.trace
    )
    _report(4, f"replayed {replayed} recorded wire messages covering all 14 forms: all rejected, state unchanged")


def test_criterion_05_tamper_suite():
    # part A: flipping any of 64 sampled ciphertext positions is rejected
    result = fresh_lifecycle()
    world = result.world
    sampler = Rng(999)
    before = _protocol_snapshot(world)
    flips = 0
    for seq in sorted(world.wire_log):
        event = world.wire_log[seq]
        body = event.body.outer_ciphertext if hasattr(event.body, "outer_ciphertext") else event.body
        length = len(body)
        positions = sorted({sampler.randint(0, length - 1) for _ in range(64)}) if length > 64 else range(length)
        for position in positions:
            world.tamper(seq, position, 0x55)
            world.run_until_quiescent()
            flips += 1
    injected = [
        rec["verdict"] for rec in world.trace if rec.get("meta", {}).get("injected") == "tamper"
    ]
    assert len(injected) == flips
    assert all(v.startswith("rejected") or v.startswith("dead-letter") for v in injected)
    assert _protocol_snapshot(world) == before

    # part B: in-flight tamper per message: the flow never commits on tampered data
    spec = builtin_scenario("full-lifecycle")

    def drive(tamper_seq=None):
        world, cast = build_world(spec)
        if tamper_seq is not None:
            world.tamper(tamper_seq, 9, 0x42)
        for step in spec.script:
            execute_step(world, cast, spec, step)
        return world, cast

    reference_world, _ = drive()
    subs = _ssi_submissions(reference_world)
    commit_index = next(i for i, ev in enumerate(subs) if ev.kind == "pinChallengeResp")
    for index, target in enumerate(subs):
        world, cast = drive(tamper_seq=target.seq)
        tampered = [rec for rec in world.trace if rec.get("meta", {}).get("tampered")]
        assert tampered and tampered[0]["verdict"] == "dead-letter:unreadable"
        # messages that only inform a party of a decision already taken at the
        # manufacturer: losing them cannot stop the transfer
        informational = (target.kind == "ownershipClaimAck" and target.frm == "B1") or (
            target.kind == "ownershipTransferResp"
        )
        commit_expected = informational or index > commit_index
        count = cast["MF"].products["PC-100"].previously_sold_count
        assert count == (1 if commit_expected else 0), (index, target.kind, count)
        world.emit_state_dumps()
        assert scan_trace(world.trace) == []
    _report(5, f"{flips} sampled ciphertext flips all rejected; in-flight tamper of each of {len(subs)} messages never commits a transfer")


def test_criterion_06_spoof_suite():
    spec = builtin_scenario("spoof-attack")
    world, cast = build_world(spec)
    for step in spec.script[:4]:  # sale, claim, and connections only
        execute_step(world, cast, spec, step)
    mf, b1, eve = cast["MF"], cast["B1"], cast["EVE"]
    assert isinstance(eve, AdversaryWallet)
    owner_credential = b1.credentials["PC-100"].credential_id
    modes = ("self-issued", "unknown-creddef", "garbage")
    accepted = 0
    proof_failures = 0
    for attempt in range(100):
        product = "PC-404" if attempt % 7 == 3 else "PC-100"
        mark = len(world.trace)
        eve.craft_transfer_request(mf.did, product, modes[attempt % 3])
        world.run_until_quiescent()
        delta = world.trace[mark:]
        for rec in delta:
            if rec["to"] == "EVE" and rec["kind"] == "ownershipTransferResp" and rec["verdict"] == "accepted":
                accepted += 1
            if rec["to"] == "MF" and rec["kind"] == "ownershipProofResp":
                assert rec["verdict"].startswith("rejected:")
                proof_failures += 1
        assert "PC-100" not in mf.claimants  # rolled back every time
        assert mf.products["PC-100"].current_credential_id == owner_credential
        assert mf.products["PC-100"].previously_sold_count == 0
    assert accepted == 0
    assert proof_failures >= 80  # every real-product attempt dies at the proof step
    assert not world.registry.is_revoked(owner_credential)  # rightful owner untouched
    _report(6, f"100 randomized spoofed transfer attempts: 0 accepted, {proof_failures} proof-step rejections")


def test_criterion_07_pin_secrecy_over_seeded_lifecycles():
    lifecycles = 100
    for index in range(lifecycles):
        result = fresh_lifecycle(seed=20_000 + index)
        assert result.ok
        world = result.world
        secrets = [rec["meta"] for rec in world.trace if rec["kind"] == "secret-minted"]
        assert secrets
        wire = b"\x00".join(
            bytes.fromhex(rec["meta"]["bytes"])
            for rec in world.trace
            if rec["channel"] == "ssi" and "bytes" in rec["meta"]
        )
        mediator_bytes = b"\x00".join(
            bytes.fromhex(rec["meta"]["bytes"])
            for rec in world.trace
            if rec["channel"] == "ssi" and "MD" in (rec["from"], rec["to"])
        )
        seller_text = canonical_json(result.cast["B1"].state_dump())
        mediator_text = canonical_json(world.mediator.state_dump())
        for secret in secrets:
            pin, key_hex = secret["pin"], secret["keyHex"]
            pin_bytes, key_bytes = pin.encode("ascii"), bytes.fromhex(key_hex)
            assert pin_bytes not in wire and key_bytes not in wire
            assert pin_bytes not in mediator_bytes and key_bytes not in mediator_bytes
            assert pin not in seller_text and key_hex not in seller_text
            assert pin not in mediator_text and key_hex not in mediator_text
        assert not [v for v in result.violations if v["invariant"] == "pin-secrecy"]
    _report(7, f"{lifecycles} seeded lifecycles: buyer PIN and symmetric key never appear in seller state, mediator state, or wire bytes")


def test_criterion_08_duplicate_transfer_guard():
    result = run_scenario(builtin_scenario("duplicate-transfer"))
    assert result.ok
    world = result.world
    proof_requests = [
        rec
        for rec in world.trace
        if rec["kind"] == "ownershipProofReq" and rec["from"] == "MF" and rec["to"] == "MD"
    ]
    assert len(proof_requests) == 1  # exactly one proof request issued
    transfer_verdicts = [
        rec["verdict"] for rec in world.trace if rec["to"] == "MF" and rec["kind"] == "ownershipTransferReq"
    ]
    assert transfer_verdicts == ["accepted", "rejected:duplicate-transfer"]
    _report(8, "racing transfer requests: exactly one proof request issued, second request rejected")


def test_criterion_09_single_live_credential_every_scenario():
    checked = 0
    for name in BUILTIN_SCENARIOS:
        result = run_scenario(builtin_scenario(name))
        single_live = [v for v in result.violations if v["invariant"] == "single-live-credential"]
        assert single_live == [], (name, single_live)
        assert result.violations == [], (name, result.violations)
        checked += 1
    _report(9, f"single-live-credential (and all scanned invariants) hold across {checked} built-in scenarios")


def test_criterion_10_determinism_trace_and_ledger(tmp_path):
    for name in BUILTIN_SCENARIOS:
        first = run_scenario(builtin_scenario(name))
        second = run_scenario(builtin_scenario(name))
        assert first.trace_lines() == second.trace_lines(), name
        assert first.world.registry.entries == second.world.registry.entries, name
    path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    ledger_a, ledger_b = tmp_path / "la.ndjson", tmp_path / "lb.ndjson"
    first = run_scenario(builtin_scenario("full-lifecycle"))
    first.write_trace(str(path_a))
    first.world.registry.write_ledger(str(ledger_a))
    second = run_scenario(builtin_scenario("full-lifecycle"))
    second.write_trace(str(path_b))
    second.world.registry.write_ledger(str(ledger_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    assert ledger_a.read_bytes() == ledger_b.read_bytes()
    _report(10, "every built-in scenario reruns to byte-identical trace and ledger files under its seed")
