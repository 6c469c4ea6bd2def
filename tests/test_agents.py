import dataclasses
import json
from fractions import Fraction
from functools import reduce

import pytest

from handover import crypto
from handover.agents import (
    AdversaryWallet,
    AgentActionError,
    DistributorAgent,
    ManufacturerAgent,
    PinFormatError,
    WalletAgent,
    establish_connection,
    evaluate_challenge,
    pin_numeric,
)
from handover.crypto import DecryptError, SymmetricKey, sym_decrypt
from handover.encoding import canonical_json, encode, encode_value
from handover.invariants import scan_trace
from handover.credential import present_proof, vc_to_wire
from handover.messages import Envelope, mint_tid, payload, signing_bytes
from handover.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioStep,
    build_world,
    builtin_scenario,
    execute_step,
    parse_scenario,
    run_scenario,
)
from handover.simnet import World

from conftest import fresh_lifecycle


def make_world(seed=7, wallets=("B1", "B2"), products=("PC-100",)):
    world = World(seed)
    mf = ManufacturerAgent("MF", world)
    for code in products:
        mf.add_product(code)
    ds = DistributorAgent("DS", world)
    cast = {"MF": mf, "DS": ds}
    for name in wallets:
        cast[name] = WalletAgent(name, world)
    return world, cast


def sell_to(world, cast, buyer="B1", product="PC-100"):
    cast["DS"].record_sale("MF", product, cast[buyer].email)
    world.run_until_quiescent()


def emailed(wallet, subject):
    return next(m.fields for m in reversed(wallet.inbox) if m.subject == subject)


def claim_new(world, cast, buyer="B1", product="PC-100", pin=None, tid=None):
    wallet = cast[buyer]
    establish_connection(wallet, cast["MF"])
    wallet.claim_new(
        cast["MF"].did.uri,
        tid if tid is not None else emailed(wallet, "tid")["tid"],
        pin if pin is not None else emailed(wallet, "pin")["pin"],
    )
    world.run_until_quiescent()


def run_sale_and_claim(seed=7):
    world, cast = make_world(seed)
    sell_to(world, cast)
    claim_new(world, cast)
    return world, cast


def start_resale(world, cast, seller="B1", buyer="B2", product="PC-100"):
    establish_connection(cast[seller], cast[buyer])
    cast[seller].start_sell(cast[buyer].did.uri, product)
    world.run_until_quiescent()


# -- pin arithmetic -----------------------------------------------------------


def test_pin_numeric_zero():
    assert pin_numeric("000000") == 0


def test_pin_numeric_positional_base36():
    # independent positional oracle
    digits = [10, 1, 11, 2, 12, 3]  # A 1 B 2 C 3
    oracle = reduce(lambda acc, d: acc * 36 + d, digits, 0)
    assert oracle == 606857619
    assert pin_numeric("A1B2C3") == oracle


def test_pin_numeric_maximal():
    assert pin_numeric("ZZZZZZZZ") == 36**8 - 1
    assert pin_numeric("ZZZZZZZZ") == 2821109907455


def test_pin_numeric_rejects_bad_input():
    for bad in ("A1B2C!", "a1b2c3", "SHORT", "TOOLONGPIN", ""):
        with pytest.raises(PinFormatError):
            pin_numeric(bad)


def test_evaluate_challenge_examples():
    assert evaluate_challenge(123456, 100, "+") == Fraction(123556, 1)
    assert evaluate_challenge(123456, 1000, "/") == Fraction(15432, 125)
    assert evaluate_challenge(0, 500, "*") == Fraction(0, 1)


def test_evaluate_challenge_exactness():
    for op in "+-*/":
        result = evaluate_challenge(987654, 321, op)
        assert isinstance(result, Fraction)
        if op != "/":
            assert result.denominator == 1
    assert evaluate_challenge(100, 9999, "-") < 0  # subtraction may go negative
    with pytest.raises(ValueError):
        evaluate_challenge(1, 99, "+")
    with pytest.raises(ValueError):
        evaluate_challenge(1, 10000, "+")


def test_challenge_draw_distribution():
    # seeded-frequency oracle: 10^4 draws, each operator within 25% +/- 5%
    world, cast = make_world(seed=99)
    counts = {op: 0 for op in "+-*/"}
    for _ in range(10_000):
        by, op = cast["MF"].draw_challenge()
        assert 100 <= by <= 9999
        counts[op] += 1
    for op, count in counts.items():
        assert 0.20 <= count / 10_000 <= 0.30, (op, count)


# -- connections ---------------------------------------------------------------


def test_establish_connection_roundtrip():
    world, cast = make_world()
    a, b = establish_connection(cast["B1"], cast["B2"])
    assert a.conn_id == b.conn_id
    assert a.remote_public_key == b.local.public_key
    # ping: a PINReq flows B1 -> MD -> B2 and the wallet answers
    cast["B1"].start_sell(cast["B2"].did.uri, "PC-100")
    world.run_until_quiescent()
    entry = cast["B1"].claiming[0]
    assert entry.encrypted_pin is not None  # PINResp delivered and verified


def test_two_connections_distinct_ids_and_keys():
    world, cast = make_world(wallets=("B1", "B2", "B3"))
    a, _ = establish_connection(cast["B1"], cast["B2"])
    c, _ = establish_connection(cast["B1"], cast["B3"])
    assert a.conn_id != c.conn_id
    assert a.local.public_key != c.local.public_key


def test_invitation_replay_cannot_read_prior_traffic():
    # transcript-decryption oracle: a later connection's keys open none of the
    # inner ciphertexts recorded before it existed
    world, cast = make_world()
    sell_to(world, cast)
    claim_new(world, cast)
    transcript = [
        bytes.fromhex(rec["meta"]["bytes"])
        for rec in world.trace
        if rec["channel"] == "ssi" and rec["from"] == "MD"
    ]
    assert transcript
    eve = WalletAgent("EVE", world)
    eve_conn, _ = establish_connection(eve, cast["MF"])
    for inner in transcript:
        with pytest.raises(DecryptError):
            from handover.messages import open_inner

            open_inner(eve_conn.local, inner)


def test_rekeyed_connection_opens_only_under_the_new_key():
    world, cast = make_world()
    b1, b2 = cast["B1"], cast["B2"]
    old, _ = establish_connection(b1, b2)
    new, _ = establish_connection(b1, b2)  # both sides replace the connection
    for conn in (old, new):
        b1.send(conn, crypto.fresh_nonce(world.rng), payload("PINReq", tid=mint_tid(world.rng)))
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B2" and r["kind"] == "PINReq"]
    assert verdicts == ["rejected:decrypt-error", "accepted"]


def test_message_to_another_peers_connection_key_fails_signature():
    # B2 signs with its own connection key but addresses MF's key of the B1
    # connection: MF verifies under B1's key, because the key names the peer
    spec = builtin_scenario("full-lifecycle")
    world, cast = build_world(spec)
    for step in spec.script[:6]:  # through connect B2-MF
        assert execute_step(world, cast, spec, step) == step.expect
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    before = mf.state_dump()
    redirected = dataclasses.replace(
        b2.connections[mf.did.uri], remote_public_key=b1.connections[mf.did.uri].remote_public_key
    )
    claim = payload("ownershipClaimReq", tid=mint_tid(world.rng), pin="AAAAAA", key=None)
    b2.send(redirected, crypto.fresh_nonce(world.rng), claim)
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == ("MF", "rejected:bad-signature")
    assert mf.state_dump() == before


def test_every_delivery_redirected_to_another_connection_fails_signature():
    # an inner layer re-encrypted to another connection key of its recipient
    # is checked against that connection's peer, who did not sign it
    result = fresh_lifecycle()
    world = result.world
    deliveries = [event for _, event in sorted(world.wire_log.items()) if event.to != "MD"]
    assert len(deliveries) == 16
    copies = 0
    for event in deliveries:
        recipient = world.agents[event.to]
        conns = list(recipient.connections.values())
        named = next(c for c in conns if c.local.kid == event.body[: crypto.KEY_ID_LEN])
        plain = crypto.asym_decrypt(named.local, event.body)
        for other in conns:
            if other is named:
                continue
            before = recipient.state_dump()
            ephemeral = crypto.ephemeral_key(world.rng)
            inner = crypto.asym_encrypt(world.rng, ephemeral, other.local.public_key, plain)
            route = encode(["route", recipient.did.uri, inner])
            outer = crypto.asym_encrypt(world.rng, ephemeral, world.mediator_public_key(), route)
            world.send_envelope("adversary", Envelope(outer), event.kind)
            world.run_until_quiescent()
            assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (event.to, "rejected:bad-signature")
            assert recipient.state_dump() == before
            copies += 1
    assert copies == len(deliveries)  # every recipient ends with two connections


def test_one_decryption_per_ssi_delivery(monkeypatch):
    # 4 products bought, claimed, resold and claimed again: MF ends with 8 connections
    wallets, script = [], []
    for i in range(4):
        first, second, product = f"A{i}", f"B{i}", f"PC-{i}"
        wallets += [first, second]
        script += [
            {"op": "record_sale", "product": product, "buyer": first, "expect": "accepted"},
            {"op": "connect", "a": first, "b": "MF", "expect": "ok"},
            {"op": "claim_new", "wallet": first, "product": product, "expect": "accepted"},
            {"op": "connect", "a": first, "b": second, "expect": "ok"},
            {"op": "sell", "seller": first, "buyer": second, "product": product, "expect": "accepted"},
            {"op": "connect", "a": second, "b": "MF", "expect": "ok"},
            {"op": "transfer", "seller": first, "product": product, "expect": "accepted"},
            {"op": "claim_used", "wallet": second, "expect": "accepted"},
        ]
    cast = {"manufacturer": "MF", "distributor": "DS", "wallets": wallets}
    spec = parse_scenario(
        {"name": "fleet-4", "seed": 11, "cast": cast, "products": [f"PC-{i}" for i in range(4)], "script": script}
    )
    calls = []
    decrypt = crypto.asym_decrypt

    def counting_decrypt(keys, ciphertext):
        calls.append(ciphertext)
        return decrypt(keys, ciphertext)

    monkeypatch.setattr(crypto, "asym_decrypt", counting_decrypt)
    result = run_scenario(spec)
    assert result.ok
    # one at the mediator and one at the endpoint per message, each recorded as one ssi delivery
    assert len(calls) == sum(r["channel"] == "ssi" for r in result.world.trace) > 0


# -- sale and new-product claim flow -----------------------------------------------


def test_record_sale_emails_pin_and_tid():
    world, cast = make_world()
    sell_to(world, cast)
    pin_mail = emailed(cast["B1"], "pin")
    tid_mail = emailed(cast["B1"], "tid")
    claim = cast["MF"].claimants["PC-100"]
    assert pin_mail["pin"] == claim.pin
    assert tid_mail["tid"] == claim.tid
    assert claim.form == "new"
    assert cast["MF"].products["PC-100"].email == cast["B1"].email


def test_record_sale_unknown_product_rejected():
    world, cast = make_world()
    cast["DS"].record_sale("MF", "PC-999", cast["B1"].email)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "productSellingReq"]
    assert verdicts == ["rejected:unknown-product"]
    assert cast["B1"].inbox == []


def test_record_sale_duplicate_rejected():
    world, cast = make_world()
    sell_to(world, cast)
    cast["DS"].record_sale("MF", "PC-100", cast["B2"].email)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "productSellingReq"]
    assert verdicts == ["accepted", "rejected:already-sold"]


def test_claim_new_issues_credential():
    world, cast = run_sale_and_claim()
    mf, b1 = cast["MF"], cast["B1"]
    assert len(b1.credentials) == 1
    vc = b1.credentials[0]
    product = mf.products["PC-100"]
    assert product.status == "sold"
    assert product.current_credential_id == vc.credential_id
    assert product.conn_id == b1.connections[mf.did.uri].conn_id
    assert vc.attribute("productCode") == "PC-100"
    assert vc.attribute("ConnID") == product.conn_id
    assert "PC-100" not in mf.claimants  # entry consumed
    acks = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimAck"]
    assert acks == ["accepted"]


def test_claim_new_wrong_pin_rejected():
    world, cast = make_world()
    sell_to(world, cast)
    claim_new(world, cast, pin="WRONG1")
    assert cast["B1"].credentials == []
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert verdicts == ["rejected:unknown-claim"]
    assert "PC-100" in cast["MF"].claimants  # entry not consumed
    # the retried claim replaces the unanswered one and closes with its credential
    cast["B1"].claim_new(cast["MF"].did.uri, emailed(cast["B1"], "tid")["tid"], emailed(cast["B1"], "pin")["pin"])
    world.run_until_quiescent()
    assert len(cast["B1"].credentials) == 1
    assert not any(key.endswith(":ownershipClaimResp") for key in cast["B1"].state_dump()["_expected"])


def test_claim_new_flow_replay_rejected():
    # replay-the-flow oracle: resubmitting the consumed tid+pin pair fails
    world, cast = run_sale_and_claim()
    tid = emailed(cast["B1"], "tid")["tid"]
    pin = emailed(cast["B1"], "pin")["pin"]
    cast["B1"].claim_new(cast["MF"].did.uri, tid, pin)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert verdicts == ["accepted", "rejected:unknown-claim"]
    assert len(cast["B1"].credentials) == 1  # no second credential


def test_two_claims_on_one_connection_before_the_first_offer_strand_nothing():
    # B1 is offline, so its second claim replaces the first exchange before the first offer arrives
    data = {
        "name": "two-offline-claims",
        "seed": 3,
        "cast": {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1"]},
        "products": ["PC-100", "PC-200"],
        "script": [
            {"op": "record_sale", "product": "PC-100", "buyer": "B1", "expect": "accepted"},
            {"op": "record_sale", "product": "PC-200", "buyer": "B1", "expect": "accepted"},
            {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"},
            {"op": "offline", "agent": "B1", "expect": "ok"},
            {"op": "claim_new", "wallet": "B1", "product": "PC-100", "expect": "accepted"},
            {"op": "claim_new", "wallet": "B1", "product": "PC-200", "expect": "accepted"},
            {"op": "online", "agent": "B1", "expect": "ok"},
        ],
    }
    spec = parse_scenario(data)
    world, cast = build_world(spec)
    for step in spec.script:
        assert execute_step(world, cast, spec, step) == step.expect
    mf, b1 = cast["MF"], cast["B1"]
    offers = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "ownershipClaimResp"]
    assert offers == ["rejected:nonce-mismatch", "accepted"]
    assert [vc.attribute("productCode") for vc in b1.credentials] == ["PC-200"]
    # the unacknowledged claim keeps its credential, and the retry over the same connection gets it
    issued = mf.claimants["PC-100"].credential
    assert issued.credential_id == mf.products["PC-100"].current_credential_id
    retry = ScenarioStep(op="claim_new", args={"wallet": "B1", "product": "PC-100"}, expect="accepted")
    assert execute_step(world, cast, spec, retry) == "accepted"
    assert sorted(vc.credential_id for vc in b1.credentials) == sorted(
        mf.products[code].current_credential_id for code in ("PC-100", "PC-200")
    )
    assert mf.claimants == {}
    assert sum(r["kind"] == "vc-issued" for r in world.trace) == 2
    world.emit_state_dumps()
    assert scan_trace(world.trace) == []


def sale_and_claim_with_lost_ack():
    """Sale and new claim in which B1's ``ownershipClaimAck`` never reaches the mediator."""
    world, cast = run_sale_and_claim()
    seq = next(r["seq"] for r in world.trace if r["from"] == "B1" and r["kind"] == "ownershipClaimAck")
    world, cast = make_world()
    world.drop(seq)  # the same seed schedules the same seqs
    sell_to(world, cast)
    claim_new(world, cast)
    return world, cast


def test_lost_claim_ack_keeps_the_claim_until_a_retry_settles_it():
    world, cast = sale_and_claim_with_lost_ack()
    mf, b1 = cast["MF"], cast["B1"]
    vc = b1.credentials[0]
    assert mf.claimants["PC-100"].credential == vc
    # another connection with the emailed TID and PIN cannot take the unacknowledged claim
    claim_new(world, cast, buyer="B2", tid=emailed(b1, "tid")["tid"], pin=emailed(b1, "pin")["pin"])
    assert cast["B2"].credentials == []
    # the retry gets the same credential, which B1 holds once
    b1.claim_new(mf.did.uri, emailed(b1, "tid")["tid"], emailed(b1, "pin")["pin"])
    world.run_until_quiescent()
    claims = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert claims == ["accepted", "rejected:unknown-claim", "accepted"]
    assert b1.credentials == [vc] and mf.claimants == {}
    assert sum(r["kind"] == "vc-issued" for r in world.trace) == 1


def test_proof_with_the_credential_settles_an_unacknowledged_claim():
    world, cast = sale_and_claim_with_lost_ack()
    mf = cast["MF"]
    start_resale(world, cast)
    run_transfer(world, cast)
    proofs = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert proofs == ["accepted"]
    assert mf.claimants["PC-100"].form == "used" and mf.claimants["PC-100"].credential is None
    assert mf.products["PC-100"].status == "transfer_pending"


# -- buyer/seller pin exchange flow ----------------------------------------------------


def test_sell_buyer_holds_secrets_seller_holds_ciphertext():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    seller_entry = next(e for e in cast["B1"].claiming if e.role == "selling")
    buyer_entry = next(e for e in cast["B2"].claiming if e.role == "buying")
    assert buyer_entry.pin is not None and buyer_entry.key is not None
    assert seller_entry.pin is None and seller_entry.key is None
    assert seller_entry.encrypted_pin == buyer_entry.encrypted_pin
    # the ciphertext decrypts to the pin under the buyer's key only
    assert sym_decrypt(buyer_entry.key, seller_entry.encrypted_pin).decode() == buyer_entry.pin


def test_seller_state_cannot_decrypt_pin():
    # exhaustive-key oracle: every 32-byte string anywhere in the seller's
    # state dump fails to decrypt the pin ciphertext
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    seller_entry = next(e for e in cast["B1"].claiming if e.role == "selling")
    dump_text = canonical_json(cast["B1"].state_dump())
    candidates = set()
    import re

    for match in re.findall(r"[0-9a-f]{64,}", dump_text):
        raw = bytes.fromhex(match if len(match) % 2 == 0 else match[:-1])
        for offset in range(0, max(1, len(raw) - 31)):
            candidates.add(raw[offset : offset + 32])
    assert candidates
    for candidate in candidates:
        if len(candidate) != 32:
            continue
        with pytest.raises(DecryptError):
            sym_decrypt(SymmetricKey(candidate), seller_entry.encrypted_pin)


def test_two_sales_distinct_tids_and_pins():
    world, cast = make_world(wallets=("B1", "B2", "B3"), products=("PC-100", "PC-200"))
    sell_to(world, cast)
    claim_new(world, cast)
    establish_connection(cast["B1"], cast["B2"])
    establish_connection(cast["B1"], cast["B3"])
    tid_a = cast["B1"].start_sell(cast["B2"].did.uri, "PC-100")
    tid_b = cast["B1"].start_sell(cast["B3"].did.uri, "PC-100")
    world.run_until_quiescent()
    assert tid_a != tid_b
    pin_a = next(e.pin for e in cast["B2"].claiming if e.role == "buying")
    pin_b = next(e.pin for e in cast["B3"].claiming if e.role == "buying")
    assert pin_a != pin_b


# -- transfer authorisation flow ----------------------------------------------------


def run_transfer(world, cast, seller="B1", product="PC-100"):
    if cast["MF"].did.uri not in cast[seller].connections:
        establish_connection(cast[seller], cast["MF"])
    cast[seller].start_transfer(cast["MF"].did.uri, product)
    world.run_until_quiescent()


def test_transfer_happy_path():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    mf = cast["MF"]
    assert mf.products["PC-100"].status == "transfer_pending"
    claim = mf.claimants["PC-100"]
    assert claim.form == "used" and claim.encrypted_pin is not None
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "ownershipTransferResp"]
    assert verdicts == ["accepted"]


def test_transfer_duplicate_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    cast["B1"].start_transfer(cast["MF"].did.uri, "PC-100")
    world.run_until_quiescent()
    proof_reqs = [
        r for r in world.trace if r["kind"] == "ownershipProofReq" and r["from"] == "MF" and r["to"] == "MD"
    ]
    assert len(proof_reqs) == 1  # exactly one proof request ever issued
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipTransferReq"]
    assert verdicts == ["accepted", "rejected:duplicate-transfer"]


def test_transfer_unknown_product_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    seller_entry = next(e for e in cast["B1"].claiming if e.role == "selling")
    seller_entry.product_code = "PC-404"
    cast["B1"].start_transfer(cast["MF"].did.uri, "PC-404")
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipTransferReq"]
    assert verdicts[-1] == "rejected:unknown-product"


def test_transfer_unclaimed_product_rejected():
    world, cast = make_world(products=("PC-100", "PC-200"))
    sell_to(world, cast)
    claim_new(world, cast)
    start_resale(world, cast)
    entry = next(e for e in cast["B1"].claiming if e.role == "selling")
    entry.product_code = "PC-200"  # never sold, still status=registered
    cast["B1"].start_transfer(cast["MF"].did.uri, "PC-200")
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipTransferReq"]
    assert verdicts[-1] == "rejected:not-transferable"


def test_transfer_with_revoked_credential_rejected_and_rolled_back():
    world, cast = full_used_transfer()
    mf, b1 = cast["MF"], cast["B1"]
    # B1's credential is now revoked on the registry; force the wallet to present it anyway
    b1._select_credential = lambda code, req: b1.credentials[0]
    entry = next(e for e in b1.claiming if e.role == "selling")
    assert entry is not None
    b1.start_transfer(mf.did.uri, "PC-100")
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert verdicts[-1] == "rejected:revoked"
    assert "PC-100" not in mf.claimants  # rolled back
    assert mf.products["PC-100"].status == "sold"


def test_transfer_wrong_product_credential_rejected():
    world, cast = make_world(products=("PC-100", "PC-200"))
    for code, buyer in (("PC-100", "B1"), ("PC-200", "B1")):
        cast["DS"].record_sale("MF", code, cast["B1"].email)
        world.run_until_quiescent()
    establish_connection(cast["B1"], cast["MF"])
    for code in ("PC-100", "PC-200"):
        mail_tid = next(
            m.fields["tid"] for m in cast["B1"].inbox if m.subject == "tid" and m.fields["productCode"] == code
        )
        mail_pin = next(
            m.fields["pin"] for m in cast["B1"].inbox if m.subject == "pin" and m.fields["productCode"] == code
        )
        cast["B1"].claim_new(cast["MF"].did.uri, mail_tid, mail_pin)
        world.run_until_quiescent()
    assert len(cast["B1"].credentials) == 2
    start_resale(world, cast)
    # swap the credential selector so the wallet presents the PC-200 credential
    original = cast["B1"]._select_credential
    cast["B1"]._select_credential = lambda code, req: next(
        vc for vc in cast["B1"].credentials if vc.attribute("productCode") == "PC-200"
    )
    cast["B1"].start_transfer(cast["MF"].did.uri, "PC-100")
    world.run_until_quiescent()
    cast["B1"]._select_credential = original
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert verdicts[-1] == "rejected:wrong-product"
    assert cast["MF"].products["PC-100"].status == "sold"  # rolled back


# -- used-product claim flow -------------------------------------------------------------


def full_used_transfer(seed=7):
    world, cast = run_sale_and_claim(seed)
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    buyer_entry = next(e for e in cast["B2"].claiming if e.role == "buying")
    cast["B2"].claim_used(cast["MF"].did.uri, buyer_entry.tid)
    world.run_until_quiescent()
    return world, cast


def test_lost_used_claim_ack_retry_gets_the_same_credential():
    world, cast = full_used_transfer()
    seq = next(r["seq"] for r in world.trace if r["from"] == "B2" and r["kind"] == "ownershipClaimAck")
    world, cast = make_world()
    world.drop(seq)  # the same seed schedules the same seqs
    sell_to(world, cast)
    claim_new(world, cast)
    start_resale(world, cast)
    run_transfer(world, cast)
    mf, b2 = cast["MF"], cast["B2"]
    establish_connection(b2, mf)
    tid = next(e.tid for e in b2.claiming if e.role == "buying")
    b2.claim_used(mf.did.uri, tid)
    world.run_until_quiescent()
    vc = b2.credentials[0]
    assert mf.claimants["PC-100"].credential == vc
    b2.claim_used(mf.did.uri, tid)  # answers a fresh challenge, then gets the same credential
    world.run_until_quiescent()
    assert b2.credentials == [vc] and mf.claimants == {}
    assert [r["kind"] for r in world.trace if r["channel"] == "registry" and r["kind"] != "product-updated"] == [
        "vc-issued",
        "vc-revoked",
        "vc-issued",
    ]
    assert mf.products["PC-100"].previously_sold_count == 1


def test_used_claim_commits_ownership():
    world, cast = full_used_transfer()
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    product = mf.products["PC-100"]
    assert product.status == "sold"
    assert product.previously_sold_count == 1
    assert product.conn_id == b2.connections[mf.did.uri].conn_id
    assert product.email == b2.email
    assert product.last_purchase_date > product.first_purchase_date
    old_vc = b1.credentials[0]
    new_vc = b2.credentials[0]
    assert world.registry.is_revoked(old_vc.credential_id)
    assert not world.registry.is_revoked(new_vc.credential_id)
    notices = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "revokeVC"]
    assert notices == ["accepted"]  # revocation notice landed
    assert new_vc.attribute("previouslySoldCount") == "1"
    assert "PC-100" not in mf.claimants


def test_used_claim_unknown_tid_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    entry = next(e for e in cast["B2"].claiming if e.role == "buying")
    entry.tid = "ff" * 16  # not what the seller registered
    cast["B2"].claim_used(cast["MF"].did.uri, entry.tid)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert verdicts[-1] == "rejected:unknown-tid"


def test_used_claim_wrong_key_rejected_state_unchanged():
    # wrong-key oracle: substituting another key makes the stored pin undecryptable
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    entry = next(e for e in cast["B2"].claiming if e.role == "buying")
    entry.key = crypto.generate_symmetric_key(world.rng)  # adversary swaps the key
    cast["B2"].claim_used(cast["MF"].did.uri, entry.tid)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "pinChallengeResp"]
    assert verdicts[-1] == "rejected:pin-decrypt"
    mf = cast["MF"]
    assert not world.registry.is_revoked(cast["B1"].credentials[0].credential_id)
    assert mf.products["PC-100"].previously_sold_count == 0
    assert "PC-100" in mf.claimants  # entry stays; claim may be retried


def test_used_claim_wrong_result_rejected_old_vc_valid():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    entry = next(e for e in cast["B2"].claiming if e.role == "buying")
    entry.pin = "ZZZZZZ" if entry.pin != "ZZZZZZ" else "AAAAAA"  # wrong pin, right key
    cast["B2"].claim_used(cast["MF"].did.uri, entry.tid)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "pinChallengeResp"]
    assert verdicts[-1] == "rejected:challenge-mismatch"
    assert not world.registry.is_revoked(cast["B1"].credentials[0].credential_id)
    assert cast["B2"].credentials == []


def test_pin_challenge_handled_without_stored_data_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    entry = next(e for e in cast["B2"].claiming if e.role == "buying")
    tid = entry.tid
    cast["B2"].claim_used(cast["MF"].did.uri, tid)
    cast["B2"].claiming.remove(entry)  # wallet loses its data mid-flow
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B2" and r["kind"] == "pinChallengeReq"]
    assert verdicts[-1] == "rejected:unknown-tid"


# -- agent state is written only by a step that authenticates its writer -----------------


def test_declined_proof_request_leaves_the_product_transferable():
    # after the resale B1 holds only a revoked credential, so it never answers MF's proof request
    data = dict(BUILTIN_SCENARIOS["full-lifecycle"], name="declined-proof")
    data["cast"] = dict(data["cast"], wallets=["B1", "B2", "B3"])
    data["script"] = data["script"] + [
        {"op": "transfer", "seller": "B1", "product": "PC-100", "expect": "rejected:no-matching-credential"},
        {"op": "connect", "a": "B2", "b": "B3", "expect": "ok"},
        {"op": "sell", "seller": "B2", "buyer": "B3", "product": "PC-100", "expect": "accepted"},
        {"op": "transfer", "seller": "B2", "product": "PC-100", "expect": "accepted"},
        {"op": "connect", "a": "B3", "b": "MF", "expect": "ok"},
        {"op": "claim_used", "wallet": "B3", "expect": "accepted"},
    ]
    result = run_scenario(parse_scenario(data))
    assert result.ok and result.violations == []
    assert result.cast["MF"].products["PC-100"].previously_sold_count == 2
    assert len(result.cast["B3"].credentials) == 1


def test_unanswered_transfer_request_leaves_no_state():
    world, cast = make_world(wallets=("B1", "B2", "B3"))
    sell_to(world, cast)
    claim_new(world, cast)
    mf, b2, b3 = cast["MF"], cast["B2"], cast["B3"]
    establish_connection(b2, mf)
    # B2 holds no credential and opens no expectation: it leaves each proof request unanswered
    for _ in range(3):
        tid = mint_tid(world.rng)
        request = payload("ownershipTransferReq", productCode="PC-100", encryptedPin=b"\x01" * 38, tid=tid)
        b2.send(b2.connections[mf.did.uri], crypto.fresh_nonce(world.rng), request)
        world.run_until_quiescent()
    assert mf.products["PC-100"].status == "sold"
    assert "PC-100" not in mf.claimants
    assert sum(key.endswith(":ownershipProofResp") for key in mf.state_dump()["_expected"]) == 1
    # the owner's resale still completes
    start_resale(world, cast, buyer="B3")
    run_transfer(world, cast)
    establish_connection(b3, mf)
    b3.claim_used(mf.did.uri, next(e.tid for e in b3.claiming if e.role == "buying"))
    world.run_until_quiescent()
    assert len(b3.credentials) == 1
    assert mf.products["PC-100"].conn_id == b3.connections[mf.did.uri].conn_id


def test_seller_claim_in_flight_does_not_overwrite_the_buyers_challenge():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    establish_connection(b2, mf)
    tid = next(e.tid for e in b1.claiming if e.role == "selling")
    b2.claim_used(mf.did.uri, tid)
    # the seller minted the TID: it claims with a key of its own before B2 answers its challenge
    rival = payload("ownershipClaimReq", tid=tid, pin=None, key=crypto.generate_symmetric_key(world.rng).key_bytes)
    b1.send(b1.connections[mf.did.uri], crypto.fresh_nonce(world.rng), rival)
    world.run_until_quiescent()
    claims = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert claims[-2:] == ["accepted", "accepted"]  # both attempts got a challenge
    answers = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "pinChallengeResp"]
    assert answers == ["accepted"]
    assert len(b2.credentials) == 1
    assert mf.products["PC-100"].previously_sold_count == 1


def test_state_dump_shows_an_open_exchange_with_its_context():
    world, cast = make_world()
    sell_to(world, cast)
    claim_new(world, cast)
    mf, b2 = cast["MF"], cast["B2"]
    establish_connection(b2, mf)
    tid, nonce = mint_tid(world.rng), crypto.fresh_nonce(world.rng)
    request = payload("ownershipTransferReq", productCode="PC-100", encryptedPin=b"\x01" * 38, tid=tid)
    b2.send(b2.connections[mf.did.uri], nonce, request)
    world.run_until_quiescent()
    # B2 leaves the proof request unanswered: the request lives only in the open exchange, and the dump shows it
    conn_id = mf.connections[b2.did.uri].conn_id
    open_nonce, context = mf.state_dump()["_expected"][f"{conn_id}:ownershipProofResp"]
    assert open_nonce == nonce.hex()
    assert (context["productCode"], context["tid"], context["encryptedPin"]) == ("PC-100", tid, "01" * 38)


def test_a_buyer_key_in_a_non_owner_expectation_breaks_pin_secrecy():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    b1, b2 = cast["B1"], cast["B2"]
    world.emit_state_dumps()
    assert scan_trace(world.trace) == []
    key = next(entry.key for entry in b2.claiming if entry.role == "buying")
    b1.expect(b1.connections[b2.did.uri].conn_id, "PINResp", bytes(16), context={"key": key})
    world.emit_state_dumps()  # the scan reads each agent's last dump
    details = [v["detail"] for v in scan_trace(world.trace) if v["invariant"] == "pin-secrecy"]
    assert details == ["symmetric key of B2 stored by B1"]


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_every_dump_is_json_ready_and_holds_no_parsed_key(name):
    dumps = run_scenario(builtin_scenario(name)).world.state_dumps()
    for dump in dumps.values():
        text = canonical_json(dump)  # raises on bytes, a parsed key or any other non-JSON value
        assert json.loads(text) == dump  # and a tuple would come back a list
        assert not any(f'"{field}":' in text for field in ("signer", "agreer", "kid"))


def test_unanswered_used_claims_leave_one_challenge_open():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    tid = next(e.tid for e in b1.claiming if e.role == "selling")
    # the seller claims with the TID it minted and made-up keys, and never answers a challenge
    for _ in range(3):
        key = crypto.generate_symmetric_key(world.rng).key_bytes
        attempt = payload("ownershipClaimReq", tid=tid, pin=None, key=key)
        b1.send(b1.connections[mf.did.uri], crypto.fresh_nonce(world.rng), attempt)
        world.run_until_quiescent()
    claims = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert claims[-3:] == ["accepted"] * 3
    assert sum(key.endswith(":pinChallengeResp") for key in mf.state_dump()["_expected"]) == 1
    # the buyer's claim still completes
    establish_connection(b2, mf)
    b2.claim_used(mf.did.uri, tid)
    world.run_until_quiescent()
    assert len(b2.credentials) == 1


def test_late_reply_to_a_replaced_exchange_is_a_nonce_mismatch():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    mf, b1 = cast["MF"], cast["B1"]
    conn = b1.connections[mf.did.uri]
    entry = next(e for e in b1.claiming if e.role == "selling")
    first, second = crypto.fresh_nonce(world.rng), crypto.fresh_nonce(world.rng)
    for nonce in (first, second):
        request = payload("ownershipTransferReq", productCode="PC-100", encryptedPin=entry.encrypted_pin, tid=entry.tid)
        b1.send(conn, nonce, request)
    world.run_until_quiescent()
    # the second request replaced the first exchange, so a proof under the first nonce answers nothing
    presentation = present_proof(b1.credentials[0], bytes(16), conn.local)
    b1.send(conn, first, payload("ownershipProofResp", presentation=presentation))
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == ("MF", "rejected:nonce-mismatch")
    open_proofs = {key: nonce for key, (nonce, _) in mf.state_dump()["_expected"].items() if key.endswith("ProofResp")}
    assert open_proofs == {f"{conn.conn_id}:ownershipProofResp": second.hex()}
    assert mf.products["PC-100"].status == "sold"


def test_revoke_notice_from_a_non_issuer_peer_changes_nothing():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    b1, b2 = cast["B1"], cast["B2"]
    notice = payload("revokeVC", credentialId=b1.credentials[0].credential_id, productCode="PC-100")
    b2.send(b2.connections[b1.did.uri], crypto.fresh_nonce(world.rng), notice)
    world.run_until_quiescent()
    assert not world.registry.is_revoked(b1.credentials[0].credential_id)
    run_transfer(world, cast)
    proofs = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert proofs == ["accepted"]
    establish_connection(b2, cast["MF"])
    b2.claim_used(cast["MF"].did.uri, next(e.tid for e in b2.claiming if e.role == "buying"))
    world.run_until_quiescent()
    assert len(b2.credentials) == 1


def test_two_transfers_started_together_leave_one_claimant():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    mf, b1 = cast["MF"], cast["B1"]
    b1.start_transfer(mf.did.uri, "PC-100")
    b1.start_transfer(mf.did.uri, "PC-100")
    world.run_until_quiescent()
    responses = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "ownershipTransferResp"]
    assert responses.count("accepted") == 1
    assert list(mf.claimants) == ["PC-100"]
    assert mf.products["PC-100"].status == "transfer_pending"


# -- nonce/replay discipline at the agent level ----------------------------------------


def test_unsolicited_response_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    seller = cast["B1"]
    buyer_conn = cast["B2"].connections[seller.did.uri]
    cast["B2"].send(buyer_conn, crypto.fresh_nonce(world.rng), payload("PINResp", encryptedPin=b"\x01" * 38, tid="00" * 16))
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "PINResp"]
    assert verdicts[-1] == "rejected:nonce-mismatch"


def test_second_credential_offer_rejected():
    # the used-claim offer closes the claim's exchange, so a second offer answers nothing
    result = fresh_lifecycle()
    world, mf, b2 = result.world, result.cast["MF"], result.cast["B2"]
    offer = payload("ownershipClaimResp", credential=b2.credentials[0])
    mf.send(mf.connections[b2.did.uri], crypto.fresh_nonce(world.rng), offer)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B2" and r["kind"] == "ownershipClaimResp"]
    assert verdicts == ["accepted", "rejected:nonce-mismatch"]
    assert len(b2.credentials) == 1


def test_signed_message_of_an_unhandled_kind_rejected_state_unchanged():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    b1, b2 = cast["B1"], cast["B2"]
    before = b2.state_dump()
    nonce = crypto.fresh_nonce(world.rng)
    b1.send(b1.connections[b2.did.uri], nonce, payload("ownershipClaimReq", tid="00" * 16, pin="AAAAAA", key=None))
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == ("B2", "rejected:unexpected-kind")
    after = b2.state_dump()
    # only the connection's replay cache records the consumed message
    cache_before = before["connections"][b1.did.uri].pop("replay")["consumed"]
    cache_after = after["connections"][b1.did.uri].pop("replay")["consumed"]
    assert cache_after == sorted(cache_before + [[nonce.hex(), "ownershipClaimReq"]])
    assert after == before


@pytest.mark.parametrize("reason", ["revoked", "bad-issuer-sig"])
def test_offered_credential_that_fails_its_check_is_refused(reason):
    world, cast = full_used_transfer()
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    old_vc, new_vc = b1.credentials[0], b2.credentials[0]
    if reason == "revoked":
        offered = old_vc
    else:
        offered = dataclasses.replace(new_vc, issuer_signature=bytes(len(new_vc.issuer_signature)))
    # a claim MF does not answer leaves B1's expectation of a credential offer open
    b1.claim_new(mf.did.uri, "ff" * 16, "AAAAAA")
    world.run_until_quiescent()
    conn = mf.connections[b1.did.uri]
    nonce, _ = b1._expected[(conn.conn_id, "ownershipClaimResp")]
    mf.send(conn, nonce, payload("ownershipClaimResp", credential=offered))
    mf.expect(conn.conn_id, "ownershipClaimAck", nonce)  # so MF reads the ack's status
    world.run_until_quiescent()
    offers = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "ownershipClaimResp"]
    assert offers[-1] == f"rejected:{reason}"
    assert b1.credentials == [old_vc]
    acks = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimAck"]
    assert acks[-1] == "rejected:holder-declined"  # B1 acknowledged with status rejected


def test_duplicate_selling_response_rejected_on_direct_channel():
    # the direct channel has no replay guard; the single-use expectation stops the duplicate
    world, cast = make_world()
    sell_to(world, cast)
    ds = cast["DS"]
    sales = list(ds.sales)
    request = next(r for r in world.trace if r["to"] == "MF" and r["kind"] == "productSellingReq")
    nonce = bytes.fromhex(request["meta"]["nonce"])
    world.send_direct("MF", "DS", nonce, payload("productSellingResp", tid=sales[0]["tid"]))
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "DS" and r["kind"] == "productSellingResp"]
    assert verdicts == ["accepted", "rejected:nonce-mismatch"]
    assert ds.sales == sales


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call appends its first argument to the returned list."""
    calls, original = [], getattr(module, name)

    def counting(first, *args):
        calls.append(first)
        return original(first, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


def consumed_deliveries(world):
    """The mediator-to-endpoint events of a run, each of which consumed a (nonce, kind) pair."""
    return [event for _, event in sorted(world.wire_log.items()) if event.to != "MD"]


def test_replay_step_spends_no_endpoint_crypto(monkeypatch):
    # a byte-exact copy is a replay before decryption: the replay step only
    # opens the outer layer of the 16 replayed sender-to-mediator envelopes
    spec = builtin_scenario("replay-attack")
    world, cast = build_world(spec)
    for step in spec.script[:-1]:
        assert execute_step(world, cast, spec, step) == step.expect
    decrypts = count_calls(monkeypatch, crypto, "asym_decrypt")
    verifies = count_calls(monkeypatch, crypto, "verify")
    assert execute_step(world, cast, spec, spec.script[-1]) == "all-rejected"
    assert (len(decrypts), len(verifies)) == (16, 0)
    assert all(keys is world.mediator.keys for keys in decrypts)


def test_replayed_spoof_is_checked_again(monkeypatch):
    # a rejected message consumed no pair, so its copy runs the full path and keeps its verdict
    result = fresh_lifecycle()
    world, mf, b2 = result.world, result.cast["MF"], result.cast["B2"]
    world.spoof("MF", b2.did.uri, payload("PINReq", tid=mint_tid(world.rng)), b2.did.uri)
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == ("MF", "rejected:bad-signature")
    verifies = count_calls(monkeypatch, crypto, "verify")
    world.replay(world.trace[-1]["seq"])
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == ("MF", "rejected:bad-signature")
    assert len(verifies) == 1


def test_reencrypted_consumed_message_is_a_replay_by_its_pair(monkeypatch):
    # fresh ciphertext bytes around a consumed inner layer: the pair check, not the ciphertext record, rejects it
    result = fresh_lifecycle()
    world = result.world
    deliveries = consumed_deliveries(world)
    verifies = count_calls(monkeypatch, crypto, "verify")
    for checked, event in enumerate(deliveries, 1):
        recipient = world.agents[event.to]
        named = next(c for c in recipient.connections.values() if c.local.kid == event.body[: crypto.KEY_ID_LEN])
        ephemeral = crypto.ephemeral_key(world.rng)
        inner = crypto.asym_encrypt(world.rng, ephemeral, named.local.public_key, crypto.asym_decrypt(named.local, event.body))
        assert inner != event.body
        outer = crypto.asym_encrypt(world.rng, ephemeral, world.mediator_public_key(), encode(["route", recipient.did.uri, inner]))
        world.send_envelope("adversary", Envelope(outer), event.kind)
        world.run_until_quiescent()
        assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (event.to, "rejected:replay")
        assert len(verifies) == checked  # one full open and verify per fresh ciphertext
    assert len(deliveries) == 16


@pytest.mark.parametrize("position", [crypto.KEY_ID_LEN, -1], ids=["after-key-id", "last-byte"])
def test_replayed_copy_with_a_flipped_byte_is_a_decrypt_error(position):
    # the ciphertext record is keyed by the exact bytes: a copy that keeps the key id
    # (and, flipped after it, the GCM tag) is not a replay
    result = fresh_lifecycle()
    world = result.world
    for event in consumed_deliveries(world):
        world.tamper(event.seq, position, event.body[position] ^ 0x01)
        world.run_until_quiescent()
        assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (event.to, "rejected:decrypt-error")


def test_transfer_step_verdict_comes_from_deciding_wallet():
    # after the resale B1's credential is revoked: the wallet, not MF, rejects the proof request
    result = fresh_lifecycle()
    step = ScenarioStep(op="transfer", args={"seller": "B1", "product": "PC-100"}, expect="")
    verdict = execute_step(result.world, result.cast, result.spec, step)
    assert verdict == "rejected:no-matching-credential"


@pytest.mark.parametrize(
    "inner_plain",
    [
        b"Q" + encode_value(1) + encode_value(0),  # fraction with a zero denominator
        b"N",  # not a list
        encode(["inner", None, b"", b""]),  # nonce is not bytes
        encode(["inner", "did:handover:x", b"\x00" * 16, b"", b""]),  # the layer that named its sender
    ],
    ids=["zero-denominator", "not-a-list", "none-nonce", "old-five-field"],
)
def test_malformed_inner_layer_rejected(inner_plain):
    # needs only the public half of a connection key, no signing key
    world, cast = run_sale_and_claim()
    mf, b1 = cast["MF"], cast["B1"]
    ephemeral = crypto.ephemeral_key(world.rng)
    inner = crypto.asym_encrypt(world.rng, ephemeral, mf.connections[b1.did.uri].local.public_key, inner_plain)
    outer = crypto.asym_encrypt(world.rng, ephemeral, world.mediator_public_key(), encode(["route", mf.did.uri, inner]))
    world.send_envelope("adversary", Envelope(outer), "PINReq")
    world.run_until_quiescent()
    last_two = [(r["to"], r["verdict"]) for r in world.trace[-2:]]
    assert last_two == [("MD", "forwarded"), ("MF", "rejected:decrypt-error")]


def _vc_wire(cast, attributes=None):
    wire = vc_to_wire(cast["B1"].credentials[0])
    if attributes is not None:
        wire[2] = attributes
    return wire


@pytest.mark.parametrize(
    "sender, recipient, fields",
    [
        ("B1", "MF", lambda cast: ["ownershipProofResp", [1]]),
        ("B1", "MF", lambda cast: ["ownershipClaimResp", 5]),
        ("MF", "B1", lambda cast: ["ownershipProofReq", 5, b"x"]),
        ("MF", "B1", lambda cast: ["ownershipProofReq", [1], b"x"]),
        ("B1", "MF", lambda cast: ["ownershipProofResp", [_vc_wire(cast), 5, b"s"]]),
        ("MF", "B1", lambda cast: ["ownershipClaimResp", _vc_wire(cast, [["productCode", 7]])]),
    ],
    ids=["presentation-short", "vc-int", "str-list-int", "str-list-of-int", "presentation-int-nonce", "vc-int-attribute"],
)
def test_malformed_signed_payload_rejected(sender, recipient, fields):
    # a connected peer signs, with its own connection key, a payload of the right kind and the wrong shape
    world, cast = run_sale_and_claim()
    frm, to = cast[sender], cast[recipient]
    conn = frm.connections[to.did.uri]
    nonce = crypto.fresh_nonce(world.rng)
    payload_bytes = encode(fields(cast))
    signature = crypto.sign(conn.local, signing_bytes(nonce, payload_bytes))
    inner_plain = encode(["inner", nonce, payload_bytes, signature])
    ephemeral = crypto.ephemeral_key(world.rng)
    inner = crypto.asym_encrypt(world.rng, ephemeral, conn.remote_public_key, inner_plain)
    outer = crypto.asym_encrypt(world.rng, ephemeral, world.mediator_public_key(), encode(["route", to.did.uri, inner]))
    world.send_envelope(sender, Envelope(outer), fields(cast)[0])
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (recipient, "rejected:malformed-payload")


def test_email_eavesdropper_boundary():
    # possession model: pin alone and tid alone fail; both plus a connection succeed
    world, cast = make_world(wallets=("B1", "EVE"))
    sell_to(world, cast)
    stolen = {r["kind"]: r["meta"]["fields"] for r in world.trace if r["channel"] == "oob-email"}
    eve = cast["EVE"]
    establish_connection(eve, cast["MF"])
    eve.claim_new(cast["MF"].did.uri, stolen["tid"]["tid"], "AAAAAA")
    world.run_until_quiescent()
    assert eve.credentials == []
    eve.claim_new(cast["MF"].did.uri, "00" * 16, stolen["pin"]["pin"])
    world.run_until_quiescent()
    assert eve.credentials == []
    # both secrets and a live connection: the claim succeeds (possession is ownership)
    eve.claim_new(cast["MF"].did.uri, stolen["tid"]["tid"], stolen["pin"]["pin"])
    world.run_until_quiescent()
    assert len(eve.credentials) == 1


def test_adversary_transfer_refuses_an_unknown_forgery_mode():
    world, cast = make_world(wallets=())
    eve = AdversaryWallet("EVE", world)
    establish_connection(eve, cast["MF"])
    world.run_until_quiescent()
    mark = len(world.trace)
    with pytest.raises(AgentActionError):
        eve.craft_transfer_request(cast["MF"].did.uri, "PC-100", "selfissued")
    world.run_until_quiescent()
    assert world.trace[mark:] == []
