import collections
import copy
import dataclasses
import importlib.util
import itertools
import json
import os
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover import crypto, messages, simnet
from handover.agents import (
    AdversaryWallet,
    Agent,
    AgentActionError,
    DistributorAgent,
    ManufacturerAgent,
    PinFormatError,
    ProductRecord,
    WalletAgent,
    establish_connection,
    evaluate_challenge,
    pin_numeric,
)
from handover.crypto import DecryptError, SymmetricKey, sym_decrypt
from handover.encoding import canonical_json, encode, encode_value
from handover.invariants import scan_trace
from handover.credential import (
    PRODUCT_ATTRIBUTE_NAMES,
    PRODUCT_SCHEMA_ID,
    cred_def_id_of,
    present_proof,
    sign_vc,
    vc_from_wire,
    vc_to_wire,
    verify_credential_signature,
)
from handover.messages import KIND_FIELDS, REPLIES, REPLY_KINDS, EnvelopeReject, mint_tid, payload
from handover.registry import AuthorizationError
from handover.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioStep,
    build_world,
    builtin_scenario,
    execute_step,
    parse_scenario,
    run_scenario,
)
from handover.simnet import CHANNEL_SSI, DeliveryEvent, World

from conftest import (
    count_calls,
    fresh_lifecycle,
    inner_plain,
    layer,
    layer_counter,
    open_layer,
    product_attributes,
    send_as,
    send_inner,
    send_plain,
    sold_count,
    unread_context,
    vc_signed,
)


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
        cast["MF"].did,
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
    cast[seller].start_sell(cast[buyer].did, product)
    world.run_until_quiescent()


def purchase(wallet):
    """(TID, claiming data) of the one second-hand purchase ``wallet`` holds."""
    [(tid, entry)] = wallet.claiming.items()
    return tid, entry


def open_threads(conn, kind):
    """{nonce: context} of ``conn``'s open threads that a ``kind`` reply closes."""
    return {nonce: context for nonce, (k, context) in conn.threads.items() if k == kind}


def send_keeping_no_thread(agent, conn, nonce, p):
    """``agent`` sends ``p`` but keeps no thread of it, as a peer that never answers: the reply it gets is a
    nonce-mismatch, and nothing answers that."""
    agent.send(conn, nonce, p, unread_context(p.kind))
    del conn.threads[nonce]


def transfer_pending(mf, code):
    """The seller's proof for ``code`` verified and the buyer's credential is not issued yet: a used claim holds the
    encrypted PIN and no credential."""
    claim = mf.claimants.get(code)
    return claim is not None and claim.encrypted_pin is not None and claim.credential is None


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
    assert (a.remote_kid, b.remote_kid) == (b.local.kid, a.local.kid)
    # ping: a PINReq flows B1 -> MD -> B2 and the wallet answers
    cast["B1"].start_sell(cast["B2"].did, "PC-100")
    world.run_until_quiescent()
    assert "PC-100" in cast["B1"].sales  # PINResp delivered and verified


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
        for key in (eve_conn.send_key, eve_conn.receive_key):
            with pytest.raises(EnvelopeReject, match="bad-signature"):
                messages.open_inner(key, inner)


def test_rekeyed_connection_opens_only_under_the_new_key():
    world, cast = make_world()
    b1, b2 = cast["B1"], cast["B2"]
    old, _ = establish_connection(b1, b2)
    new, _ = establish_connection(b1, b2)  # both sides replace the connection
    for conn in (old, new):
        nonce, tid = crypto.fresh_nonce(world.rng), mint_tid(world.rng)
        b1.send(conn, nonce, payload("PINReq", tid=tid), {"tid": tid, "productCode": "PC-100"})
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B2" and r["kind"] == "PINReq"]
    assert verdicts == ["rejected:decrypt-error", "accepted"]


def test_message_to_another_peers_connection_key_fails_signature():
    # B2 encrypts under its own connection's send key but addresses MF's key of the B1
    # connection: MF opens it under its B1 receive key, because the key names the peer
    spec = builtin_scenario("full-lifecycle")
    world, cast = build_world(spec)
    for step in spec.script[:6]:  # through connect B2-MF
        assert execute_step(world, cast, spec, step) == step.expect
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    before = mf.state_dump()
    # at a counter above the last MF accepted from B1, so the tag decides
    redirected = dataclasses.replace(
        b2.connections[mf.did],
        remote_kid=b1.connections[mf.did].remote_kid,
        sent=mf.connections[b1.did].received,
    )
    claim = payload("ownershipClaimReq", tid=mint_tid(world.rng), pin="AAAAAA")
    b2.send(redirected, crypto.fresh_nonce(world.rng), claim)
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == ("MF", "rejected:bad-signature")
    assert mf.state_dump() == before


def test_every_delivery_redirected_to_another_connection_fails_signature():
    # an inner layer addressed to another connection key of its recipient, relabelled
    # or re-encrypted under the key that made it, fails under that connection's receive key;
    # a relabelled copy keeps its counter, which that connection may already have passed
    result = fresh_lifecycle()
    world = result.world
    deliveries = consumed_deliveries(world)
    assert len(deliveries) == 16
    copies = 0
    for event in deliveries:
        recipient = world.agents[event.to]
        named = addressed_connection(recipient, event.body)
        plain = authenticated_plain(recipient, event.body)
        for other in recipient.connections.values():
            if other is named:
                continue
            before = recipient.state_dump()
            stale = layer_counter(event.body) <= other.received
            send_inner(world, recipient, other.local.kid + event.body[crypto.KEY_ID_LEN :], event.kind)
            expected = "rejected:replay" if stale else "rejected:bad-signature"
            assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (event.to, expected)
            inner = layer(other.local.kid, named.receive_key, plain, other.received + 1)
            send_inner(world, recipient, inner, event.kind)
            assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (event.to, "rejected:bad-signature")
            assert recipient.state_dump() == before
            copies += 1
    assert copies == len(deliveries)  # every recipient ends with two connections


def fleet_spec(size, seed):
    """``size`` products bought, claimed, resold and claimed again: MF ends with 2 x ``size`` connections."""
    wallets, script = [], []
    for i in range(size):
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
    products = [f"PC-{i}" for i in range(size)]
    return parse_scenario({"name": f"fleet-{size}", "seed": seed, "cast": cast, "products": products, "script": script})


def test_one_decryption_per_ssi_delivery(monkeypatch):
    spec = fleet_spec(4, seed=11)
    hybrid = count_calls(monkeypatch, crypto, "asym_decrypt")
    symmetric = count_calls(monkeypatch, crypto, "sym_decrypt")
    result = run_scenario(spec)
    assert result.ok
    # the mediator's open under a route key and the endpoint's under a receive key, each one ssi delivery; no
    # hybrid decryption at all, since each sender's route key comes from its enrollment's one agreement
    ssi = [r for r in result.world.trace if r["channel"] == "ssi"]
    route_keys = result.world.mediator.route_keys
    assert len(route_keys) == 9  # MF and 8 wallets; DS talks to MF over https only
    assert hybrid == []
    receive_keys = [c.receive_key for agent in result.cast.values() for c in agent.connections.values()]
    opens = [key for key in symmetric if any(key is receive_key for receive_key in receive_keys)]
    unwraps = [key for key in symmetric if any(key is route_key for route_key in route_keys.values())]
    assert len(opens) == sum(r["from"] == "MD" for r in ssi) == len(unwraps) == sum(r["to"] == "MD" for r in ssi)
    assert len(symmetric) - len(opens) - len(unwraps) == 4  # the PIN ciphertext of each used claim


# -- sale and new-product claim flow -----------------------------------------------


def test_record_sale_emails_pin_and_tid():
    world, cast = make_world()
    sell_to(world, cast)
    pin_mail = emailed(cast["B1"], "pin")
    tid_mail = emailed(cast["B1"], "tid")
    claim = cast["MF"].claimants["PC-100"]
    assert pin_mail["pin"] == claim.pin
    assert tid_mail["tid"] == claim.tid
    assert claim.encrypted_pin is None  # a new-product claim
    assert claim.email == cast["B1"].email  # the sale's email rides on the claim until the credential carries it


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
    assert list(b1.credentials) == ["PC-100"]
    vc = b1.credentials["PC-100"]
    product = mf.products["PC-100"]
    assert "PC-100" not in mf.claimants  # the holder's ack settled the claim
    assert product.credential.credential_id == vc.credential_id
    assert product.holder_did == b1.did
    assert dict(vc.attributes)["productCode"] == "PC-100"
    assert dict(vc.attributes)["ConnID"] == b1.connections[mf.did].conn_id
    assert "PC-100" not in mf.claimants  # entry consumed
    acks = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimAck"]
    assert acks == ["accepted"]


def test_claim_new_wrong_pin_rejected():
    world, cast = make_world()
    sell_to(world, cast)
    claim_new(world, cast, pin="WRONG1")
    assert cast["B1"].credentials == {}
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert verdicts == ["rejected:unknown-claim"]
    assert "PC-100" in cast["MF"].claimants  # entry not consumed
    # MF answers the refusal: its problemReport closes B1's thread and tells B1 why
    reports = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "problemReport"]
    assert reports == ["rejected:unknown-claim"]
    assert cast["B1"].connections[cast["MF"].did].threads == {}
    # the retried claim opens a thread of its own and closes it with its credential
    cast["B1"].claim_new(cast["MF"].did, emailed(cast["B1"], "tid")["tid"], emailed(cast["B1"], "pin")["pin"])
    world.run_until_quiescent()
    assert len(cast["B1"].credentials) == 1
    assert cast["B1"].state_dump()["connections"][cast["MF"].did]["threads"] == {}


def test_claim_new_flow_replay_rejected():
    # replay-the-flow oracle: resubmitting the consumed tid+pin pair fails
    world, cast = run_sale_and_claim()
    tid = emailed(cast["B1"], "tid")["tid"]
    pin = emailed(cast["B1"], "pin")["pin"]
    cast["B1"].claim_new(cast["MF"].did, tid, pin)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert verdicts == ["accepted", "rejected:unknown-claim"]
    assert len(cast["B1"].credentials) == 1  # no second credential


def test_two_claims_on_one_connection_before_the_first_offer_strand_nothing():
    # B1 is offline, so both claims are open on one connection when the first offer arrives: two threads
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
    assert offers == ["accepted", "accepted"]
    assert {code: vc.credential_id for code, vc in b1.credentials.items()} == {
        code: mf.products[code].credential.credential_id for code in ("PC-100", "PC-200")
    }
    assert mf.claimants == {}
    assert sum(r["kind"] == "vc-issued" for r in world.trace) == 2
    world.emit_state_dumps()
    assert scan_trace(world.trace) == []


def two_products_of_b1(name, seed, *steps):
    """B1 buys PC-100 and PC-200 new and connects to B2, then ``steps`` run, and B2 claims both second-hand."""
    claims = [{"op": "claim_new", "wallet": "B1", "product": code, "expect": "accepted"} for code in ("PC-100", "PC-200")]
    script = [
        *({"op": "record_sale", "product": code, "buyer": "B1", "expect": "accepted"} for code in ("PC-100", "PC-200")),
        {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"},
        *claims,
        {"op": "connect", "a": "B1", "b": "B2", "expect": "ok"},
        *steps,
        {"op": "claim_used", "wallet": "B2", "expect": "accepted"},
        {"op": "claim_used", "wallet": "B2", "expect": "accepted"},
    ]
    cast = {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1", "B2"]}
    return {"name": name, "seed": seed, "cast": cast, "products": ["PC-100", "PC-200"], "script": script}


def b1_sells_to_b2(code, expect):
    return {"op": "sell", "seller": "B1", "buyer": "B2", "product": code, "expect": expect}


def b1_transfers(code, expect):
    return {"op": "transfer", "seller": "B1", "product": code, "expect": expect}


TWO_SALES_TO_AN_OFFLINE_BUYER = (
    {"op": "offline", "agent": "B2", "expect": "ok"},
    b1_sells_to_b2("PC-100", "no-decision"),
    b1_sells_to_b2("PC-200", "no-decision"),
    {"op": "online", "agent": "B2", "expect": "ok"},
    {"op": "connect", "a": "B2", "b": "MF", "expect": "ok"},
    b1_transfers("PC-100", "accepted"),
    b1_transfers("PC-200", "accepted"),
)
TWO_TRANSFERS_TO_AN_OFFLINE_MANUFACTURER = (
    b1_sells_to_b2("PC-100", "accepted"),
    b1_sells_to_b2("PC-200", "accepted"),
    {"op": "connect", "a": "B2", "b": "MF", "expect": "ok"},
    {"op": "offline", "agent": "MF", "expect": "ok"},
    b1_transfers("PC-100", "no-decision"),
    b1_transfers("PC-200", "no-decision"),
    {"op": "online", "agent": "MF", "expect": "ok"},
)


@pytest.mark.parametrize("seed", [5, 6, 7])
@pytest.mark.parametrize(
    "steps", [TWO_SALES_TO_AN_OFFLINE_BUYER, TWO_TRANSFERS_TO_AN_OFFLINE_MANUFACTURER], ids=["sales", "transfers"]
)
def test_two_exchanges_of_one_kind_on_one_connection_both_complete(steps, seed):
    # the second sale (or transfer) opens a thread beside the first one's instead of replacing it
    result = run_scenario(parse_scenario(two_products_of_b1("two-exchanges", seed, *steps)))
    assert [step.verdict for step in result.steps] == [step.expect for step in result.spec.script]
    assert result.violations == []
    world, mf, b2 = result.world, result.cast["MF"], result.cast["B2"]
    assert {code: vc.credential_id for code, vc in b2.credentials.items()} == {
        code: mf.products[code].credential.credential_id for code in ("PC-100", "PC-200")
    }
    issued = [r["meta"]["credentialId"] for r in world.trace if r["kind"] == "vc-issued"]
    assert len(issued) == 4
    assert {vc for vc in issued if not world.registry.is_revoked(vc)} == {vc.credential_id for vc in b2.credentials.values()}
    assert result.cast["B1"].credentials == {} and result.cast["B1"].sales == {}


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
    vc = b1.credentials["PC-100"]
    assert mf.claimants["PC-100"].credential == vc
    # another connection with the emailed TID and PIN cannot take the unacknowledged claim
    claim_new(world, cast, buyer="B2", tid=emailed(b1, "tid")["tid"], pin=emailed(b1, "pin")["pin"])
    assert cast["B2"].credentials == {}
    # the retry gets the same credential, which B1 holds once
    b1.claim_new(mf.did, emailed(b1, "tid")["tid"], emailed(b1, "pin")["pin"])
    world.run_until_quiescent()
    claims = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipClaimReq"]
    assert claims == ["accepted", "rejected:unknown-claim", "accepted"]
    assert b1.credentials == {"PC-100": vc} and mf.claimants == {}
    assert sum(r["kind"] == "vc-issued" for r in world.trace) == 1


def test_a_buyer_that_reconnects_before_its_offer_arrives_gets_the_same_credential_on_retry():
    # the offer queued for the offline B1 is sealed to the connection B1 then replaces, so it cannot be opened; the
    # claim is matched by B1's DID, not its connection, so the retry over the new connection gets that credential
    script = [
        {"op": "record_sale", "product": "PC-100", "buyer": "B1", "expect": "accepted"},
        {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"},
        {"op": "offline", "agent": "B1", "expect": "ok"},
        {"op": "claim_new", "wallet": "B1", "expect": "accepted"},
        {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"},
        {"op": "online", "agent": "B1", "expect": "rejected:decrypt-error"},
        {"op": "claim_new", "wallet": "B1", "expect": "accepted"},
    ]
    cast = {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1"]}
    data = {"name": "buyer-reconnects", "seed": 13, "cast": cast, "products": ["PC-100"], "script": script}
    result = run_scenario(parse_scenario(data))
    assert result.ok  # every step reads its expect, and the invariant scan finds nothing
    world, mf, b1 = result.world, result.cast["MF"], result.cast["B1"]
    assert b1.credentials == {"PC-100": mf.products["PC-100"].credential} and mf.claimants == {}
    assert sum(r["kind"] == "vc-issued" for r in world.trace) == 1
    # the credential's ConnID names the connection it was issued on
    conn_ids = [r["meta"]["connId"] for r in world.trace if r["kind"] == "connection-established"]
    assert product_attributes(mf)["ConnID"] == conn_ids[0] != b1.connections[mf.did].conn_id == conn_ids[1]


def test_proof_with_the_credential_settles_an_unacknowledged_claim():
    world, cast = sale_and_claim_with_lost_ack()
    mf = cast["MF"]
    start_resale(world, cast)
    run_transfer(world, cast)
    proofs = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert proofs == ["accepted"]
    assert transfer_pending(mf, "PC-100")


# -- buyer/seller pin exchange flow ----------------------------------------------------


def test_sell_buyer_holds_secrets_seller_holds_ciphertext():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    tid, buyer_entry = purchase(cast["B2"])
    assert cast["B1"].claiming == {}  # the seller holds no PIN and no key
    assert list(cast["B1"].sales) == ["PC-100"]
    sale_tid, encrypted_pin = cast["B1"].sales["PC-100"]
    assert sale_tid == tid
    # the ciphertext decrypts to the pin under the buyer's key only, at counter 0: the key is fresh for this PIN
    assert sym_decrypt(buyer_entry.key, 0, encrypted_pin, b"").decode() == buyer_entry.pin


def test_seller_state_cannot_decrypt_pin():
    # exhaustive-key oracle: every 32-byte string anywhere in the seller's
    # state dump fails to decrypt the pin ciphertext
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    _, encrypted_pin = cast["B1"].sales["PC-100"]
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
            sym_decrypt(SymmetricKey(candidate), 0, encrypted_pin, b"")


def test_two_sales_distinct_tids_and_pins():
    world, cast = make_world(wallets=("B1", "B2", "B3"), products=("PC-100", "PC-200"))
    sell_to(world, cast)
    claim_new(world, cast)
    establish_connection(cast["B1"], cast["B2"])
    establish_connection(cast["B1"], cast["B3"])
    tid_a = cast["B1"].start_sell(cast["B2"].did, "PC-100")
    tid_b = cast["B1"].start_sell(cast["B3"].did, "PC-100")
    world.run_until_quiescent()
    assert tid_a != tid_b
    assert purchase(cast["B2"])[1].pin != purchase(cast["B3"])[1].pin


def test_pin_request_for_a_held_tid_rejected_state_unchanged():
    # a PIN request may only add a purchase: it must not overwrite the PIN and key the buyer already holds
    world, cast = make_world(wallets=("B1", "B2", "B3"))
    sell_to(world, cast)
    claim_new(world, cast)
    start_resale(world, cast)
    b2, b3 = cast["B2"], cast["B3"]
    tid, entry = purchase(b2)
    before = dataclasses.replace(entry)
    establish_connection(b3, b2)
    mark = len(world.trace)
    request = payload("PINReq", tid=tid)
    b3.send(b3.connections[b2.did], crypto.fresh_nonce(world.rng), request, {"tid": tid, "productCode": "PC-100"})
    world.run_until_quiescent()
    delta = world.trace[mark:]
    assert [r["verdict"] for r in delta if r["to"] == "B2"] == ["rejected:duplicate-tid"]
    assert b2.claiming == {tid: before}
    assert sum(r["kind"] == "secret-minted" for r in world.trace) == 1
    assert not any(r["kind"] == "PINResp" for r in delta)


# -- transfer authorisation flow ----------------------------------------------------


def run_transfer(world, cast, seller="B1", product="PC-100"):
    if cast["MF"].did not in cast[seller].connections:
        establish_connection(cast[seller], cast["MF"])
    cast[seller].start_transfer(cast["MF"].did, product)
    world.run_until_quiescent()


def test_transfer_happy_path():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    mf = cast["MF"]
    assert transfer_pending(mf, "PC-100")
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "ownershipTransferResp"]
    assert verdicts == ["accepted"]


def test_transfer_duplicate_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    cast["B1"].start_transfer(cast["MF"].did, "PC-100")
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
    cast["B1"].sales["PC-404"] = cast["B1"].sales.pop("PC-100")
    cast["B1"].start_transfer(cast["MF"].did, "PC-404")
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipTransferReq"]
    assert verdicts[-1] == "rejected:unknown-product"


def test_transfer_unclaimed_product_rejected():
    world, cast = make_world(products=("PC-100", "PC-200"))
    sell_to(world, cast)
    claim_new(world, cast)
    start_resale(world, cast)
    cast["B1"].sales["PC-200"] = cast["B1"].sales.pop("PC-100")  # never sold: no current credential
    cast["B1"].start_transfer(cast["MF"].did, "PC-200")
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipTransferReq"]
    assert verdicts[-1] == "rejected:not-transferable"


def test_transfer_with_revoked_credential_rejected_and_rolled_back():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    mf, b1 = cast["MF"], cast["B1"]
    vc, sale = b1.credentials["PC-100"], b1.sales["PC-100"]  # the commit's revocation notice clears both
    claim_as_buyer(world, cast)
    assert b1.credentials == {} and b1.sales == {}
    # B1's credential is now revoked on the registry; force the wallet to present it anyway
    b1.sales["PC-100"] = sale
    b1._select_credential = lambda code, req: vc
    b1.start_transfer(mf.did, "PC-100")
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert verdicts[-1] == "rejected:revoked"
    assert "PC-100" not in mf.claimants  # rolled back
    assert mf.products["PC-100"].credential.credential_id == cast["B2"].credentials["PC-100"].credential_id


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
        cast["B1"].claim_new(cast["MF"].did, mail_tid, mail_pin)
        world.run_until_quiescent()
    assert sorted(cast["B1"].credentials) == ["PC-100", "PC-200"]
    start_resale(world, cast)
    # swap the credential selector so the wallet presents the PC-200 credential
    original = cast["B1"]._select_credential
    cast["B1"]._select_credential = lambda code, req: cast["B1"].credentials["PC-200"]
    cast["B1"].start_transfer(cast["MF"].did, "PC-100")
    world.run_until_quiescent()
    cast["B1"]._select_credential = original
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert verdicts[-1] == "rejected:wrong-product"
    assert "PC-100" not in cast["MF"].claimants  # rolled back
    assert cast["MF"].products["PC-100"].credential.credential_id == cast["B1"].credentials["PC-100"].credential_id


# -- the order of MF's proof checks --------------------------------------------------------

# MF's checks of a seller's proof, in the order they run: the two free checks that decide whether any signature is
# worth checking, the two signatures, then the rest; the first check that fails is the verdict
PROOF_CHECKS = (
    "unknown-issuer",
    "wrong-issuer",
    "bad-issuer-sig",
    "bad-holder-sig",
    "nonce-mismatch",
    "revoked",
    "wrong-product",
    "stale-credential",
    "not-holder",
)


def flipped(raw, index):
    return raw[:index] + bytes([raw[index] ^ 0x01]) + raw[index + 1 :]


def world_at_transfer():
    """B1 holds PC-100 and has sold it to B2; EVE has published a product credential definition of its own."""
    world, cast = make_world(wallets=("B1", "B2", "EVE"))
    sell_to(world, cast)
    claim_new(world, cast)
    start_resale(world, cast)
    eve = cast["EVE"]
    world.registry.publish_cred_def(cred_def_id_of(eve.did), PRODUCT_SCHEMA_ID, eve.did, eve.did_key.public_key)
    return world, cast


def transfer_proved_by(world, cast, present):
    """MF's verdict on B1's proof for a transfer of PC-100, where B1 answers the proof request's challenge with
    ``present(challenge)``.  A refused transfer leaves every party able to try again."""
    b1 = cast["B1"]

    def answer(conn, nonce, p, context):
        b1.send(conn, nonce, payload("ownershipProofResp", presentation=present(bytes(p.body["challenge"]))))
        return "accepted"

    b1._on_ownership_proof_req = answer
    run_transfer(world, cast)
    del b1._on_ownership_proof_req
    return [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"][-1]


def faulted_proof(world, cast, faults):
    """``present(challenge)`` for B1's proof of the current PC-100 credential, changed to fail each check in
    ``faults`` and no check before the first of them."""
    mf, b1, eve = cast["MF"], cast["B1"], cast["EVE"]
    vc = mf.products["PC-100"].credential
    attributes = dict(vc.attributes)
    cred_def_id, issuer_key = vc.cred_def_id, mf.did_key
    if "wrong-issuer" in faults:  # validly signed under a definition the registry resolves, but not MF's
        cred_def_id, issuer_key = cred_def_id_of(eve.did), eve.did_key
    if "unknown-issuer" in faults:
        cred_def_id = "creddef:did:handover:nobody:ghost"
    if "wrong-product" in faults:
        attributes["productCode"] = "PC-999"
    if "stale-credential" in faults:  # validly signed by MF, but not the credential it last issued for the product
        attributes["lastPurchaseDate"] = str(int(attributes["lastPurchaseDate"]) - 1)
    if cred_def_id != vc.cred_def_id or {"wrong-product", "stale-credential"} & set(faults):
        vc = sign_vc(tuple(attributes.items()), cred_def_id, issuer_key)
    if "bad-issuer-sig" in faults:
        vc = dataclasses.replace(vc, issuer_signature=flipped(vc.issuer_signature, 0))
    if "revoked" in faults:
        world.registry.revoke_credential(mf.did, mf.revocation_registry_id, vc.credential_id)
    if "not-holder" in faults:  # MF issued the current credential to another DID, and B1 presents a copy of it
        mf.products["PC-100"].holder_did = eve.did
    holder_key = eve.did_key if "bad-holder-sig" in faults else b1.did_key
    if "nonce-mismatch" in faults:
        return lambda challenge: present_proof(vc, crypto.fresh_nonce(world.rng), holder_key)
    return lambda challenge: present_proof(vc, challenge, holder_key)


def test_a_proof_gets_the_verdict_of_its_first_failing_check():
    # each check fails alone, then with each later one; no fault at all is the accepted baseline
    cases = [()] + [(check,) for check in PROOF_CHECKS] + list(itertools.combinations(PROOF_CHECKS, 2))
    verdicts, expected = {}, {}
    for faults in cases:
        world, cast = world_at_transfer()
        verdicts[faults] = transfer_proved_by(world, cast, faulted_proof(world, cast, faults))
        expected[faults] = f"rejected:{faults[0]}" if faults else "accepted"
    assert verdicts == expected


def test_every_byte_flip_of_the_current_credential_is_checked_and_refused():
    # MF recognizes the credential it issued by equality alone; a copy that differs in one byte of its signed bytes
    # or its signature is no longer that credential, so its issuer signature is checked and fails
    world, cast = world_at_transfer()
    mf, b1 = cast["MF"], cast["B1"]
    vc = mf.products["PC-100"].credential
    for name in ("signed", "issuer_signature"):
        raw = getattr(vc, name)
        for index in range(len(raw)):
            changed = dataclasses.replace(vc, **{name: flipped(raw, index)})
            expect = "rejected:bad-issuer-sig"
            if name == "signed":
                # the bytes MF decodes: a flip that breaks the encoding or the definition id is refused earlier
                try:
                    arrived = vc_from_wire(vc_to_wire(changed))
                except ValueError:
                    expect = "rejected:malformed-payload"
                else:
                    if arrived.cred_def_id != mf.cred_def_id:
                        expect = "rejected:unknown-issuer"
            verdict = transfer_proved_by(world, cast, lambda challenge: present_proof(changed, challenge, b1.did_key))
            assert verdict == expect, (name, index)
    assert mf.products["PC-100"].credential is vc and "PC-100" not in mf.claimants
    assert transfer_proved_by(world, cast, lambda challenge: present_proof(vc, challenge, b1.did_key)) == "accepted"


# -- used-product claim flow -------------------------------------------------------------


def test_a_copy_of_the_current_credential_presented_by_another_did_is_not_holder():
    # EVE holds a copy of B1's current credential, say one read off B1's connection, sells the product to its
    # accomplice ACC and proves with its own DID key: the proof verifies, but MF issued the credential to B1's DID
    world, cast = make_world(wallets=("B1", "EVE", "ACC"))
    sell_to(world, cast)
    claim_new(world, cast)
    mf, b1, eve, acc = cast["MF"], cast["B1"], cast["EVE"], cast["ACC"]
    eve.credentials["PC-100"] = b1.credentials["PC-100"]
    start_resale(world, cast, seller="EVE", buyer="ACC")
    record = dataclasses.replace(mf.products["PC-100"])
    run_transfer(world, cast, seller="EVE")
    proofs = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert proofs == ["rejected:not-holder"]
    assert mf.products["PC-100"] == record == ProductRecord(b1.credentials["PC-100"], b1.did) and mf.claimants == {}
    claim_as_buyer(world, cast, buyer="ACC")
    claims = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "usedClaimReq"]
    assert claims == ["rejected:unknown-tid"] and acc.credentials == {}
    world.emit_state_dumps()
    assert scan_trace(world.trace) == []


def claim_as_buyer(world, cast, buyer="B2"):
    establish_connection(cast[buyer], cast["MF"])
    cast[buyer].claim_used(cast["MF"].did, purchase(cast[buyer])[0])
    world.run_until_quiescent()


def full_used_transfer(seed=7):
    """B1's resale to B2 through B2's used claim, and the credential B1 held until the claim revoked it."""
    world, cast = run_sale_and_claim(seed)
    start_resale(world, cast)
    run_transfer(world, cast)
    sellers_vc = cast["B1"].credentials["PC-100"]
    claim_as_buyer(world, cast)
    return world, cast, sellers_vc


def used_claim_with_lost(sender, kind):
    """B1's resale to B2 and B2's used claim, with the last ``kind`` message from ``sender`` lost; and B2's TID."""
    world, cast, _ = full_used_transfer()
    seq = [r["seq"] for r in world.trace if r["from"] == sender and r["kind"] == kind][-1]
    world, cast = make_world()
    world.drop(seq)  # the same seed schedules the same seqs
    sell_to(world, cast)
    claim_new(world, cast)
    start_resale(world, cast)
    run_transfer(world, cast)
    tid, _ = purchase(cast["B2"])
    claim_as_buyer(world, cast)
    return world, cast, tid


def test_lost_used_claim_offer_retry_gets_the_same_credential():
    world, cast, tid = used_claim_with_lost("MF", "ownershipClaimResp")
    mf, b2 = cast["MF"], cast["B2"]
    assert b2.credentials == {} and tid in b2.claiming
    vc = mf.claimants["PC-100"].credential
    assert vc.credential_id == mf.products["PC-100"].credential.credential_id
    b2.claim_used(mf.did, tid)  # answers a fresh challenge, then gets the same credential
    world.run_until_quiescent()
    assert b2.credentials == {"PC-100": vc} and b2.claiming == {} and mf.claimants == {}
    assert [r["kind"] for r in world.trace if r["channel"] == "registry" and r["kind"] != "product-updated"] == [
        "vc-issued",
        "vc-revoked",
        "vc-issued",
    ]
    assert sold_count(mf) == 1


def test_lost_used_claim_ack_is_settled_by_the_holders_proof():
    world, cast, tid = used_claim_with_lost("B2", "ownershipClaimAck")
    mf, b2 = cast["MF"], cast["B2"]
    # the holder has its credential and spent its purchase; the manufacturer still waits for the ack
    vc = b2.credentials["PC-100"]
    assert b2.claiming == {} and mf.claimants["PC-100"].credential == vc
    # B2's resale proves it holds the credential, which settles the unacknowledged claim
    cast["B3"] = WalletAgent("B3", world)
    start_resale(world, cast, seller="B2", buyer="B3")
    run_transfer(world, cast, seller="B2")
    proofs = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert proofs == ["accepted", "accepted"]
    assert mf.claimants["PC-100"].tid != tid and mf.claimants["PC-100"].credential is None
    claim_as_buyer(world, cast, buyer="B3")
    assert cast["B3"].credentials["PC-100"].credential_id == mf.products["PC-100"].credential.credential_id
    assert b2.credentials == {} and b2.sales == {} and mf.claimants == {}
    assert sold_count(mf) == 2


def test_used_claim_commits_ownership():
    world, cast, old_vc = full_used_transfer()
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    product = mf.products["PC-100"]
    assert product.credential.credential_id == b2.credentials["PC-100"].credential_id and "PC-100" not in mf.claimants
    attributes = product_attributes(mf)
    assert sold_count(mf) == 1
    assert attributes["ConnID"] == b2.connections[mf.did].conn_id
    assert attributes["email"] == b2.email
    assert int(attributes["lastPurchaseDate"]) > int(attributes["firstPurchaseDate"])
    new_vc = b2.credentials["PC-100"]
    assert world.registry.is_revoked(old_vc.credential_id)
    assert not world.registry.is_revoked(new_vc.credential_id)
    notices = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "revokeVC"]
    assert notices == ["accepted"]  # revocation notice landed
    assert b1.credentials == {} and b1.sales == {}  # and cleared what the sale spent
    assert b2.claiming == {}  # the credential spent the purchase
    assert dict(new_vc.attributes)["previouslySoldCount"] == "1"
    assert "PC-100" not in mf.claimants


def test_used_claim_unknown_tid_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    tid, _ = purchase(cast["B2"])
    cast["B2"].claiming["ff" * 16] = cast["B2"].claiming.pop(tid)  # not what the seller registered
    cast["B2"].claim_used(cast["MF"].did, "ff" * 16)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "usedClaimReq"]
    assert verdicts[-1] == "rejected:unknown-tid"


def test_used_claim_wrong_key_rejected_state_unchanged():
    # wrong-key oracle: substituting another key makes the stored pin undecryptable
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    tid, entry = purchase(cast["B2"])
    entry.key = crypto.SymmetricKey(world.rng.randbytes(32))  # adversary swaps the key
    cast["B2"].claim_used(cast["MF"].did, tid)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "pinChallengeResp"]
    assert verdicts[-1] == "rejected:pin-decrypt"
    mf = cast["MF"]
    assert not world.registry.is_revoked(cast["B1"].credentials["PC-100"].credential_id)
    assert sold_count(mf) == 0
    assert "PC-100" in mf.claimants  # entry stays; claim may be retried


def test_used_claim_wrong_result_rejected_old_vc_valid():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    tid, entry = purchase(cast["B2"])
    entry.pin = "ZZZZZZ" if entry.pin != "ZZZZZZ" else "AAAAAA"  # wrong pin, right key
    cast["B2"].claim_used(cast["MF"].did, tid)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "pinChallengeResp"]
    assert verdicts[-1] == "rejected:challenge-mismatch"
    assert not world.registry.is_revoked(cast["B1"].credentials["PC-100"].credential_id)
    assert cast["B2"].credentials == {}


def test_pin_challenge_handled_without_stored_data_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    establish_connection(cast["B2"], cast["MF"])
    tid, _ = purchase(cast["B2"])
    cast["B2"].claim_used(cast["MF"].did, tid)
    del cast["B2"].claiming[tid]  # wallet loses its data mid-flow
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B2" and r["kind"] == "pinChallengeReq"]
    assert verdicts[-1] == "rejected:unknown-tid"


def test_resale_after_a_buy_back_transfers_the_latest_sale():
    # B1 sells PC-100 to B2, buys it back and sells it to B3: the transfer carries the B1 -> B3 sale
    data = json.loads(json.dumps(BUILTIN_SCENARIOS["full-lifecycle"]))
    data.update(name="buy-back", seed=7)
    data["cast"]["wallets"] = ["B1", "B2", "B3"]
    data["script"] += [
        {"op": "sell", "seller": "B2", "buyer": "B1", "product": "PC-100", "expect": "accepted"},
        {"op": "transfer", "seller": "B2", "product": "PC-100", "expect": "accepted"},
        {"op": "claim_used", "wallet": "B1", "expect": "accepted"},
        {"op": "connect", "a": "B1", "b": "B3", "expect": "ok"},
        {"op": "connect", "a": "B3", "b": "MF", "expect": "ok"},
        {"op": "sell", "seller": "B1", "buyer": "B3", "product": "PC-100", "expect": "accepted"},
        {"op": "transfer", "seller": "B1", "product": "PC-100", "expect": "accepted"},
        {"op": "claim_used", "wallet": "B3", "expect": "accepted"},
    ]
    result = run_scenario(parse_scenario(data))
    world, mf, b2 = result.world, result.cast["MF"], result.cast["B2"]

    def live_holders():
        held = [(name, vc) for name in ("B1", "B2", "B3") for vc in result.cast[name].credentials.values()]
        return [name for name, vc in held if not world.registry.is_revoked(vc.credential_id)]

    assert [step.verdict for step in result.steps] == [step.expect for step in result.spec.script]
    assert result.ok
    assert live_holders() == ["B3"]
    # each wallet holds live state only: B3's credential, and nothing left of a settled purchase or a committed sale
    assert {name: list(result.cast[name].credentials) for name in ("B1", "B2", "B3")} == {
        "B1": [],
        "B2": [],
        "B3": ["PC-100"],
    }
    assert all(not result.cast[name].claiming and not result.cast[name].sales for name in ("B1", "B2", "B3"))
    # the secrets of B2's first purchase, whose claim was used up long ago, cannot claim it again
    minted = [r["meta"] for r in world.trace if r["kind"] == "secret-minted"]
    first = next(meta for meta in minted if meta["owner"] == "B2")
    claim = payload("usedClaimReq", tid=first["tid"], key=bytes.fromhex(first["keyHex"]), email=b2.email)
    b2.send(b2.connections[mf.did], crypto.fresh_nonce(world.rng), claim)
    world.run_until_quiescent()
    claims = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "usedClaimReq"]
    assert claims[-1] == "rejected:unknown-tid"
    assert live_holders() == ["B3"]


# -- agent state is written only by a step that authenticates its writer -----------------


def lifecycle_with_lost_revoke_notice(*steps, wallets=("B1", "B2")):
    """Full lifecycle and then ``steps``, step by step, with MF's revocation notice to B1 lost.

    So B1 keeps its revoked credential and its spent sale.  Returns the world, the cast, the step verdicts
    and the verdicts the steps expect.
    """
    data = dict(BUILTIN_SCENARIOS["full-lifecycle"], name="lost-revoke-notice")
    data["cast"] = dict(data["cast"], wallets=list(wallets))
    data["script"] = data["script"] + list(steps)
    spec = parse_scenario(data)
    world, cast = build_world(spec)
    for step in spec.script:
        execute_step(world, cast, spec, step)
    seq = next(r["seq"] for r in world.trace if r["from"] == "MF" and r["kind"] == "revokeVC")
    world, cast = build_world(spec)
    world.drop(seq)  # the same seed schedules the same seqs
    verdicts = [execute_step(world, cast, spec, step) for step in spec.script]
    b1 = cast["B1"]
    assert "PC-100" in b1.sales and world.registry.is_revoked(b1.credentials["PC-100"].credential_id)
    return world, cast, verdicts, [step.expect for step in spec.script]


@pytest.mark.parametrize("forgery", ["signed-by-another-key", "connection-did-unresolvable"])
def test_a_proof_not_bound_to_the_connections_did_is_a_bad_holder_sig(forgery):
    # MF checks the holder signature under the key the registry resolves for the connection's DID
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    mf, b1 = cast["MF"], cast["B1"]
    stray = crypto.generate_signing_key(world.rng)
    if forgery == "signed-by-another-key":
        b1.did_key = stray  # a key B1's DID does not derive from
    else:
        unpublished = crypto.derive_did(stray.public_key)
        world.mediator.routes[unpublished] = "B1"  # the mediator routes it to B1, but no DID document names it
        mf.connections[b1.did].remote_did = unpublished
    run_transfer(world, cast)
    proofs = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert proofs == ["rejected:bad-holder-sig"]
    assert mf.products["PC-100"].credential.credential_id == b1.credentials["PC-100"].credential_id
    assert "PC-100" not in mf.claimants


def test_no_one_publishes_a_did_document_under_a_key_its_did_does_not_derive_from():
    # the full lifecycle, then EVE connects to MF, as the attack workload has it before its forged transfers
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["cast"]["adversaries"] = ["EVE"]
    data["script"].append({"op": "connect", "a": "EVE", "b": "MF", "expect": "ok"})
    result = run_scenario(parse_scenario(data))
    assert result.ok
    world, mf, eve = result.world, result.cast["MF"], result.cast["EVE"]
    entries = len(world.registry.entries)
    # EVE's key for MF's DID, or a 5-byte key for its own, is refused and changes nothing
    for did_uri, key in ((mf.did, eve.did_key.public_key), (eve.did, b"\x05" * 5)):
        with pytest.raises(AuthorizationError):
            world.registry.publish_did_doc(did_uri, key)
    assert len(world.registry.entries) == entries
    assert world.registry.resolve_did(mf.did) == mf.did_key.public_key
    # so a credential EVE signs under MF's definition still fails under MF's key
    attributes = tuple((name, "x") for name in PRODUCT_ATTRIBUTE_NAMES)
    forged = sign_vc(attributes, mf.cred_def_id, eve.did_key)
    assert verify_credential_signature(forged, world.registry) == (False, "bad-issuer-sig")
    # and the forged transfers that follow get their verdicts, with no exception
    for mode, expect in (("self-issued", "wrong-issuer"), ("garbage", "bad-issuer-sig")):
        args = {"adversary": "EVE", "product": "PC-100", "mode": mode}
        step = ScenarioStep(op="adversary_transfer", args=args, expect=f"rejected:{expect}")
        assert execute_step(world, result.cast, result.spec, step) == f"rejected:{expect}"


def test_declined_proof_request_leaves_the_product_transferable():
    # after the resale B1 holds only a revoked credential, so it never answers MF's proof request
    world, cast, verdicts, expected = lifecycle_with_lost_revoke_notice(
        {"op": "transfer", "seller": "B1", "product": "PC-100", "expect": "rejected:no-matching-credential"},
        {"op": "connect", "a": "B2", "b": "B3", "expect": "ok"},
        {"op": "sell", "seller": "B2", "buyer": "B3", "product": "PC-100", "expect": "accepted"},
        {"op": "transfer", "seller": "B2", "product": "PC-100", "expect": "accepted"},
        {"op": "connect", "a": "B3", "b": "MF", "expect": "ok"},
        {"op": "claim_used", "wallet": "B3", "expect": "accepted"},
        wallets=("B1", "B2", "B3"),
    )
    assert verdicts == expected
    world.emit_state_dumps()
    assert scan_trace(world.trace) == []
    assert sold_count(cast["MF"]) == 2
    assert len(cast["B3"].credentials) == 1


def test_unanswered_transfer_request_leaves_no_state():
    world, cast = make_world(wallets=("B1", "B2", "B3"))
    sell_to(world, cast)
    claim_new(world, cast)
    mf, b2, b3 = cast["MF"], cast["B2"], cast["B3"]
    establish_connection(b2, mf)
    # B2 holds no credential and keeps no thread: it leaves each proof request unanswered
    for _ in range(3):
        tid = mint_tid(world.rng)
        request = payload("ownershipTransferReq", productCode="PC-100", encryptedPin=b"\x01" * 38, tid=tid)
        send_keeping_no_thread(b2, b2.connections[mf.did], crypto.fresh_nonce(world.rng), request)
        world.run_until_quiescent()
    assert mf.products["PC-100"].credential.credential_id == cast["B1"].credentials["PC-100"].credential_id
    assert "PC-100" not in mf.claimants
    # each unanswered request leaves one open thread, and nothing of the requests it answered
    threads = mf.state_dump()["connections"][b2.did]["threads"]
    assert [kind for kind, _ in threads.values()] == ["ownershipProofResp"] * 3
    # the owner's resale still completes
    start_resale(world, cast, buyer="B3")
    run_transfer(world, cast)
    establish_connection(b3, mf)
    b3.claim_used(mf.did, purchase(b3)[0])
    world.run_until_quiescent()
    assert len(b3.credentials) == 1
    assert product_attributes(mf)["ConnID"] == b3.connections[mf.did].conn_id


def test_seller_claim_in_flight_does_not_overwrite_the_buyers_challenge():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    establish_connection(b2, mf)
    tid, _ = b1.sales["PC-100"]
    b2.claim_used(mf.did, tid)
    # the seller minted the TID: it claims with a key of its own before B2 answers its challenge
    rival = payload("usedClaimReq", tid=tid, key=world.rng.randbytes(32), email=b1.email)
    b1.send(b1.connections[mf.did], crypto.fresh_nonce(world.rng), rival)
    world.run_until_quiescent()
    claims = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "usedClaimReq"]
    assert claims[-2:] == ["accepted", "accepted"]  # both attempts got a challenge
    answers = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "pinChallengeResp"]
    assert answers == ["accepted"]
    assert len(b2.credentials) == 1
    assert sold_count(mf) == 1


def test_state_dump_shows_an_open_exchange_with_its_context():
    world, cast = make_world()
    sell_to(world, cast)
    claim_new(world, cast)
    mf, b2 = cast["MF"], cast["B2"]
    establish_connection(b2, mf)
    tid, nonce = mint_tid(world.rng), crypto.fresh_nonce(world.rng)
    request = payload("ownershipTransferReq", productCode="PC-100", encryptedPin=b"\x01" * 38, tid=tid)
    send_keeping_no_thread(b2, b2.connections[mf.did], nonce, request)
    world.run_until_quiescent()
    # B2 leaves the proof request unanswered: the request lives only in the open exchange, and the dump shows it
    kind, context = mf.state_dump()["connections"][b2.did]["threads"][nonce.hex()]
    assert kind == "ownershipProofResp"
    assert (context["productCode"], context["tid"], context["encryptedPin"]) == ("PC-100", tid, "01" * 38)


def test_a_buyer_key_in_a_non_owner_expectation_breaks_pin_secrecy():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    b1, b2 = cast["B1"], cast["B2"]
    world.emit_state_dumps()
    assert scan_trace(world.trace) == []
    key = purchase(b2)[1].key
    b1.connections[b2.did].threads[bytes(16)] = ("PINResp", {"key": key})
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


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_no_trace_holds_private_key_material(name):
    result = run_scenario(builtin_scenario(name))
    text = "\n".join(result.trace_lines())
    agents = result.world.agents.values()
    connections = [conn for agent in agents for conn in agent.connections.values()]
    # one key, one job: a DID key only signs, a connection key only agrees
    keys = [(agent.did_key, agent.did_key.signer) for agent in agents]
    keys += [(conn.local, conn.local.agreer) for conn in connections]
    assert not any(hasattr(agent.did_key, "agreer") for agent in agents)
    assert not any(hasattr(conn.local, "signer") for conn in connections)
    for key, private in keys:
        # each dumped key shows its public key, so a private key dumped beside it would show in the same form
        assert key.public_key.hex() in text
        assert private.private_bytes_raw().hex() not in text
    assert result.world.mediator.keys.agreer.private_bytes_raw().hex() not in text
    for agent in agents:
        for conn in agent.connections.values():
            peer = result.world.agents[conn.remote_agent_id].connections[agent.did].local.public_key
            shared = conn.local.agreer.exchange(crypto.X25519PublicKey.from_public_bytes(peer))
            for secret in (conn.send_key.key_bytes, conn.receive_key.key_bytes, shared):
                assert secret.hex() not in text
    route_keys = result.world.mediator.route_keys
    assert len(route_keys) == len({r["from"] for r in result.world.trace if r["to"] == "MD"})  # one per sender
    for route_key in route_keys.values():
        assert route_key.key_bytes.hex() not in text


def test_unanswered_used_claims_leave_one_challenge_open():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    run_transfer(world, cast)
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    tid, _ = b1.sales["PC-100"]
    # the seller claims with the TID it minted and made-up keys, and never answers a challenge
    keys = {}
    for _ in range(3):
        nonce, key = crypto.fresh_nonce(world.rng), world.rng.randbytes(32)
        attempt = payload("usedClaimReq", tid=tid, key=key, email=b1.email)
        send_keeping_no_thread(b1, b1.connections[mf.did], nonce, attempt)
        world.run_until_quiescent()
        keys[nonce] = key
    claims = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "usedClaimReq"]
    assert claims[-3:] == ["accepted"] * 3
    # each attempt leaves one open thread, and keeps its own key and challenge there
    conn = mf.connections[b1.did]
    attempts = open_threads(conn, "pinChallengeResp")
    assert {nonce: context["key"].key_bytes for nonce, context in attempts.items()} == keys
    assert all(context["tid"] == tid and "challenge" in context for context in attempts.values())
    assert conn.threads.keys() == keys.keys()  # and no other
    # the buyer's claim still completes
    establish_connection(b2, mf)
    b2.claim_used(mf.did, tid)
    world.run_until_quiescent()
    assert len(b2.credentials) == 1


def test_late_reply_to_a_replaced_exchange_is_a_nonce_mismatch():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    mf, b1 = cast["MF"], cast["B1"]
    conn = b1.connections[mf.did]
    tid, encrypted_pin = b1.sales["PC-100"]
    first, second = crypto.fresh_nonce(world.rng), crypto.fresh_nonce(world.rng)
    for nonce in (first, second):  # B1 answers neither proof request itself
        request = payload("ownershipTransferReq", productCode="PC-100", encryptedPin=encrypted_pin, tid=tid)
        send_keeping_no_thread(b1, conn, nonce, request)
    world.run_until_quiescent()
    # both exchanges stay open, each with its own challenge
    proofs = open_threads(mf.connections[b1.did], "ownershipProofResp")
    challenges = {nonce: context["challenge"] for nonce, context in proofs.items()}
    assert sorted(challenges) == sorted((first, second)) and challenges[first] != challenges[second]

    def prove(nonce, challenge):
        presentation = present_proof(b1.credentials["PC-100"], challenge, b1.did_key)
        b1.send(conn, nonce, payload("ownershipProofResp", presentation=presentation))
        world.run_until_quiescent()
        return [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"][-1]

    # a late proof is judged against its own exchange's challenge
    assert prove(second, challenges[first]) == "rejected:nonce-mismatch"
    assert not transfer_pending(mf, "PC-100")
    assert prove(first, challenges[first]) == "accepted"
    assert transfer_pending(mf, "PC-100")


def test_replacing_a_connection_closes_its_open_exchanges():
    data = json.loads(json.dumps(BUILTIN_SCENARIOS["sale-only"]))
    data["script"] += [
        {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"},
        {"op": "offline", "agent": "MF", "expect": "ok"},
        {"op": "claim_new", "wallet": "B1", "tid": "00" * 16, "pin": "AAAAAA", "expect": "no-decision"},
        {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"},
        # the claim was sealed to the replaced connection's key, which MF no longer holds
        {"op": "online", "agent": "MF", "expect": "rejected:decrypt-error"},
    ]
    result = run_scenario(parse_scenario(data))
    assert [step.verdict for step in result.steps] == [step.expect for step in result.spec.script]
    b1, mf = result.cast["B1"], result.cast["MF"]
    assert len(b1.connections) == 1
    # the claim sent on the replaced connection can never be answered: its thread went with that connection
    assert b1.state_dump()["connections"][mf.did]["threads"] == {}


def test_revoke_notice_from_a_non_issuer_peer_changes_nothing():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    b1, b2 = cast["B1"], cast["B2"]
    vc, sale = b1.credentials["PC-100"], b1.sales["PC-100"]
    notice = payload("revokeVC", productCode="PC-100")
    b2.send(b2.connections[b1.did], crypto.fresh_nonce(world.rng), notice)
    world.run_until_quiescent()
    assert not world.registry.is_revoked(vc.credential_id)
    # the registry says the credential is live, so B1 keeps it and its sale
    assert b1.credentials == {"PC-100": vc} and b1.sales == {"PC-100": sale}
    run_transfer(world, cast)
    proofs = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "ownershipProofResp"]
    assert proofs == ["accepted"]
    establish_connection(b2, cast["MF"])
    b2.claim_used(cast["MF"].did, purchase(b2)[0])
    world.run_until_quiescent()
    assert len(b2.credentials) == 1
    assert b1.credentials == {} and b1.sales == {}  # the issuer's notice, which the registry confirms, clears both


def test_a_seller_that_reconnected_to_the_manufacturer_still_gets_the_revocation_notice():
    # the notice goes to the seller's current connection with the manufacturer, not only to the one its credential
    # was issued on, so the reconnected seller drops its revoked credential and its spent sale
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["script"].insert(3, {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"})  # just after B1's claim
    result = run_scenario(parse_scenario(data))
    assert result.ok
    b1 = result.cast["B1"]
    kinds = ("revokeVC", "revokeVCResp")
    notices = [(r["to"], r["kind"], r["verdict"]) for r in result.world.trace if r["kind"] in kinds and r["to"] != "MD"]
    assert notices == [("B1", "revokeVC", "accepted"), ("MF", "revokeVCResp", "accepted")]
    assert b1.credentials == {} and b1.sales == {}


def test_two_transfers_started_together_leave_one_claimant():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    mf, b1 = cast["MF"], cast["B1"]
    b1.start_transfer(mf.did, "PC-100")
    b1.start_transfer(mf.did, "PC-100")
    world.run_until_quiescent()
    responses = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "ownershipTransferResp"]
    assert responses.count("accepted") == 1
    assert list(mf.claimants) == ["PC-100"] and transfer_pending(mf, "PC-100")


# -- nonce/replay discipline at the agent level ----------------------------------------


def test_unsolicited_response_rejected():
    world, cast = run_sale_and_claim()
    start_resale(world, cast)
    seller = cast["B1"]
    buyer_conn = cast["B2"].connections[seller.did]
    cast["B2"].send(buyer_conn, crypto.fresh_nonce(world.rng), payload("PINResp", encryptedPin=b"\x01" * 38, tid="00" * 16))
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "PINResp"]
    assert verdicts[-1] == "rejected:nonce-mismatch"


def test_second_credential_offer_rejected():
    # the used-claim offer closes the claim's exchange, so a second offer answers nothing
    result = fresh_lifecycle()
    world, mf, b2 = result.world, result.cast["MF"], result.cast["B2"]
    offer = payload("ownershipClaimResp", credential=b2.credentials["PC-100"])
    mf.send(mf.connections[b2.did], crypto.fresh_nonce(world.rng), offer)
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
    b1.send(b1.connections[b2.did], nonce, payload("ownershipClaimReq", tid="00" * 16, pin="AAAAAA"))
    world.run_until_quiescent()
    delivered = next(r for r in reversed(world.trace) if r["to"] == "B2")
    assert delivered["verdict"] == "rejected:unexpected-kind"
    # B2's problemReport answers it and closes B1's thread of the claim, and B1 answers nothing back
    assert [(r["to"], r["kind"], r["verdict"]) for r in world.trace if r["seq"] > delivered["seq"]] == [
        ("MD", "problemReport", "forwarded"),
        ("B1", "problemReport", "rejected:unexpected-kind"),
    ]
    assert b1.connections[b2.did].threads == {}
    after = b2.state_dump()
    # only the connection's counters record the delivered message and its answer
    for counter in ("received", "sent"):
        assert after["connections"][b1.did].pop(counter) == before["connections"][b1.did].pop(counter) + 1
    assert after == before


@pytest.mark.parametrize("reason", ["revoked", "unknown-issuer", "bad-issuer-sig"])
def test_offered_credential_that_fails_its_check_is_refused(reason):
    world, cast, old_vc = full_used_transfer()
    mf, b1, b2 = cast["MF"], cast["B1"], cast["B2"]
    new_vc = b2.credentials["PC-100"]
    if reason == "revoked":
        offered = old_vc
    elif reason == "unknown-issuer":  # signed by MF under a definition no one published
        offered = sign_vc(new_vc.attributes, "creddef:did:handover:nobody:ghost", mf.did_key)
    else:
        offered = dataclasses.replace(new_vc, issuer_signature=bytes(len(new_vc.issuer_signature)))
    # B1 has a claim in flight, so its thread of a credential offer is open
    nonce = crypto.fresh_nonce(world.rng)
    b1.connections[mf.did].threads[nonce] = ("ownershipClaimResp", {})
    conn = mf.connections[b1.did]
    mf.send(conn, nonce, payload("ownershipClaimResp", credential=offered))  # opens MF's thread of the ack
    world.run_until_quiescent()
    offers = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "ownershipClaimResp"]
    assert offers[-1] == f"rejected:{reason}"
    assert b1.credentials == {}
    # B1 answers with its reason, which closes MF's thread of the ack
    reports = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "problemReport"]
    assert reports == [f"rejected:{reason}"]
    assert conn.threads == {}


def test_offered_credential_without_a_product_code_is_refused():
    # B1 holds PC-100 and B2 PC-200; MF offers B1 a credential of its own definition that names no product
    world, cast = make_world(products=("PC-100", "PC-200"))
    mf, b1 = cast["MF"], cast["B1"]
    for buyer, code in (("B1", "PC-100"), ("B2", "PC-200")):
        sell_to(world, cast, buyer=buyer, product=code)
        claim_new(world, cast, buyer=buyer, product=code)
    held = dict(b1.credentials)
    nonce = crypto.fresh_nonce(world.rng)
    b1.connections[mf.did].threads[nonce] = ("ownershipClaimResp", {})  # a claim in flight
    conn = mf.connections[b1.did]
    attributes = tuple((name, "x") for name in PRODUCT_ATTRIBUTE_NAMES if name != "productCode")
    nameless = sign_vc(attributes, mf.cred_def_id, mf.did_key)
    mf.send(conn, nonce, payload("ownershipClaimResp", credential=nameless))
    world.run_until_quiescent()
    offers = [r["verdict"] for r in world.trace if r["to"] == "B1" and r["kind"] == "ownershipClaimResp"]
    assert offers[-1] == "rejected:no-product-code"
    reports = [r["verdict"] for r in world.trace if r["to"] == "MF" and r["kind"] == "problemReport"]
    assert reports[-1] == "rejected:no-product-code"
    assert b1.credentials == held
    # a proof request for a product B1 does not hold finds no credential
    start_resale(world, cast, product="PC-200")
    run_transfer(world, cast, product="PC-200")
    refused = [(r["to"], r["kind"], r["verdict"]) for r in world.trace if r["to"] in ("B1", "MF")][-2:]
    assert refused == [
        ("B1", "ownershipProofReq", "rejected:no-matching-credential"),
        ("MF", "problemReport", "rejected:no-matching-credential"),  # and MF's proof exchange is closed
    ]


def round_trip_scenario(hand_overs):
    """PC-100 bought new by B1, then handed over ``hand_overs`` times between B1 and B2, each way in turn."""
    script = [
        {"op": "record_sale", "product": "PC-100", "buyer": "B1", "expect": "accepted"},
        {"op": "connect", "a": "B1", "b": "MF", "expect": "ok"},
        {"op": "claim_new", "wallet": "B1", "expect": "accepted"},
        {"op": "connect", "a": "B1", "b": "B2", "expect": "ok"},
        {"op": "connect", "a": "B2", "b": "MF", "expect": "ok"},
    ]
    owner, other = "B1", "B2"
    for _ in range(hand_overs):
        script += [
            {"op": "sell", "seller": owner, "buyer": other, "product": "PC-100", "expect": "accepted"},
            {"op": "transfer", "seller": owner, "product": "PC-100", "expect": "accepted"},
            {"op": "claim_used", "wallet": other, "expect": "accepted"},
        ]
        owner, other = other, owner
    cast = {"manufacturer": "MF", "distributor": "DS", "wallets": ["B1", "B2"]}
    data = {"name": "round-trips", "seed": 3, "cast": cast, "products": ["PC-100"], "script": script}
    return parse_scenario(data), owner, other


@pytest.mark.parametrize("hand_overs", range(1, 9))
def test_wallets_hold_only_live_state_over_round_trips(hand_overs):
    spec, owner, other = round_trip_scenario(hand_overs)
    result = run_scenario(spec)
    assert result.ok
    mf, cast = result.cast["MF"], result.cast
    assert sold_count(mf) == hand_overs
    assert cast[owner].credentials["PC-100"].credential_id == mf.products["PC-100"].credential.credential_id
    assert cast[other].credentials == {}
    for wallet in (cast[owner], cast[other]):
        assert wallet.claiming == {} and wallet.sales == {}
        assert all(conn.threads == {} for conn in wallet.connections.values())


def connections_but_counters(agent):
    """``agent``'s dumped connections without their message counters."""
    dumped = agent.state_dump()["connections"]
    return {did: {k: v for k, v in conn.items() if k not in ("sent", "received")} for did, conn in dumped.items()}


def test_settled_hand_overs_leave_no_replay_state_but_the_counters():
    # replay protection is one counter per connection direction, so K settled hand-overs leave every connection
    # as it was after one, but for its counters, and each side has accepted every message its peer sent
    dumps = []
    for hand_overs in range(1, 9):
        result = run_scenario(round_trip_scenario(hand_overs)[0])
        assert result.ok
        agents = result.world.agents.values()
        for agent in agents:
            for conn in agent.connections.values():
                assert conn.threads == {}
                assert conn.received == result.world.agents[conn.remote_agent_id].connections[agent.did].sent
        dumps.append({agent.agent_id: connections_but_counters(agent) for agent in agents})
    assert all(dump == dumps[0] for dump in dumps)


def load_bench_workloads():
    """The benchmark's scenario generators, ``bench/workloads.py`` of this checkout."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "workloads.py")
    module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


RUNS = sorted(BUILTIN_SCENARIOS) + ["workload:lifecycle", "workload:fleet", "workload:attack"]


def spec_of(name):
    """The scenario a ``RUNS`` entry names: a built-in at its own seed, or a benchmark workload at seed 1."""
    if name.startswith("workload:"):
        return load_bench_workloads().scenario(name.split(":")[1], 1)
    return builtin_scenario(name)


@pytest.mark.parametrize("name", RUNS)
def test_every_run_ends_with_no_open_thread_but_an_unanswered_claim(name):
    # every exchange of a built-in or a benchmark workload is answered, a refused one by a problemReport (wrong-pin's
    # claim included), so none leaves a thread behind and no claim goes unanswered
    result = run_scenario(spec_of(name))
    assert result.ok
    agents = result.world.agents.values()
    assert any(agent.links for agent in agents)  # every run sells over https, whose links hold threads too
    legs = [leg for agent in agents for leg in (*agent.connections.values(), *agent.links.values())]
    assert [leg.threads for leg in legs if leg.threads] == []


@pytest.mark.parametrize("name", RUNS)
def test_no_run_makes_a_hybrid_encryption(name, monkeypatch):
    # a sender enrolls by one agreement whose send key the mediator keeps as it is, so nothing wraps a route key
    # and the mediator unwraps none, the spoofing stranger's enrollment included
    wrapped, unwrapped = count_calls(monkeypatch, crypto, "asym_encrypt"), count_calls(monkeypatch, crypto, "asym_decrypt")
    result = run_scenario(spec_of(name))
    assert result.ok
    assert wrapped == unwrapped == []


def test_duplicate_selling_response_rejected_on_direct_channel():
    # the direct channel has no replay guard; the sale's single-use thread stops the duplicate
    world, cast = make_world()
    sell_to(world, cast)
    inbox = list(cast["B1"].inbox)
    request = next(r for r in world.trace if r["to"] == "MF" and r["kind"] == "productSellingReq")
    nonce = bytes.fromhex(request["meta"]["nonce"])
    world.send_direct("MF", "DS", nonce, payload("productSellingResp", tid=emailed(cast["B1"], "tid")["tid"]))
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "DS" and r["kind"] == "productSellingResp"]
    assert verdicts == ["accepted", "rejected:nonce-mismatch"]
    assert cast["B1"].inbox == inbox  # no second TID email


def test_a_wrong_kind_under_an_open_sales_nonce_leaves_the_sale_open():
    # only the selling response continues a sale: a request kind under its nonce is refused with a problemReport
    # and a reply kind is a nonce-mismatch, and neither spends the sale, so the response still sends the TID
    world, cast = make_world()
    ds = cast["DS"]
    ds.record_sale("MF", "PC-100", cast["B1"].email)
    [nonce] = ds.links["MF"].threads
    mark = len(world.trace)
    world.send_direct("MF", "DS", nonce, payload("PINReq", tid=mint_tid(world.rng)))
    world.send_direct("MF", "DS", nonce, payload("ownershipClaimAck"))
    world.run_until_quiescent()
    assert [(r["to"], r["kind"], r["verdict"]) for r in world.trace[mark:] if r["channel"] == "https"] == [
        ("MF", "productSellingReq", "accepted"),
        ("DS", "PINReq", "rejected:unexpected-kind"),
        ("DS", "ownershipClaimAck", "rejected:nonce-mismatch"),
        ("DS", "productSellingResp", "accepted"),
        ("MF", "problemReport", "rejected:unexpected-kind"),  # MF opened no thread under the nonce: no answer
    ]
    assert ds.links["MF"].threads == {}
    tid = cast["MF"].claimants["PC-100"].tid
    assert emailed(cast["B1"], "tid") == {"productCode": "PC-100", "tid": tid, "nonce": nonce.hex()}


@pytest.mark.parametrize("leg", ["https-to-MF", "https-to-B1", "connection-to-B1"])
def test_a_selling_response_with_no_open_sale_is_a_nonce_mismatch_on_either_leg(leg):
    world, cast = run_sale_and_claim()
    mf, b1 = cast["MF"], cast["B1"]
    nonce, response = crypto.fresh_nonce(world.rng), payload("productSellingResp", tid=mint_tid(world.rng))
    recipient = mf if leg == "https-to-MF" else b1
    before = recipient.state_dump()
    mark = len(world.trace)
    if leg == "connection-to-B1":
        mf.send(mf.connections[b1.did], nonce, response)
    else:
        world.send_direct("DS", recipient.agent_id, nonce, response)
    world.run_until_quiescent()
    delivered = [(r["to"], r["kind"], r["verdict"]) for r in world.trace[mark:] if r["to"] not in ("MD", "-")]
    assert delivered == [(recipient.agent_id, "productSellingResp", "rejected:nonce-mismatch")]  # and no answer
    after = recipient.state_dump()
    if leg == "connection-to-B1":
        after["connections"][mf.did]["received"] -= 1  # the connection's counter records the message
    links, _ = after.pop("links"), before.pop("links")
    assert after == before and all(link["threads"] == {} for link in links.values())


def test_every_reply_kind_is_a_payload_kind_that_some_agent_handles():
    assert set(REPLIES) | REPLY_KINDS <= set(KIND_FIELDS)
    assert "problemReport" not in REPLY_KINDS  # a refusal closes any thread, and one under none still reads why
    handled = set()
    for agent_class in (ManufacturerAgent, DistributorAgent, WalletAgent):
        handled |= agent_class.HANDLERS.keys() | agent_class.DIRECT_HANDLERS.keys()
    assert REPLY_KINDS <= handled


@pytest.mark.parametrize("leg", ["connection", "https"])
def test_a_thread_without_the_context_its_reply_handler_reads_is_refused_before_anything_is_sent(leg):
    # the reply's handler would read the missing field when the reply arrives and raise then, mid-run
    result = fresh_lifecycle()
    world, b1, b2, ds = result.world, result.cast["B1"], result.cast["B2"], result.cast["DS"]
    tid = mint_tid(world.rng)
    if leg == "connection":
        sender, conn, message = b1, b1.connections[b2.did], payload("PINReq", tid=tid)
        context = {"tid": tid, "productCode": "PC-100"}
    else:
        sender, conn = ds, ds.link("MF")
        message = payload("productSellingReq", productCode="PC-100", distributorID="DS", email=b1.email)
        context = {"productCode": "PC-100", "email": b1.email}
    first = next(iter(context))
    before = (world._seq, list(world._queue), dict(world._routes), sender.state_dump())
    for partial in (None, {}, {name: context[name] for name in context if name != first}):
        with pytest.raises(AgentActionError, match=repr(first)):
            sender.send(conn, crypto.fresh_nonce(world.rng), message, partial)
    assert (world._seq, list(world._queue), dict(world._routes), sender.state_dump()) == before  # nothing sealed
    # the full context, with a field no handler reads, opens the thread, and the reply finds what it reads
    sender.send(conn, crypto.fresh_nonce(world.rng), message, {**context, "note": "unread"})
    world.run_until_quiescent()
    assert conn.threads == {}


class ContextReads(dict):
    """A thread context that notes the name of each field its handler reads by key; ``get`` reads an optional one."""

    def __init__(self, context, reads):
        super().__init__(context)
        self.reads = reads

    def __getitem__(self, name):
        self.reads.add(name)
        return super().__getitem__(name)


def test_each_reply_row_names_the_context_fields_its_handler_reads(monkeypatch):
    read = collections.defaultdict(set)  # reply kind -> the context fields an honest agent's handler read by key
    handle = Agent.handle_payload

    def recording(self, conn, nonce, p, context, handlers):
        if context is not None and p.kind != "problemReport" and not isinstance(self, AdversaryWallet):
            context = ContextReads(context, read[p.kind])
        return handle(self, conn, nonce, p, context, handlers)

    monkeypatch.setattr(Agent, "handle_payload", recording)
    for name in sorted(BUILTIN_SCENARIOS):
        assert run_scenario(builtin_scenario(name)).ok
    assert dict(read) == {reply: set(reads) for reply, reads in REPLIES.values()}


def consumed_deliveries(world):
    """The mediator-to-endpoint events of a run, each of which spent its counter."""
    return [event for _, event in sorted(world.wire_log.items()) if event.to != "MD"]


def addressed_connection(recipient, inner):
    """The connection of ``recipient`` whose key id ``inner`` starts with."""
    return next(c for c in recipient.connections.values() if c.local.kid == inner[: crypto.KEY_ID_LEN])


def authenticated_plain(recipient, inner):
    """The plaintext of a delivered inner layer, as the connection it names opens it."""
    named = addressed_connection(recipient, inner)
    return open_layer(named.receive_key, inner)


def test_replay_step_spends_no_endpoint_crypto(monkeypatch):
    # a byte-exact copy is a replay before decryption, at whichever hop it is replayed: the mediator opens none of
    # the 16 replayed sender-to-mediator envelopes, and no agent any of the 16 replayed inner layers
    spec = builtin_scenario("replay-attack")
    world, cast = build_world(spec)
    for step in spec.script[:-1]:
        assert execute_step(world, cast, spec, step) == step.expect
    mark = len(world.trace)
    unseals = count_calls(monkeypatch, simnet, "unseal_at_mediator")
    opens = count_calls(monkeypatch, messages, "open_inner")
    assert execute_step(world, cast, spec, spec.script[-1]) == "all-rejected"
    assert (len(unseals), len(opens)) == (0, 0)
    verdicts = collections.Counter(r["verdict"] for r in world.trace[mark:] if r["channel"] == "ssi")
    assert verdicts == {"dead-letter:replay": 16, "rejected:replay": 16}


def test_replayed_spoof_is_checked_again(monkeypatch):
    # a rejected message consumed no pair, so its copy runs the full path and keeps its verdict
    result = fresh_lifecycle()
    world, mf, b2 = result.world, result.cast["MF"], result.cast["B2"]
    world.spoof("MF", b2.did, payload("PINReq", tid=mint_tid(world.rng)), b2.did)
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == ("MF", "rejected:bad-signature")
    opens = count_calls(monkeypatch, messages, "open_inner")
    world.replay(world.trace[-1]["seq"])
    world.run_until_quiescent()
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == ("MF", "rejected:bad-signature")
    assert len(opens) == 1


def test_reencrypted_message_of_a_closed_exchange_is_judged_as_new(monkeypatch):
    # the connection's peer encrypts a delivered (nonce, payload) again under its next counter: only it holds that
    # send key, and it could send the same request under a fresh nonce anyway, so the message is new. A response
    # still needs an open thread, and the exchange it answered is closed; a request runs its handler again
    result = fresh_lifecycle()
    world = result.world
    deliveries = consumed_deliveries(world)
    start = len(world.trace)
    opens = count_calls(monkeypatch, messages, "open_inner")
    again, requests = [], []
    for event in deliveries:
        recipient = world.agents[event.to]
        sender = world.agents[addressed_connection(recipient, event.body).remote_agent_id]
        mark = len(world.trace)
        send_plain(world, sender, recipient, authenticated_plain(recipient, event.body), event.kind)
        record = next(r for r in world.trace[mark:] if r["to"] == event.to)
        again.append(record)
        if event.kind in REPLY_KINDS:
            # the proof's exchange is open again, since its transfer request was handled again under the same
            # nonce, but the proof answers the old challenge: the presentation's check reads nonce-mismatch
            assert record["verdict"] == "rejected:nonce-mismatch", event.kind
        else:
            requests.append((event.kind, record["verdict"]))
    assert len(deliveries) == 16
    assert requests == [
        ("ownershipClaimReq", "rejected:unknown-claim"),  # the new claim was settled
        ("PINReq", "accepted"),
        ("ownershipTransferReq", "accepted"),
        ("usedClaimReq", "rejected:unknown-tid"),  # the used claim was settled
        ("revokeVC", "accepted"),
    ]
    # each message opened once and none was a replay; no answer to a message handled again closes an exchange, and
    # each refused one (the two settled claims, and the proof) is answered by a problemReport, which reads its reason
    arrived = [r for r in world.trace[start:] if r["channel"] == "ssi" and r["to"] != "MD"]
    assert len(opens) == len(arrived) and all(r["verdict"] != "rejected:replay" for r in arrived)
    answers = [(r["kind"], r["verdict"]) for r in arrived if r not in again]
    assert answers == [
        ("problemReport", "rejected:unknown-claim"),
        ("PINResp", "rejected:nonce-mismatch"),
        ("ownershipProofReq", "rejected:nonce-mismatch"),
        ("problemReport", "rejected:nonce-mismatch"),  # the proof's: its presentation answers the old challenge
        ("problemReport", "rejected:unknown-tid"),
        ("revokeVCResp", "rejected:nonce-mismatch"),
    ]


def test_every_delivery_reflected_to_its_sender_fails_the_tag():
    # each direction of a connection has its own key: an inner layer encrypted again under
    # the key that made it and sent back to its sender on the same connection fails there
    result = fresh_lifecycle()
    world = result.world
    deliveries = consumed_deliveries(world)
    for event in deliveries:
        recipient = world.agents[event.to]
        named = addressed_connection(recipient, event.body)
        sender = world.agents[named.remote_agent_id]
        plain = authenticated_plain(recipient, event.body)
        counter = sender.connections[recipient.did].received + 1  # past the sender's replay check
        inner = layer(named.remote_kid, named.receive_key, plain, counter)
        send_inner(world, sender, inner, event.kind)
        assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (sender.agent_id, "rejected:bad-signature")
    assert len(deliveries) == 16


@pytest.mark.parametrize("name", ["fleet", "workload:attack"])
def test_no_key_and_counter_pair_repeats(name, monkeypatch):
    # AES-GCM loses both secrecy and integrity if one key sees one IV twice, and the IV is the counter: each
    # direction key encrypts its side's messages on a connection under counters 1, 2, ..., each route key its
    # sender's envelopes under 1, 2, ..., a spoof's key, fresh per spoof, one message under 2**64 - 1, and a
    # PIN's key, fresh per PIN, that PIN under 0
    used, directions, sealed = collections.Counter(), set(), []
    encrypt, agree, seal = crypto.sym_encrypt, crypto.channel_keys, messages.seal

    def recording(key, counter, plaintext, associated_data):
        used[key.key_bytes, counter] += 1
        return encrypt(key, counter, plaintext, associated_data)

    def agreeing(local, peer_public_key):
        pair = agree(local, peer_public_key)
        directions.update(key.key_bytes for key in pair)
        return pair

    def sealing(*args):
        sealed.append(args[3][0])  # the route id
        return seal(*args)

    monkeypatch.setattr(crypto, "sym_encrypt", recording)
    monkeypatch.setattr(crypto, "channel_keys", agreeing)
    for holder in ("handover.agents.seal", "handover.simnet.seal"):
        monkeypatch.setattr(holder, sealing)
    hybrid = count_calls(monkeypatch, crypto, "asym_encrypt")  # the one other AES-GCM encryption, called by nothing
    result = run_scenario(fleet_spec(16, seed=1) if name == "fleet" else spec_of(name))
    assert result.ok and hybrid == []
    assert set(used.values()) == {1}
    counters = collections.defaultdict(list)
    for key, counter in used:
        counters[key].append(counter)
    routes = {key.key_bytes for key in result.world.mediator.route_keys.values()}
    spoofs = {key for key, seen in counters.items() if seen == [2**64 - 1]}
    pins = {key for key, seen in counters.items() if seen == [0]}
    assert len(spoofs) == sum(r["to"] == "MD" and r["meta"].get("injected") == "spoof" for r in result.world.trace)
    assert len(pins) == sum(r["kind"] == "secret-minted" for r in result.world.trace) > 0
    assert set(counters) <= routes | directions | spoofs | pins  # every key used is of one kind
    for key in (routes | directions) & set(counters):
        assert sorted(counters[key]) == list(range(1, len(counters[key]) + 1))
    assert len(used) == 2 * len(sealed) + len(pins)  # an inner and an outer layer per envelope, and one per PIN
    assert sum(len(counters[key]) for key in routes) == len(sealed)
    if name == "fleet":
        assert max(collections.Counter(sealed).values()) > 16  # MF seals to every wallet under its one route key


def test_a_transport_draw_moves_no_ledger_line(monkeypatch):
    # protocol values (DID keys, connection ids, PINs, TIDs, nonces, challenges, PIN keys) come from the world's
    # protocol stream and every X25519 pair from its transport stream, so a change to how a sender enrolls, here
    # one more key pair drawn per enrollment, moves wire bytes but no ledger line and no step verdict
    spec = load_bench_workloads().scenario("fleet", 1)
    before = run_scenario(spec)
    route = simnet.World.route

    def drawing_more(world, sender):
        if sender not in world._routes:
            crypto.generate_keypair(world.transport_rng)
        return route(world, sender)

    monkeypatch.setattr(simnet.World, "route", drawing_more)
    after = run_scenario(spec)
    assert before.ok and after.ok
    assert after.world.registry.entries == before.world.registry.entries
    assert [step.verdict for step in after.steps] == [step.verdict for step in before.steps]
    assert after.trace_lines() != before.trace_lines()


@pytest.fixture(scope="module")
def settled():
    """A completed full lifecycle whose connected agents receive arbitrary inner layers."""
    return fresh_lifecycle()


NOT_A_FIELD = st.one_of(st.binary(max_size=40), st.integers())  # no field type admits these alone


@st.composite
def arbitrary_inner(draw, recipient):
    """Random bytes, random bytes behind one of ``recipient``'s key ids, or a plaintext authenticated under the
    send key of one of its peers: arbitrary bytes, or an inner layer holding arbitrary or mistyped payload bytes."""
    form = draw(st.sampled_from(("random", "key-id", "authenticated")))
    if form == "random":
        return draw(st.binary(max_size=300))
    conn = draw(st.sampled_from(sorted(recipient.connections.values(), key=lambda c: c.conn_id)))
    if form == "key-id":
        return conn.local.kid + draw(st.binary(max_size=300))
    kinds, fields = st.sampled_from(sorted(KIND_FIELDS)), st.lists(NOT_A_FIELD, max_size=8)
    payload_bytes = st.one_of(st.binary(max_size=200), st.builds(lambda kind, rest: encode([kind, *rest]), kinds, fields))
    nonces = st.binary(min_size=16, max_size=16)
    layers = st.builds(inner_plain, nonces, payload_bytes)
    plain = draw(st.one_of(st.binary(max_size=300), layers))
    counter = draw(st.integers(0, 2**64 - 1))
    return layer(conn.local.kid, conn.receive_key, plain, counter)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_arbitrary_ssi_bytes_are_rejected_without_raising(settled, data):
    # no input on the SSI channel raises out of deliver or changes the recipient's state; an acknowledgement has no
    # field, so one can decode, and as a reply to no open exchange it spends only its counter
    recipient = data.draw(st.sampled_from([settled.cast[name] for name in ("MF", "B1", "B2")]))
    body = data.draw(arbitrary_inner(recipient))
    before = recipient.state_dump()
    event = DeliveryEvent(0, 0, frm="MD", to=recipient.agent_id, channel=CHANNEL_SSI, body=body, kind="x")
    verdict = recipient.deliver(event)
    assert verdict.startswith("rejected:")
    after = recipient.state_dump()
    if verdict == "rejected:nonce-mismatch":
        conn = addressed_connection(recipient, body)
        assert after["connections"][conn.remote_did].pop("received") == layer_counter(body)
        conn.received = before["connections"][conn.remote_did].pop("received")  # the shared run stays as it was
    assert after == before


@pytest.mark.parametrize("position", [crypto.KEY_ID_LEN, -1], ids=["after-key-id", "last-byte"])
def test_replayed_copy_with_a_flipped_byte_is_a_decrypt_error(position):
    # a copy that keeps the key id is checked by its counter: the byte after the key id raises
    # the counter past the replay check, and the copy fails to authenticate under the named
    # connection's receive key (the test's name predates the AEAD inner layer); a flip after the
    # counter (here the GCM tag's last byte) leaves a counter already spent, so it is a replay
    expected = "rejected:bad-signature" if position == crypto.KEY_ID_LEN else "rejected:replay"
    result = fresh_lifecycle()
    world = result.world
    for event in consumed_deliveries(world):
        world.tamper(event.seq, position, 0x01)
        world.run_until_quiescent()
        assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (event.to, expected)


def test_every_inner_byte_flipped_is_refused_by_key_id_or_authentication():
    # a flip in the key id names no connection; a flip that raises the counter above the last one accepted fails
    # AES-GCM under the named connection's key, and any other flip leaves a spent counter: a replay
    result = fresh_lifecycle()
    world = result.world
    deliveries = consumed_deliveries(world)
    for event in deliveries:
        recipient = world.agents[event.to]
        received = addressed_connection(recipient, event.body).received
        before = recipient.state_dump()
        for index in range(len(event.body)):
            world.tamper(event.seq, index, 0x01)
            world.run_until_quiescent()
            if index < crypto.KEY_ID_LEN:
                expected = "rejected:decrypt-error"
            elif layer_counter(flipped(event.body, index)) > received:
                expected = "rejected:bad-signature"
            else:
                expected = "rejected:replay"
            assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (event.to, expected)
        assert recipient.state_dump() == before
    assert len(deliveries) == 16


def test_transfer_step_verdict_comes_from_deciding_wallet():
    # after the resale B1's credential is revoked: the wallet, not MF, rejects the proof request
    transfer = {"op": "transfer", "seller": "B1", "product": "PC-100", "expect": "-"}
    _, _, verdicts, _ = lifecycle_with_lost_revoke_notice(transfer)
    assert verdicts[-1] == "rejected:no-matching-credential"


MALFORMED_INNER = {
    # shorter than a nonce: the layer authenticated, only its framing is bad
    "zero-denominator": (b"Q" + encode_value(1) + encode_value(0), "malformed-payload"),
    "not-a-list": (b"N", "malformed-payload"),
    "empty": (b"", "malformed-payload"),
    "one-short-of-a-nonce": (b"\x00" * 15, "malformed-payload"),
    # a nonce, then bytes that are no payload: the labelled layouts framed nonce and payload by the codec
    "none-nonce": (b"L\x00\x00\x00\x03S\x00\x00\x00\x05innerNB\x00\x00\x00\x00", "malformed-payload"),
    "old-five-field": (encode(["inner", "did:handover:x", b"\x00" * 16, b"", b""]), "malformed-payload"),
    "old-four-field": (encode(["inner", b"\x00" * 16, b"", b"\x00" * 32]), "malformed-payload"),
    "nonce-only": (b"\x00" * 16, "malformed-payload"),
}


@pytest.mark.parametrize("plain, reason", MALFORMED_INNER.values(), ids=MALFORMED_INNER.keys())
def test_malformed_inner_layer_rejected(plain, reason):
    # B1 encrypts it under its send key on its connection with MF, so only the layer's form can refuse it
    world, cast = run_sale_and_claim()
    send_plain(world, cast["B1"], cast["MF"], plain, "PINReq")
    last_two = [(r["to"], r["verdict"]) for r in world.trace[-2:]]
    assert last_two == [("MD", "forwarded"), ("MF", f"rejected:{reason}")]


def _deliver_from_b1(settled, plain):
    """MF's verdict on ``plain`` authenticated under B1's send key, delivered straight from the mediator."""
    mf, b1 = settled.cast["MF"], settled.cast["B1"]
    conn = b1.connections[mf.did]
    body = layer(conn.remote_kid, conn.send_key, plain, conn.sent + 1)
    return mf.deliver(DeliveryEvent(0, 0, frm="MD", to="MF", channel=CHANNEL_SSI, body=body, kind="x"))


@given(plain=st.binary(max_size=crypto.NONCE_LEN - 1))
@settings(max_examples=40, deadline=None)
def test_authenticated_inner_plaintext_shorter_than_a_nonce_is_malformed(settled, plain):
    # decrypt-error means only that no connection has the key id
    assert _deliver_from_b1(settled, plain) == "rejected:malformed-payload"


def _is_payload(data):
    try:
        messages.decode_payload(data)
    except messages.PayloadError:
        return False
    return True


@given(nonce=st.binary(min_size=16, max_size=16), tail=st.binary(max_size=200).filter(lambda t: not _is_payload(t)))
@settings(max_examples=60, deadline=None)
def test_authenticated_inner_plaintext_whose_tail_is_no_payload_is_malformed(settled, nonce, tail):
    assert _deliver_from_b1(settled, inner_plain(nonce, tail)) == "rejected:malformed-payload"


def _vc_wire(cast, attributes=None):
    vc = cast["B1"].credentials["PC-100"]
    if attributes is None:
        return vc_to_wire(vc)
    return [vc_signed(vc.credential_id, vc.cred_def_id, attributes), vc.issuer_signature]


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
    # a connected peer encrypts, under its own connection's send key, a payload of the right kind and the wrong shape
    world, cast = run_sale_and_claim()
    send_as(world, cast[sender], cast[recipient], encode(fields(cast)), fields(cast)[0])
    assert (world.trace[-1]["to"], world.trace[-1]["verdict"]) == (recipient, "rejected:malformed-payload")


def test_email_eavesdropper_boundary():
    # possession model: pin alone and tid alone fail; both plus a connection succeed
    world, cast = make_world(wallets=("B1", "EVE"))
    sell_to(world, cast)
    stolen = {r["kind"]: r["meta"]["fields"] for r in world.trace if r["channel"] == "oob-email"}
    eve = cast["EVE"]
    establish_connection(eve, cast["MF"])
    eve.claim_new(cast["MF"].did, stolen["tid"]["tid"], "AAAAAA")
    world.run_until_quiescent()
    assert eve.credentials == {}
    eve.claim_new(cast["MF"].did, "00" * 16, stolen["pin"]["pin"])
    world.run_until_quiescent()
    assert eve.credentials == {}
    # both secrets and a live connection: the claim succeeds (possession is ownership)
    eve.claim_new(cast["MF"].did, stolen["tid"]["tid"], stolen["pin"]["pin"])
    world.run_until_quiescent()
    assert len(eve.credentials) == 1


def test_adversary_transfer_refuses_an_unknown_forgery_mode():
    world, cast = make_world(wallets=())
    eve = AdversaryWallet("EVE", world)
    establish_connection(eve, cast["MF"])
    world.run_until_quiescent()
    mark = len(world.trace)
    with pytest.raises(AgentActionError):
        eve.craft_transfer_request(cast["MF"].did, "PC-100", "selfissued")
    world.run_until_quiescent()
    assert world.trace[mark:] == []
