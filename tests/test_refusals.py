"""The one refusal rule: an authenticated, decoded message that an agent refuses gets exactly one ``problemReport``
back, under its own nonce and carrying the refusal's reason; transport rejects, unsolicited replies and
problemReports get nothing, and a problemReport reads its reason whether or not it closes a thread.  Each case
below drives one refusal path of one handler."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover import crypto
from handover.agents import ClaimantAttribute, ManufacturerAgent, OwnershipClaimingData, WalletAgent
from handover.credential import PRODUCT_ATTRIBUTE_NAMES, present_proof
from handover.encoding import encode
from handover.messages import mint_tid, payload, reply_to

from conftest import fresh_lifecycle, inner_plain, send_as, send_plain

KEY = bytes(range(32))
PIN = "AAAAAA"
ANSWER = Fraction(int(PIN, 36) + 1234)  # the PIN's value + 1234, the challenge below


@dataclasses.dataclass(frozen=True)
class Case:
    """``requester`` sends a ``kind`` message to ``responder``, whose handler refuses it with ``reason``.  ``setup``
    readies the world after a full lifecycle (B2 holds PC-100, B1 sold it) and returns the message, the reply kind
    whose thread the requester opens (None: the message ends its exchange) and the context of the responder's
    thread that the message continues (None: it is a request)."""

    requester: str
    responder: str
    kind: str
    reason: str
    setup: object


def _pending_used_claim(cast, key=KEY):
    """A used claim of product PC-999 (not in the catalog) whose encrypted PIN ``key`` opens; returns its TID."""
    tid = mint_tid(cast["MF"].rng)
    encrypted_pin = crypto.sym_encrypt(crypto.SymmetricKey(key), 0, PIN.encode(), b"")
    cast["MF"].claimants["PC-999"] = ClaimantAttribute("PC-999", tid, encrypted_pin=encrypted_pin)
    return tid


def _new_claim_of_a_missing_product(cast):
    tid = mint_tid(cast["MF"].rng)
    cast["MF"].claimants["PC-999"] = ClaimantAttribute("PC-999", tid, pin=PIN)
    return payload("ownershipClaimReq", tid=tid, pin=PIN, key=None), "ownershipClaimResp", None


def _used_claim_with_a_short_key(cast):
    tid = _pending_used_claim(cast)
    return payload("ownershipClaimReq", tid=tid, pin=None, key=b"\x00" * 5), "pinChallengeReq", None


def _transfer(code):
    def setup(cast):
        request = payload("ownershipTransferReq", productCode=code, encryptedPin=b"\x01" * 38, tid=mint_tid(cast["MF"].rng))
        return request, "ownershipProofReq", None

    return setup


def _transfer_while_one_is_pending(cast):
    cast["MF"].claimants["PC-100"] = ClaimantAttribute("PC-100", mint_tid(cast["MF"].rng), encrypted_pin=b"\x01" * 38)
    return _transfer("PC-100")(cast)


def _transfer_of_an_unsold_product(cast):
    cast["MF"].add_product("PC-200")
    return _transfer("PC-200")(cast)


def _proof_signed_by_another_holder(cast):
    challenge, tid = crypto.fresh_nonce(cast["MF"].rng), mint_tid(cast["MF"].rng)
    context = {"productCode": "PC-100", "tid": tid, "encryptedPin": b"\x01" * 38, "challenge": challenge}
    presentation = present_proof(cast["B2"].credentials["PC-100"], challenge, cast["B1"].did_key)
    return payload("ownershipProofResp", presentation=presentation), "ownershipTransferResp", context


def _challenge_answer(tid_of_answer=None, key=KEY, result=ANSWER):
    def setup(cast):
        tid = _pending_used_claim(cast)
        answer = payload("pinChallengeResp", tid=tid_of_answer or tid, challengeResult=result)
        return answer, "ownershipClaimResp", {"tid": tid, "key": crypto.SymmetricKey(key), "challenge": (1234, "+")}

    return setup


def _pin_request_for_a_held_tid(cast):
    tid = mint_tid(cast["B2"].rng)
    cast["B2"].claiming[tid] = OwnershipClaimingData(PIN, crypto.SymmetricKey(KEY))
    return payload("PINReq", tid=tid), "PINResp", None


def _pin_reply_with_another_tid(cast):
    context = {"tid": mint_tid(cast["B1"].rng), "productCode": "PC-100"}
    return payload("PINResp", encryptedPin=b"\x01" * 38, tid=mint_tid(cast["B1"].rng)), None, context


def _proof_request_for_a_product_not_held(cast):
    request = payload("ownershipProofReq", attributes=list(PRODUCT_ATTRIBUTE_NAMES), challenge=b"\x04" * 16)
    return request, "ownershipProofResp", {"productCode": "PC-200"}


def _challenge_for_an_unknown_tid(cast):
    challenge = payload("pinChallengeReq", tid=mint_tid(cast["MF"].rng), challengeBy=1234, challengeType="+")
    return challenge, "pinChallengeResp", {}


def _offer_with_a_broken_issuer_signature(cast):
    vc = cast["B2"].credentials["PC-100"]
    broken = dataclasses.replace(vc, issuer_signature=bytes(len(vc.issuer_signature)))
    return payload("ownershipClaimResp", credential=broken), "ownershipClaimAck", {}


def _claim(pin, key, reply_kind):
    return lambda cast: (payload("ownershipClaimReq", tid=mint_tid(cast["MF"].rng), pin=pin, key=key), reply_kind, None)


CASES = [
    Case("B2", "MF", "ownershipClaimReq", "unknown-claim", _claim(PIN, None, "ownershipClaimResp")),
    Case("B2", "MF", "ownershipClaimReq", "unknown-product", _new_claim_of_a_missing_product),
    Case("B2", "MF", "ownershipClaimReq", "unknown-tid", _claim(None, KEY, "pinChallengeReq")),
    Case("B2", "MF", "ownershipClaimReq", "bad-key", _used_claim_with_a_short_key),
    Case("B2", "MF", "ownershipTransferReq", "duplicate-transfer", _transfer_while_one_is_pending),
    Case("B2", "MF", "ownershipTransferReq", "unknown-product", _transfer("PC-999")),
    Case("B2", "MF", "ownershipTransferReq", "not-transferable", _transfer_of_an_unsold_product),
    Case("B2", "MF", "ownershipProofResp", "bad-holder-sig", _proof_signed_by_another_holder),
    Case("B2", "MF", "pinChallengeResp", "unknown-tid", _challenge_answer(tid_of_answer="ff" * 16)),
    Case("B2", "MF", "pinChallengeResp", "pin-decrypt", _challenge_answer(key=bytes(32))),
    Case("B2", "MF", "pinChallengeResp", "challenge-mismatch", _challenge_answer(result=ANSWER + 1)),
    Case("B1", "B2", "PINReq", "duplicate-tid", _pin_request_for_a_held_tid),
    Case("B2", "B1", "PINResp", "tid-mismatch", _pin_reply_with_another_tid),
    Case("MF", "B2", "ownershipProofReq", "no-matching-credential", _proof_request_for_a_product_not_held),
    Case("MF", "B2", "pinChallengeReq", "unknown-tid", _challenge_for_an_unknown_tid),
    Case("MF", "B2", "ownershipClaimResp", "bad-issuer-sig", _offer_with_a_broken_issuer_signature),
]
# handled kinds whose handler has no refusal path: acknowledgements and the revocation notice
NEVER_REFUSED = {
    ManufacturerAgent: {"ownershipClaimAck", "revokeVCResp"},
    WalletAgent: {"ownershipTransferResp", "revokeVC"},
}


def test_the_table_walks_every_handled_kind():
    walked = {ManufacturerAgent: set(), WalletAgent: set()}
    for case in CASES:
        walked[ManufacturerAgent if case.responder == "MF" else WalletAgent].add(case.kind)
    for agent_class, never_refused in NEVER_REFUSED.items():
        assert walked[agent_class] | never_refused == set(agent_class.HANDLERS)
        assert not walked[agent_class] & never_refused


def deliveries_since(world, mark):
    """(recipient, kind, verdict) of each delivery to an agent since trace index ``mark``."""
    return [(r["to"], r["kind"], r["verdict"]) for r in world.trace[mark:] if r["channel"] == "ssi" and r["to"] != "MD"]


@pytest.mark.parametrize("case", CASES, ids=[f"{case.kind}-{case.reason}" for case in CASES])
def test_each_refusal_is_answered_once_with_its_reason(case, monkeypatch):
    result = fresh_lifecycle()
    world, cast = result.world, result.cast
    requester, responder = cast[case.requester], cast[case.responder]
    message, reply_kind, context = case.setup(cast)
    conn, nonce = requester.connections[responder.did], crypto.fresh_nonce(world.rng)
    if context is not None:  # the message continues an exchange the responder opened
        responder.connections[requester.did].threads[nonce] = (case.kind, context)
    sent, send = [], responder.send
    monkeypatch.setattr(responder, "send", lambda c, n, p, ctx=None: (sent.append((n, p)), send(c, n, p, ctx))[1])
    mark = len(world.trace)
    assert reply_to(message) == reply_kind
    requester.send(conn, nonce, message)  # opens the requester's thread of the reply, if the message awaits one
    world.run_until_quiescent()
    assert sent == [(nonce, payload("problemReport", reason=case.reason))]  # exactly one answer, under the nonce
    # the report closes the requester's thread, if any, and its verdict repeats the reason either way: a message
    # that ended its exchange left its sender no thread, and its sender still learns why it was refused
    assert deliveries_since(world, mark) == [
        (responder.agent_id, case.kind, f"rejected:{case.reason}"),
        (requester.agent_id, "problemReport", f"rejected:{case.reason}"),
    ]
    assert conn.threads == {} and responder.connections[requester.did].threads == {}


def test_the_https_refusal_is_the_same_payload():
    result = fresh_lifecycle()
    world, ds = result.world, result.cast["DS"]
    for code, reason in (("PC-999", "unknown-product"), ("PC-100", "already-sold")):
        mark = len(world.trace)
        ds.record_sale("MF", code, result.cast["B1"].email)
        world.run_until_quiescent()
        https = [(r["to"], r["kind"], r["verdict"]) for r in world.trace[mark:] if r["channel"] == "https"]
        refused = f"rejected:{reason}"
        assert https == [("MF", "productSellingReq", refused), ("DS", "problemReport", refused)]
        assert ds.links["MF"].threads == {}


def test_the_https_leg_answers_a_refused_request_and_never_a_reply(monkeypatch):
    # the connection's rule on the manufacturer's https leg: a kind it does not handle over https gets one
    # problemReport under its nonce, which the distributor reads as its reason and does not answer; a reply kind,
    # a selling response included, answers no exchange the manufacturer opened, so it gets nothing back, and
    # neither does a problemReport
    world = fresh_lifecycle().world
    sent, send = [], world.send_direct
    monkeypatch.setattr(world, "send_direct", lambda *args: (sent.append(args), send(*args))[1])
    cases = (
        (payload("PINReq", tid=mint_tid(world.rng)), "rejected:unexpected-kind", "unexpected-kind"),
        (payload("productSellingResp", tid=mint_tid(world.rng)), "rejected:nonce-mismatch", None),
        (payload("problemReport", reason="unknown-tid"), "rejected:unknown-tid", None),
        (payload("ownershipClaimAck"), "rejected:nonce-mismatch", None),
    )
    for message, verdict, reason in cases:
        mark, nonce = len(world.trace), crypto.fresh_nonce(world.rng)
        sent.clear()
        world.send_direct("DS", "MF", nonce, message)
        world.run_until_quiescent()
        https = [(r["to"], r["kind"], r["verdict"]) for r in world.trace[mark:] if r["channel"] == "https"]
        if reason is None:
            assert https == [("MF", message.kind, verdict)] and len(sent) == 1
        else:
            assert https == [("MF", message.kind, verdict), ("DS", "problemReport", verdict)]
            assert sent[1] == ("MF", "DS", nonce, payload("problemReport", reason=reason))


@pytest.mark.parametrize("leg", ["connection", "https"])
def test_a_kind_of_the_other_transport_is_refused_as_unexpected(leg):
    # a sale over a connection would let a wallet record one and be emailed the PIN, and a connection kind's
    # handler cannot take an https link: each transport dispatches only to its own handler table
    result = fresh_lifecycle()
    world, mf, b2, ds = result.world, result.cast["MF"], result.cast["B2"], result.cast["DS"]
    mf.add_product("PC-200")
    before, nonce = mf.state_dump(), crypto.fresh_nonce(world.rng)
    if leg == "connection":  # a sale of an unsold product, which the https leg would accept
        requester, conn = b2, b2.connections[mf.did]
        message = payload("productSellingReq", **{**mf.products["PC-200"].to_attributes(), "email": b2.email})
    else:
        requester, conn = ds, ds.link("MF")
        message = payload("ownershipClaimReq", tid=mint_tid(world.rng), pin=PIN, key=None)
    mark = len(world.trace)
    requester.send(conn, nonce, message)  # opens the requester's thread of the reply
    world.run_until_quiescent()
    delivered = [(r["to"], r["kind"], r["verdict"]) for r in world.trace[mark:] if r["to"] not in ("MD", "-")]
    assert delivered == [
        ("MF", message.kind, "rejected:unexpected-kind"),
        (requester.agent_id, "problemReport", "rejected:unexpected-kind"),
    ]
    assert conn.threads == {}
    after = mf.state_dump()
    assert after["products"] == before["products"] and after["claimants"] == before["claimants"]


@pytest.fixture
def settled():
    result = fresh_lifecycle()
    return result.world, result.cast["MF"], result.cast["B2"]


def test_nothing_answers_a_transport_reject_an_unsolicited_reply_or_a_problem_report(settled):
    world, mf, b2 = settled
    conn = b2.connections[mf.did]
    delivered = next(r for r in reversed(world.trace) if r["to"] == "MF" and r["channel"] == "ssi")
    injections = {
        "replay": lambda: world.replay(delivered["seq"]),
        "bad-signature": lambda: world.spoof("MF", b2.did, payload("PINReq", tid=mint_tid(world.rng)), b2.did),
        "decrypt-error": lambda: world.spoof("MF", b2.did, payload("PINReq", tid=mint_tid(world.rng)), None),
        "malformed-payload": lambda: send_as(world, b2, mf, encode(["problemReport", "Not-A-Reason"]), "x"),
        "nonce-mismatch": lambda: b2.send(conn, crypto.fresh_nonce(world.rng), payload("ownershipClaimAck")),
    }
    for reason, inject in injections.items():
        mark, sent = len(world.trace), mf.connections[b2.did].sent
        inject()
        world.run_until_quiescent()
        assert [(to, verdict) for to, _, verdict in deliveries_since(world, mark)] == [("MF", f"rejected:{reason}")]
        assert mf.connections[b2.did].sent == sent
    # a problemReport closes the thread of its nonce, whatever its kind, and is not answered either; one under no
    # open thread still reads its reason
    nonce, sent = crypto.fresh_nonce(world.rng), mf.connections[b2.did].sent
    mf.connections[b2.did].threads[nonce] = ("pinChallengeResp", {})
    for reason in ("unknown-tid", "bad-key"):
        mark = len(world.trace)
        b2.send(conn, nonce, payload("problemReport", reason=reason))
        world.run_until_quiescent()
        assert deliveries_since(world, mark) == [("MF", "problemReport", f"rejected:{reason}")]
        assert mf.connections[b2.did].threads == {} and mf.connections[b2.did].sent == sent


@pytest.fixture(scope="module")
def peer():
    """A full lifecycle's MF and B2, whose connection carries the problemReports of the properties below."""
    result = fresh_lifecycle()
    return result.world, result.cast["MF"], result.cast["B2"]


REASONS = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=32)


@given(data=st.data(), reason=REASONS)
@settings(max_examples=100, deadline=None)
def test_a_problem_report_closes_at_most_the_thread_of_its_nonce(peer, data, reason):
    world, mf, b2 = peer
    conn = mf.connections[b2.did]
    opened = [crypto.fresh_nonce(world.rng) for _ in range(3)]
    for nonce, kind in zip(opened, ("pinChallengeResp", "ownershipProofResp", "ownershipClaimAck")):
        conn.threads[nonce] = (kind, {})
    nonce = data.draw(st.sampled_from(opened) | st.binary(min_size=16, max_size=16))
    before, sent, mark = dict(conn.threads), conn.sent, len(world.trace)
    b2.send(b2.connections[mf.did], nonce, payload("problemReport", reason=reason))
    world.run_until_quiescent()
    # closing a thread or not, the report reads its reason
    assert deliveries_since(world, mark) == [("MF", "problemReport", f"rejected:{reason}")]
    assert conn.threads == {n: thread for n, thread in before.items() if n != nonce}
    assert conn.sent == sent  # unanswered


def outside_the_alphabet(reason):
    return not (0 < len(reason) <= 32 and set(reason) <= set("abcdefghijklmnopqrstuvwxyz-"))


@given(reason=st.text(max_size=40).filter(outside_the_alphabet))
@settings(max_examples=100, deadline=None)
def test_a_reason_outside_the_alphabet_is_a_malformed_payload(peer, reason):
    world, mf, b2 = peer
    nonce = crypto.fresh_nonce(world.rng)
    mf.connections[b2.did].threads[nonce] = ("pinChallengeResp", {})
    mark = len(world.trace)
    send_plain(world, b2, mf, inner_plain(nonce, encode(["problemReport", reason])), "problemReport")
    assert deliveries_since(world, mark) == [("MF", "problemReport", "rejected:malformed-payload")]
    assert nonce in mf.connections[b2.did].threads
