import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover import agents, crypto, simnet
from handover.agents import WalletAgent, establish_connection
from handover.encoding import encode
from handover.invariants import scan_trace
from handover.messages import Envelope, mint_tid, payload, seal, unseal_at_mediator
from handover.scenarios import (
    BUILTIN_SCENARIOS,
    build_world,
    builtin_scenario,
    execute_step,
    parse_scenario,
    run_scenario,
    run_steps,
)
from handover.simnet import MAX_QUEUED, SimError, World

from conftest import fresh_lifecycle, outer_layer, outer_plain


def two_wallets(seed=7):
    world = World(seed)
    a = WalletAgent("A", world)
    b = WalletAgent("B", world)
    establish_connection(a, b)
    return world, a, b


def ping(world, a, b, tid=None):
    # the thread ``start_sell`` would open, so B's PINResp completes A's sale of PC-PING
    conn, nonce, tid = a.connections[b.did], crypto.fresh_nonce(world.rng), tid or mint_tid(world.rng)
    a.send(conn, nonce, payload("PINReq", tid=tid), {"tid": tid, "productCode": "PC-PING"})


def test_online_delivery_takes_two_hops():
    world, a, b = two_wallets()
    start = world.clock
    ping(world, a, b)
    world.run_until_quiescent()
    deliveries = [r for r in world.trace if r["to"] == "B" and r["kind"] == "PINReq"]
    assert len(deliveries) == 1
    assert deliveries[0]["tick"] == start + 2  # sender->mediator, mediator->endpoint


def test_a_message_to_an_online_recipient_is_never_queued(monkeypatch):
    # the mediator schedules an online recipient's message at once; only an offline recipient gets a queue
    after, handle = [], simnet.Mediator.handle

    def handled(self, world, event):
        verdict = handle(self, world, event)
        after.append((verdict, dict(self.queues)))
        return verdict

    monkeypatch.setattr(simnet.Mediator, "handle", handled)
    assert run_scenario(builtin_scenario("full-lifecycle")).ok
    assert len(after) == 16 and after == [("forwarded", {})] * 16


def test_the_mediator_holds_the_route_key_each_sender_seals_with(monkeypatch):
    # a sender enrolls by one agreement with the mediator's key, and the mediator keeps that agreement's send key
    # as it is: each outer layer is sealed under the very object the mediator holds under the sender's route id
    routes = []
    for module in (agents, simnet):  # each imports seal by name
        seal_ = module.seal
        monkeypatch.setattr(module, "seal", lambda *args, seal_=seal_: (routes.append(args[4]), seal_(*args))[1])
    result = run_scenario(builtin_scenario("spoof-attack"))
    assert result.ok
    held = result.world.mediator.route_keys
    assert len(held) == len({id(key) for key in held.values()}) == 4  # MF, B1, B2 and the spoofing stranger
    assert {route_id for route_id, _ in routes} == set(held)
    assert all(key is held[route_id] for route_id, key in routes)


def test_offline_queue_drains_fifo():
    world, a, b = two_wallets()
    world.set_online("B", False)
    tids = [mint_tid(world.rng) for _ in range(3)]
    for tid in tids:
        ping(world, a, b, tid)
    world.run_until_quiescent()
    assert [r["verdict"] for r in world.trace if r["to"] == "MD" and r["kind"] == "PINReq"] == ["queued"] * 3
    assert not any(r["to"] == "B" for r in world.trace if r["channel"] == "ssi")
    assert list(world.mediator.queues) == ["B"]
    world.set_online("B", True)
    world.run_until_quiescent()
    assert list(b.claiming) == tids  # FIFO per recipient
    assert world.mediator.queues == {}  # a drained queue is gone


def test_unknown_recipient_dead_letter():
    world, a, b = two_wallets()
    stranger = crypto.generate_keypair(world.rng)
    conn = a.connections[b.did]
    env = seal(
        world.rng,
        conn.send_key,
        1,
        stranger.kid,
        world.route("A"),
        "did:handover:nobody",
        crypto.fresh_nonce(world.rng),
        payload("PINReq", tid=mint_tid(world.rng)),
    )
    world.send_envelope("A", env, "PINReq")
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace if r["to"] == "MD"]
    assert verdicts == ["dead-letter"]


def test_empty_world_runs_to_quiescence():
    world = World(3)
    assert world.run_until_quiescent()
    assert world.trace == []


def test_max_ticks_timeout_report():
    world, a, b = two_wallets()
    world.max_ticks = 0
    ping(world, a, b)
    assert not world.run_until_quiescent()
    assert not world.run_until_quiescent()  # still over budget: no second record
    assert world.timed_out
    assert [r["kind"] for r in world.trace if r["channel"] == "control"][-1] == "timeout"
    assert sum(r["kind"] == "timeout" for r in world.trace) == 1
    assert not any(r["channel"] == "ssi" for r in world.trace)
    # the event was kept queued, not lost: a larger budget delivers it
    world.max_ticks = 10
    assert world.run_until_quiescent()
    assert len(b.claiming) == 1


def test_run_scenario_runs_no_step_after_timeout():
    spec = builtin_scenario("full-lifecycle")
    result = run_scenario(spec, max_ticks=5)
    kinds = [r["kind"] for r in result.world.trace if r["kind"] in ("timeout", "step")]
    # only the step that ran over the budget is recorded after the timeout
    assert kinds.count("timeout") == 1 and kinds[-2:] == ["timeout", "step"]
    assert len(result.steps) == kinds.count("step") < len(spec.script)
    assert not result.ok


def test_drop_suppresses_delivery():
    world, a, b = two_wallets()
    ping(world, a, b)
    seq = world._seq  # the just-scheduled submission
    world.drop(seq)
    world.run_until_quiescent()
    record = next(r for r in world.trace if r["seq"] == seq)
    assert record["verdict"] == "dropped"
    assert b.claiming == {}


def test_drop_preregistered_against_future_seq():
    spec = builtin_scenario("full-lifecycle")
    claim_steps = spec.script[:3]  # sale, connect B1-MF, new claim

    def drive(drop_seq=None):
        world, cast = build_world(spec)
        if drop_seq is not None:
            world.drop(drop_seq)
        for step in claim_steps:
            execute_step(world, cast, spec, step)
        return world, cast

    reference, _ = drive()
    offer_seq = next(
        seq for seq, ev in reference.wire_log.items() if ev.frm == "MF" and ev.kind == "ownershipClaimResp"
    )
    world, cast = drive(drop_seq=offer_seq)
    record = next(r for r in world.trace if r["seq"] == offer_seq)
    assert (record["from"], record["kind"], record["verdict"]) == ("MF", "ownershipClaimResp", "dropped")
    assert cast["B1"].credentials == {}


def test_drop_delivered_event_raises():
    world, a, b = two_wallets()
    ping(world, a, b)
    world.run_until_quiescent()
    with pytest.raises(SimError):
        world.drop(min(world.wire_log))


@pytest.mark.parametrize("attack", ["drop", "tamper"])
def test_drop_or_tamper_of_used_unqueued_seq_raises(attack):
    # seq 1 is the productSellingReq the sale step sent over https and delivered
    spec = builtin_scenario("full-lifecycle")
    world, cast = build_world(spec)
    execute_step(world, cast, spec, spec.script[0])
    assert world.trace[0]["seq"] == 1 and world.trace[0]["channel"] == "https"
    with pytest.raises(SimError):
        world.drop(1) if attack == "drop" else world.tamper(1, 3, 0xFF)


@pytest.mark.parametrize("attack", ["drop", "tamper"])
def test_drop_or_tamper_of_seq_taken_by_trace_record_raises_and_is_cleared(attack):
    # seq 1 becomes the connection-established record of the connect step, not an event
    spec = builtin_scenario("full-lifecycle")
    world, cast = build_world(spec)
    world.drop(1) if attack == "drop" else world.tamper(1, 3, 0xFF)
    connect = next(step for step in spec.script if step.op == "connect")
    with pytest.raises(SimError, match=r"seq \[1\]"):
        execute_step(world, cast, spec, connect)
    assert (world.trace[0]["seq"], world.trace[0]["kind"]) == (1, "connection-established")
    assert not world._drops and not world._tampers


def test_tamper_of_unsealed_event_raises_and_keeps_it_queued():
    spec = builtin_scenario("full-lifecycle")
    world, cast = build_world(spec)
    world.tamper(1, 3, 0xFF)  # pre-registered against the productSellingReq the sale will send over https
    cast["DS"].record_sale("MF", "PC-100", cast["B1"].email)
    with pytest.raises(SimError):
        world.run_until_quiescent()
    assert world.trace == []
    # the tamper is discarded and the event delivered untampered
    assert world.run_until_quiescent()
    record = world.trace[0]
    assert (record["seq"], record["kind"], record["verdict"]) == (1, "productSellingReq", "accepted")
    assert "tampered" not in record["meta"]


def test_tamper_in_flight_outer_layer():
    world, a, b = two_wallets()
    ping(world, a, b)
    seq = world._seq
    world.tamper(seq, 11, 0xFF)
    world.run_until_quiescent()
    record = next(r for r in world.trace if r["seq"] == seq)
    assert record["verdict"] == "dead-letter:unreadable"
    assert b.claiming == {}


def test_tamper_recorded_event_reinjects_rejected_copy():
    world, a, b = two_wallets()
    ping(world, a, b)
    world.run_until_quiescent()
    assert len(b.claiming) == 1
    delivery_seq = max(
        seq for seq, ev in world.wire_log.items() if ev.to == "B"
    )
    world.tamper(delivery_seq, 3, 0x7F)
    world.run_until_quiescent()
    injected = [r for r in world.trace if r.get("meta", {}).get("injected") == "tamper"]
    assert injected and injected[-1]["verdict"] == "rejected:decrypt-error"
    assert len(b.claiming) == 1  # no state change


def test_tamper_refuses_a_mask_that_changes_nothing():
    world, a, b = two_wallets()
    ping(world, a, b)
    for mask in (0, 256, -1):
        with pytest.raises(SimError, match="mask"):
            world.tamper(world._seq, 7, mask)
    assert not world._tampers


@pytest.mark.parametrize("seed", [21, 26])
def test_default_tamper_copy_is_never_a_replay(seed):
    # the default tamper XORs 0xA5 into byte 7, so a copy always differs from what was delivered, even where
    # that byte already holds 0xA5: at these seeds, setting the byte instead made some copies exact replays
    data = copy.deepcopy(BUILTIN_SCENARIOS["full-lifecycle"])
    data["script"].append({"op": "tamper", "seq": "all-ssi", "expect": "all-rejected"})
    result = run_scenario(parse_scenario(data), seed=seed)
    assert result.ok
    copies = [r for r in result.world.trace if r["meta"].get("injected") == "tamper"]
    assert len(copies) == 32
    originals = {seq: event.body for seq, event in result.world.wire_log.items()}
    for record in copies:
        tampered = result.world.wire_log[record["seq"]].body
        assert tampered != originals[record["meta"]["of"]]
        assert record["verdict"] != "rejected:replay"


def test_replay_rejected_at_endpoint():
    world, a, b = two_wallets()
    ping(world, a, b)
    world.run_until_quiescent()
    submission_seq = min(world.wire_log)
    world.replay(submission_seq)
    world.run_until_quiescent()
    injected = [r for r in world.trace if r.get("meta", {}).get("injected") == "replay" and r["to"] == "B"]
    assert injected and injected[-1]["verdict"] == "rejected:replay"
    assert len(b.claiming) == 1


def test_queued_message_keeps_the_meta_of_its_event():
    spec = builtin_scenario("new-purchase")
    world, cast = build_world(spec)
    for step in spec.script:
        execute_step(world, cast, spec, step)
    claim_seq = next(r["seq"] for r in world.trace if r["from"] == "B1" and r["kind"] == "ownershipClaimReq")
    world.set_online("MF", False)
    world.replay(claim_seq)
    world.run_until_quiescent()
    assert world.trace[-1]["verdict"] == "queued"
    world.set_online("MF", True)
    world.run_until_quiescent()
    forwarded = next(r for r in reversed(world.trace) if (r["from"], r["to"]) == ("MD", "MF"))
    assert forwarded["meta"]["injected"] == "replay"
    assert forwarded["meta"]["of"] == claim_seq
    assert forwarded["verdict"] == "rejected:replay"


def test_offline_queue_holds_at_most_max_queued_messages():
    # anyone can seal to the mediator's public key, so the queue of an offline agent must not grow at their will
    spec = builtin_scenario("new-purchase")
    world, cast = build_world(spec)
    for step in spec.script:
        execute_step(world, cast, spec, step)
    world.set_online("MF", False)
    mark = len(world.trace)
    for _ in range(MAX_QUEUED + 6):
        world.spoof("MF", cast["B1"].did, payload("revokeVCResp"), None)
    world.run_until_quiescent()
    verdicts = [r["verdict"] for r in world.trace[mark:] if r["to"] == "MD"]
    assert MAX_QUEUED == 64
    assert verdicts == ["queued"] * 64 + ["dead-letter:queue-full"] * 6
    assert len(world.mediator.queues["MF"]) == 64
    mark = len(world.trace)
    world.set_online("MF", True)
    world.run_until_quiescent()
    assert [r["verdict"] for r in world.trace[mark:] if r["to"] == "MF"] == ["rejected:decrypt-error"] * 64
    assert "MF" not in world.mediator.queues  # a drained queue is gone


MALFORMED_OUTER = {
    "not-a-list": b"N",  # one byte: shorter than the length prefix
    "none-inner": encode(["route", "did:handover:nobody", None]),  # the labelled layout: its first bytes overrun it
    "empty": b"",
    "length-overruns": outer_plain(b"did:handover:nobody", b"")[:-1],
    "did-not-utf8": outer_plain(b"did:handover:\xff", b"inner"),
}


@pytest.mark.parametrize("plain", MALFORMED_OUTER.values(), ids=MALFORMED_OUTER.keys())
def test_malformed_outer_layer_dead_lettered(plain):
    # anyone can enroll with the mediator, so anyone can make the mediator open this
    world, a, b = two_wallets()
    world.send_envelope("adversary", outer_layer(world, plain), "PINReq")
    world.run_until_quiescent()
    assert world.trace[-1]["verdict"] == "dead-letter:unreadable"


@given(
    did=st.binary(max_size=40),
    overrun=st.integers(1, 300),
    invalid=st.sampled_from([b"\xff", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80"]),  # invalid wherever they start
    tail=st.binary(max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_outer_plaintext_with_an_overrunning_length_or_a_non_utf8_did_is_unreadable_property(did, overrun, invalid, tail):
    world, a, b = two_wallets()
    plain = outer_plain(did, tail)
    too_long = (len(did) + len(tail) + overrun).to_bytes(2, "big") + plain[2:]
    not_utf8 = outer_plain(invalid + did, tail)
    for forged in (too_long, not_utf8):
        world.send_envelope("adversary", outer_layer(world, forged), "PINReq")
        world.run_until_quiescent()
        assert world.trace[-1]["verdict"] == "dead-letter:unreadable"


def test_each_sender_enrolls_once_on_its_first_send_and_no_record_says_so():
    # building a world and connecting enroll no one
    assert build_world(builtin_scenario("full-lifecycle"))[0].mediator.route_keys == {}
    world, a, b = two_wallets()
    assert world.mediator.route_keys == {}
    mark = len(world.trace)
    ping(world, a, b)
    assert len(world.trace) == mark  # enrolling wrote no record
    route = world.route("A")
    for _ in range(2):
        ping(world, a, b)
    ping(world, b, a)
    world.run_until_quiescent()
    assert world.route("A") is route
    assert [key for _, key in sorted(world.mediator.route_keys.items())] == [route[1], world.route("B")[1]]


def test_envelope_under_an_unenrolled_or_another_senders_route_is_unreadable():
    world, a, b = two_wallets()
    ping(world, a, b)
    ping(world, b, a)
    world.run_until_quiescent()
    original = world.wire_log[min(world.wire_log)].body.outer_ciphertext  # A's PINReq to the mediator
    (a_id, a_key), (b_id, b_key) = world.route("A"), world.route("B")
    assert original[: crypto.KEY_ID_LEN] == a_id != b_id
    recipient_did, inner = unseal_at_mediator(world.mediator.route_keys, Envelope(original))
    route_plain = outer_plain(recipient_did, inner)
    unenrolled = bytes(crypto.KEY_ID_LEN - 1) + b"\x09"
    forged = [
        unenrolled + original[crypto.KEY_ID_LEN :],  # an id no sender holds
        b_id + original[crypto.KEY_ID_LEN :],  # relabelled as B's
        b_id + crypto.sym_encrypt(world.rng, b_key, route_plain, a_id),  # B's key, A's id as associated data
        a_id + crypto.sym_encrypt(world.rng, b_key, route_plain, a_id),  # re-encrypted under B's key
        unenrolled + crypto.sym_encrypt(world.rng, a_key, route_plain, unenrolled),  # A's key under a new id
    ]
    mark = len(world.trace)
    for outer in forged:
        world.send_envelope("adversary", Envelope(outer), "PINReq")
    world.run_until_quiescent()
    assert [r["verdict"] for r in world.trace[mark:]] == ["dead-letter:unreadable"] * len(forged)
    # the same layer under A's own route is forwarded (and B rejects the copy of a consumed message)
    world.send_envelope("adversary", Envelope(a_id + crypto.sym_encrypt(world.rng, a_key, route_plain, a_id)), "PINReq")
    world.run_until_quiescent()
    assert [r["verdict"] for r in world.trace[-2:]] == ["forwarded", "rejected:replay"]


@pytest.mark.parametrize(
    "forged_sender", [lambda a: a.did, lambda a: "did:handover:ghost"], ids=["connected-did", "ghost-did"]
)
def test_spoof_with_leaked_endpoint_key_fails_signature(forged_sender):
    # leaked key of the A<->B connection: B opens it under its receive key from A whatever DID is forged
    world, a, b = two_wallets()
    world.spoof("B", forged_sender(a), payload("PINReq", tid=mint_tid(world.rng)), a.did)
    world.run_until_quiescent()
    injected = [r for r in world.trace if r.get("meta", {}).get("injected") == "spoof" and r["to"] == "B"]
    assert injected[-1]["verdict"] == "rejected:bad-signature"


def test_spoof_without_endpoint_key_cannot_decrypt():
    world, a, b = two_wallets()
    world.spoof("B", a.did, payload("PINReq", tid=mint_tid(world.rng)), None)
    world.run_until_quiescent()
    injected = [r for r in world.trace if r.get("meta", {}).get("injected") == "spoof" and r["to"] == "B"]
    assert injected[-1]["verdict"] == "rejected:decrypt-error"


def test_mediator_blindness_full_lifecycle():
    result = fresh_lifecycle()
    world = result.world
    secrets = set()
    for rec in world.trace:
        if rec["kind"] == "secret-minted":
            secrets.add(rec["meta"]["pin"].encode("ascii"))
            secrets.add(bytes.fromhex(rec["meta"]["keyHex"]))
        if rec["kind"] == "vc-issued":
            secrets.add(rec["meta"]["credentialId"].encode("ascii"))
    b1 = result.cast["B1"]
    tids = [message.fields["tid"] for message in b1.inbox if message.subject == "tid"]
    tids += [rec["meta"]["tid"] for rec in world.trace if rec["kind"] == "secret-minted"]
    assert len(tids) == 2  # the one B1 bought new, the one it sold under
    secrets.update(tid.encode("ascii") for tid in tids)
    assert secrets
    mediator_bytes = b"\x00".join(
        bytes.fromhex(r["meta"]["bytes"]) for r in world.trace if r["channel"] == "ssi" and "MD" in (r["from"], r["to"])
    )
    assert mediator_bytes
    wire_bytes = b"\x00".join(
        bytes.fromhex(r["meta"]["bytes"]) for r in world.trace if r["channel"] == "ssi" and "bytes" in r["meta"]
    )
    for secret in secrets:
        assert secret not in mediator_bytes
        assert secret not in wire_bytes


def test_honest_flows_within_tick_budget():
    result = fresh_lifecycle()
    world = result.world
    sent = sum(
        1
        for r in world.trace
        if (r["channel"] == "ssi" and r["to"] == "MD") or r["channel"] in ("https", "oob-email")
    )
    assert sent >= 20  # the lifecycle really exercises every flow
    assert world.clock <= 4 * sent


def test_seed_identical_runs_identical_traces():
    first = fresh_lifecycle(seed=123)
    second = fresh_lifecycle(seed=123)
    assert first.trace_lines() == second.trace_lines()
    third = fresh_lifecycle(seed=124)
    assert first.trace_lines() != third.trace_lines()


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_a_world_forked_at_any_step_boundary_runs_to_the_same_end(name):
    # a search over attacks may branch from deep copies of (world, cast) instead of replaying each prefix: a copy
    # taken at any step boundary and run to the end must give the original's verdicts, trace and findings, and
    # hold keys of its own, so that no cipher context built for one world serves another
    spec = builtin_scenario(name)
    expected = run_scenario(spec)
    world, cast = build_world(spec)
    for start in range(len(spec.script) + 1):
        fork_world, fork_cast = copy.deepcopy((world, cast))
        assert all(agent.world is fork_world for agent in fork_cast.values())
        for agent_id, agent in cast.items():
            for did, conn in agent.connections.items():
                twin = fork_cast[agent_id].connections[did]
                assert (twin.send_key, twin.receive_key) == (conn.send_key, conn.receive_key)
                assert twin.send_key.aead is not conn.send_key.aead
                assert twin.receive_key.aead is not conn.receive_key.aead
        for route_id, key in world.mediator.route_keys.items():
            assert key.aead is not fork_world.mediator.route_keys[route_id].aead
        steps = run_steps(fork_world, fork_cast, spec, start)
        fork_world.emit_state_dumps()
        assert steps == expected.steps[start:]
        assert fork_world.trace == expected.world.trace
        assert scan_trace(fork_world.trace) == expected.violations
        run_steps(world, cast, spec, start, start + 1)


def test_new_purchase_eleven_row_exchange():
    # the new-purchase scenario produces the documented eleven-row exchange:
    # two direct legs, two emails, the connection step, and six mediator hops
    result = run_scenario(builtin_scenario("new-purchase"))
    world = result.world
    rows = [
        (r["from"], r["to"], r["kind"])
        for r in world.trace
        if r["channel"] in ("ssi", "https", "oob-email")
        or (r["channel"] == "control" and r["kind"] == "connection-established")
    ]
    expected = [
        ("DS", "MF", "productSellingReq"),
        ("MF", "DS", "productSellingResp"),
        ("MF", "B1", "pin"),
        ("DS", "B1", "tid"),
        ("B1", "MF", "connection-established"),
        ("B1", "MD", "ownershipClaimReq"),
        ("MD", "MF", "ownershipClaimReq"),
        ("MF", "MD", "ownershipClaimResp"),
        ("MD", "B1", "ownershipClaimResp"),
        ("B1", "MD", "ownershipClaimAck"),
        ("MD", "MF", "ownershipClaimAck"),
    ]
    assert rows == expected
    assert len(rows) == 11
