"""Deterministic in-memory network: event scheduler, store-and-forward
mediator, out-of-band email channel, and the drop/tamper/replay/spoof attacks.

Logical time advances one tick per hop: every event is delivered one tick
after it is sent, so one FIFO queue holds the events in delivery order.  A run
is a pure function of the seed, the scenario, and the attacks applied, so
traces replay byte-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from . import crypto
from .encoding import plain
from .messages import Envelope, MessagePayload, seal, unseal_at_mediator
from .registry import VerifiableDataRegistry

MEDIATOR_ID = "MD"

CHANNEL_SSI = "ssi"
CHANNEL_HTTPS = "https"
CHANNEL_OOB = "oob-email"
CHANNEL_REGISTRY = "registry"
CHANNEL_AUDIT = "audit"
CHANNEL_CONTROL = "control"

DEFAULT_MAX_TICKS = 100_000
MAX_QUEUED = 64  # messages the mediator holds for one offline recipient; anyone can enroll with the mediator


@dataclass(frozen=True)
class OobMessage:
    """Email-style out-of-band message; content rides outside the SSI transport."""

    subject: str
    fields: dict


@dataclass(frozen=True)
class DirectMessage:
    """Pre-secured request/response unit for the distributor<->manufacturer leg."""

    nonce: bytes
    payload: MessagePayload  # a refusal is a ``problemReport``, as on a connection


@dataclass(slots=True)
class DeliveryEvent:
    seq: int
    deliver_at: int
    frm: str
    to: str
    channel: str
    body: Any
    kind: str  # tracing label only; agent logic never reads it
    extra: dict = field(default_factory=dict)


class SimError(Exception):
    pass


@dataclass
class Mediator:
    """Honest-but-curious relay: reads routing headers, forwards sealed payloads, holds them only while offline.
    A sender's enrollment agrees with ``keys`` (``World.route``), so the mediator runs no agreement of its own."""

    keys: crypto.KeyPair = field(repr=False)
    routes: dict[str, str] = field(default_factory=dict)
    queues: dict[str, deque] = field(default_factory=dict)  # offline agent id -> (inner layer, kind, meta) held for it
    route_keys: dict[bytes, crypto.SymmetricKey] = field(default_factory=dict, repr=False)  # route id -> route key

    def enroll(self, route_key: crypto.SymmetricKey) -> bytes:
        """Keep a sender's route key under the next route id, which that sender's envelopes lead with."""
        route_id = len(self.route_keys).to_bytes(crypto.KEY_ID_LEN, "big")
        self.route_keys[route_id] = route_key
        return route_id

    def handle(self, world: "World", event: DeliveryEvent) -> str:
        try:
            recipient_did, inner = unseal_at_mediator(self.route_keys, event.body)
        except crypto.DecryptError:
            return "dead-letter:unreadable"
        agent = world.agents.get(self.routes.get(recipient_did))
        if agent is None:
            return "dead-letter"
        if agent.online:  # an online agent has no queue: ``World.set_online`` drains it
            world.schedule(
                frm=MEDIATOR_ID, to=agent.agent_id, channel=CHANNEL_SSI, body=inner, kind=event.kind, meta=event.extra
            )
            return "forwarded"
        queue = self.queues.setdefault(agent.agent_id, deque())
        if len(queue) >= MAX_QUEUED:
            return "dead-letter:queue-full"
        queue.append((inner, event.kind, event.extra))
        return "queued"

    def state_dump(self) -> dict:
        """Routes and queues; its key pair and the route keys stay out."""
        return plain(self)


class World:
    """One simulation universe: registry, mediator, agents, scheduler, trace."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = crypto.Rng(f"protocol:{seed}")  # what payloads, emails and the ledger carry
        self.transport_rng = crypto.Rng(f"transport:{seed}")  # every X25519 pair, and the spoofs' keys and nonces
        self.clock = 0
        self._seq = 0
        self._queue: deque[DeliveryEvent] = deque()
        self._drops: set[int] = set()
        self._tampers: dict[int, list[tuple[int, int]]] = {}  # seq -> (byte index, mask) of each tamper
        self.trace: list[dict] = []
        self.wire_log: dict[int, DeliveryEvent] = {}
        self.registry = VerifiableDataRegistry(clock=self.tick)
        self.mediator = Mediator(crypto.generate_keypair(self.transport_rng))
        self._routes: dict[str, tuple[bytes, crypto.SymmetricKey, int]] = {}  # sender -> (route id, key, envelopes)
        self.agents: dict[str, Any] = {}
        self.email_directory: dict[str, str] = {}
        self.max_ticks = DEFAULT_MAX_TICKS  # no event is delivered after this tick
        self.timed_out = False

    # -- registration ------------------------------------------------------

    def register_agent(self, agent) -> None:
        if agent.agent_id in self.agents or agent.agent_id == MEDIATOR_ID:
            raise SimError(f"duplicate agent id {agent.agent_id}")
        self.agents[agent.agent_id] = agent
        self.email_directory[agent.email] = agent.agent_id
        self.mediator.routes[agent.did] = agent.agent_id
        self.registry.publish_did_doc(agent.did, agent.did_key.public_key, {"agent": agent.agent_id})

    def route(self, sender: str) -> tuple[bytes, crypto.SymmetricKey, int]:
        """``sender``'s (route id, route key, counter) for one more envelope; the first call enrolls it (Aries RFC 0211)
        by ECDH-ES direct key agreement (RFC 7518 4.6): a fresh pair agrees with the mediator's key, which keeps it."""
        if sender not in self._routes:
            key = crypto.send_key(crypto.generate_keypair(self.transport_rng), self.mediator.keys.public_key)
            self._routes[sender] = (self.mediator.enroll(key), key, 0)
        route_id, key, sealed = self._routes[sender]
        self._routes[sender] = route = (route_id, key, sealed + 1)
        return route

    def tick(self) -> int:
        return self.clock

    def set_online(self, agent_id: str, online: bool) -> None:
        """Going online passes the agent's queue on in send order, each layer with its event's meta; it is then gone."""
        self.agents[agent_id].online = online
        for inner, kind, meta in self.mediator.queues.pop(agent_id, ()) if online else ():
            self.schedule(frm=MEDIATOR_ID, to=agent_id, channel=CHANNEL_SSI, body=inner, kind=kind, meta=meta)

    # -- scheduling ----------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def schedule(
        self,
        *,
        frm: str,
        to: str,
        channel: str,
        body: Any,
        kind: str,
        meta: dict | None = None,
    ) -> int:
        event = DeliveryEvent(
            seq=self._next_seq(),
            deliver_at=self.clock + 1,
            frm=frm,
            to=to,
            channel=channel,
            body=body,
            kind=kind,
            extra=dict(meta or {}),
        )
        self._queue.append(event)
        return event.seq

    def send_envelope(self, sender_id: str, envelope: Envelope, kind: str) -> int:
        return self.schedule(frm=sender_id, to=MEDIATOR_ID, channel=CHANNEL_SSI, body=envelope, kind=kind)

    def send_direct(self, sender_id: str, recipient_id: str, nonce: bytes, payload: MessagePayload) -> int:
        dm = DirectMessage(nonce=bytes(nonce), payload=payload)
        return self.schedule(frm=sender_id, to=recipient_id, channel=CHANNEL_HTTPS, body=dm, kind=payload.kind)

    def send_email(self, sender_id: str, to_email: str, subject: str, fields: dict) -> int:
        agent_id = self.email_directory.get(to_email)
        if agent_id is None:
            return self.schedule(frm=sender_id, to="unknown-mailbox", channel=CHANNEL_OOB, body=None, kind=subject)
        return self.schedule(
            frm=sender_id,
            to=agent_id,
            channel=CHANNEL_OOB,
            body=OobMessage(subject=subject, fields=dict(fields)),
            kind=subject,
        )

    # -- tracing ---------------------------------------------------------------

    def emit(
        self,
        *,
        channel: str,
        kind: str,
        frm: str,
        to: str,
        verdict: str,
        meta: dict | None = None,
        seq: int | None = None,
    ) -> None:
        self.trace.append(
            {
                "seq": seq if seq is not None else self._next_seq(),
                "tick": self.clock,
                "from": frm,
                "to": to,
                "channel": channel,
                "kind": kind,
                "verdict": verdict,
                "meta": meta or {},
            }
        )

    def _event_meta(self, event: DeliveryEvent) -> dict:
        meta = dict(event.extra)
        if event.channel == CHANNEL_SSI:
            body = event.body
            meta["bytes"] = body.outer_ciphertext.hex() if isinstance(body, Envelope) else bytes(body).hex()
        elif event.channel == CHANNEL_HTTPS:
            meta["nonce"] = event.body.nonce.hex()
        elif event.channel == CHANNEL_OOB and event.body is not None:
            meta["fields"] = dict(sorted(event.body.fields.items()))
        return meta

    # -- execution ----------------------------------------------------------------

    def run_until_quiescent(self) -> bool:
        """Deliver queued events in send order; False once the next one falls after ``max_ticks``.

        The first overrun emits one ``timeout`` record; the event stays queued,
        so raising ``max_ticks`` lets a later run deliver it.  A drained queue
        clears, and raises on, any drop or tamper whose seq went to a record.
        """
        while self._queue:
            event = self._queue[0]
            if event.deliver_at > self.max_ticks:
                if not self.timed_out:
                    self.timed_out = True
                    self.emit(
                        channel=CHANNEL_CONTROL,
                        kind="timeout",
                        frm="-",
                        to="-",
                        verdict="timeout",
                        meta={"limit": self.max_ticks, "next": event.deliver_at},
                    )
                return False
            tampers = self._tampers.pop(event.seq, ()) if self._tampers else ()  # both tables are empty but in attacks
            if tampers and event.channel != CHANNEL_SSI:
                raise SimError(f"tamper: event {event.seq} is not sealed wire bytes; the tamper is discarded")
            self._queue.popleft()
            self.clock = event.deliver_at
            if self._drops and event.seq in self._drops:
                self._drops.discard(event.seq)
                self.emit(
                    channel=event.channel,
                    kind=event.kind,
                    frm=event.frm,
                    to=event.to,
                    verdict="dropped",
                    seq=event.seq,
                )
                continue
            for byte_index, mask in tampers:
                event.body = _flip_body_byte(event.body, byte_index, mask)
                event.extra["tampered"] = True
            verdict = self._dispatch(event)
            if event.channel == CHANNEL_SSI:
                self.wire_log[event.seq] = event
            self.emit(
                channel=event.channel,
                kind=event.kind,
                frm=event.frm,
                to=event.to,
                verdict=verdict,
                meta=self._event_meta(event),
                seq=event.seq,
            )
        if not (self._drops or self._tampers):
            return True
        stale = sorted(seq for seq in self._drops | self._tampers.keys() if seq <= self._seq)
        if stale:
            self._drops.difference_update(stale)
            for seq in stale:
                self._tampers.pop(seq, None)
            raise SimError(f"drop/tamper: seq {stale} went to a trace record, not a queued event")
        return True

    def _dispatch(self, event: DeliveryEvent) -> str:
        if event.to == MEDIATOR_ID:
            return self.mediator.handle(self, event)
        agent = self.agents.get(event.to)
        if agent is None:
            return "dead-letter"
        return agent.deliver(event)

    # -- adversary interface ----------------------------------------------------------

    def _require_pending(self, op: str, seq: int) -> None:
        """Raise unless ``seq`` is queued or not yet used."""
        if seq <= self._seq and all(event.seq != seq for event in self._queue):
            raise SimError(f"{op}: event {seq} is neither queued nor in the future")

    def drop(self, seq: int) -> None:
        """Suppress event ``seq``, queued or not yet scheduled."""
        self._require_pending("drop", seq)
        self._drops.add(seq)

    def tamper(self, seq: int, byte_index: int, mask: int) -> Optional[int]:
        """XOR the non-zero ``mask`` into one byte of event ``seq``; returns the seq of a re-injected copy if it
        was delivered.  The byte always changes, so a tampered copy is never a replay."""
        if not 1 <= mask <= 0xFF:
            raise SimError(f"tamper: mask {mask} is not in 1-255")
        original = self.wire_log.get(seq)
        if original is None:
            # queued, or a pre-registration against a deterministic future seq
            self._require_pending("tamper", seq)
            self._tampers.setdefault(seq, []).append((byte_index, mask))
            return None
        # already delivered: re-inject a tampered copy of the observed bytes
        return self._reinject(original, _flip_body_byte(original.body, byte_index, mask), "tamper")

    def replay(self, seq: int) -> int:
        """Re-inject the observed bytes of delivered event ``seq``."""
        original = self.wire_log.get(seq)
        if original is None:
            raise SimError(f"replay: event {seq} was never on the wire")
        return self._reinject(original, original.body, "replay")

    def _reinject(self, event: DeliveryEvent, body: Any, injected: str) -> int:
        meta = {"injected": injected, "of": event.seq}
        return self.schedule(frm=event.frm, to=event.to, channel=event.channel, body=body, kind=event.kind, meta=meta)

    def spoof(self, recipient_id: str, forged_sender: str, payload: MessagePayload, key_of: Optional[str]) -> int:
        """Send ``payload`` to ``recipient_id``, encrypted under a channel key of a fresh attacker key pair.

        ``key_of`` is the DID whose connection with the recipient leaked its
        endpoint key, so the inner layer carries that key's id and fails to
        authenticate there; ``None``, or a DID with no such connection, means
        the attacker addresses a random key.  The wire names no sender (the
        recipient takes the peer of the connection the key names), so
        ``forged_sender`` only labels the record as ``meta.forgedSender``.
        """
        recipient = self.agents[recipient_id]
        conn = recipient.connections.get(key_of)
        endpoint_key = conn.local.public_key if conn is not None else crypto.generate_keypair(self.transport_rng).public_key
        key = crypto.send_key(crypto.generate_keypair(self.transport_rng), endpoint_key)  # fresh, as any stranger's
        route = self.route("adversary")  # the stranger enrolls once per world, like any sender
        nonce = crypto.fresh_nonce(self.transport_rng)
        # 2**64 - 1 is the one counter sure to pass the replay check, so the tag check decides
        envelope = seal(key, 2**64 - 1, crypto.key_id(endpoint_key), route, recipient.did, nonce, payload)
        return self.schedule(
            frm="adversary",
            to=MEDIATOR_ID,
            channel=CHANNEL_SSI,
            body=envelope,
            kind=payload.kind,
            meta={"injected": "spoof", "forgedSender": forged_sender},
        )

    # -- whole-world introspection -------------------------------------------------------

    def state_dumps(self) -> dict:
        dumps = {aid: agent.state_dump() for aid, agent in self.agents.items()}
        dumps[MEDIATOR_ID] = self.mediator.state_dump()
        return dumps

    def emit_state_dumps(self) -> None:
        for agent_id, dump in self.state_dumps().items():
            self.emit(
                channel=CHANNEL_AUDIT,
                kind="state-dump",
                frm=agent_id,
                to="-",
                verdict="ok",
                meta={"state": dump},
            )


def _flip_body_byte(body: Any, byte_index: int, mask: int) -> Any:
    raw = bytearray(body.outer_ciphertext if isinstance(body, Envelope) else body)
    raw[byte_index % len(raw)] ^= mask
    return Envelope(outer_ciphertext=bytes(raw)) if isinstance(body, Envelope) else bytes(raw)
