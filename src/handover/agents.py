"""Entity state machines: manufacturer, distributor, and wallet agents.

Each agent consumes one delivery event at a time from the scheduler and holds
isolated state; everything an agent ever learns arrives through a channel.
Handlers return a machine-readable verdict string that the simulator writes
into the trace (``accepted`` or ``rejected:<reason>``).

Every leg runs one exchange rule, ``Agent._receive``: on a pairwise
``Connection`` and on the pre-secured https sale leg (a ``DirectLink``) alike,
``Agent.send`` opens the thread of a kind that awaits a reply
(``messages.REPLIES``), a reply must close an open thread, and a refusal gets
one ``problemReport``.  Each transport has its own handler table, so a sale
over a connection, or a connection kind over https, is ``unexpected-kind``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import crypto, messages, simnet
from .credential import (
    PRODUCT_ATTRIBUTE_NAMES,
    PRODUCT_SCHEMA_ID,
    VerifiableCredential,
    cred_def_id_of,
    generate_vc,
    present_proof,
    sign_vc,
    verify_credential_signature,
    verify_presentation,
)
from .crypto import SymmetricKey
from .encoding import plain
from .messages import (
    CHALLENGE_OPERANDS,
    CHALLENGE_TYPES,
    REPLY_KINDS,
    EnvelopeReject,
    MessagePayload,
    PayloadError,
    is_valid_pin,
    mint_pin,
    mint_tid,
    payload,
    reply_to,
    seal,
)

# How an AdversaryWallet forges the credential of a transfer request (see the class).
FORGERY_MODES = ("self-issued", "unknown-creddef", "garbage")


class AgentActionError(Exception):
    """A locally-initiated action cannot start (missing state, no connection)."""


class PinFormatError(ValueError):
    """PIN contains characters outside [A-Z0-9] or has a bad length."""


def pin_numeric(pin: str) -> int:
    """Base-36 positional value of a PIN, most significant character first."""
    if not is_valid_pin(pin):
        raise PinFormatError(pin)
    return int(pin, 36)


def evaluate_challenge(pin_value: int, challenge_by: int, challenge_type: str) -> Fraction:
    """Exact rational result of (PIN value <op> challengeBy); PIN is the left operand."""
    if challenge_by not in CHALLENGE_OPERANDS:
        raise ValueError("challengeBy must be a 3-4 digit positive integer")
    if challenge_type == "+":
        return Fraction(pin_value + challenge_by)
    if challenge_type == "-":
        return Fraction(pin_value - challenge_by)
    if challenge_type == "*":
        return Fraction(pin_value * challenge_by)
    if challenge_type == "/":
        return Fraction(pin_value, challenge_by)
    raise ValueError(f"unknown challenge type {challenge_type!r}")


@dataclass
class Connection:
    """One side of a pairwise SSI connection. Its X25519 keys are unique to it; its direction keys, from the one agreement
    that keyed both sides, are its peer's swapped.  ``threads`` maps the nonce of each open exchange to the one reply
    kind that continues it and that reply's context; ``sent`` counts the messages sent and ``received`` is the highest
    one accepted."""

    conn_id: str
    local: crypto.KeyPair
    remote_public_key: bytes
    remote_did: str
    remote_agent_id: str
    send_key: SymmetricKey = field(repr=False)
    receive_key: SymmetricKey = field(repr=False)
    remote_kid: bytes = field(repr=False)  # the id of ``remote_public_key``, which every sealed message leads with
    threads: dict[bytes, tuple[str, dict]] = field(default_factory=dict)
    sent: int = 0
    received: int = 0


@dataclass
class DirectLink:
    """An agent's side of the pre-secured https leg with one peer: no keys or counters, only ``threads``, as on a
    ``Connection``."""

    remote_agent_id: str
    threads: dict[bytes, tuple[str, dict]] = field(default_factory=dict)


@dataclass
class ProductRecord:
    """Manufacturer-side state of one product."""

    product_code: str
    distributor_id: str = ""
    conn_id: str = ""
    previously_sold_count: int = 0
    first_purchase_date: int = 0
    last_purchase_date: int = 0
    email: str = ""
    current_credential_id: Optional[str] = None
    current_credential: Optional[VerifiableCredential] = field(default=None, repr=False)  # that id's, not dumped
    holder_did: str = field(default="", repr=False)  # the peer DID of ``conn_id``'s connection, not dumped

    def to_attributes(self) -> dict:
        return {
            "productCode": self.product_code,
            "distributorID": self.distributor_id,
            "ConnID": self.conn_id,
            "status": "sold",  # a credential is only issued to a holder who bought the product
            "previouslySoldCount": self.previously_sold_count,
            "firstPurchaseDate": self.first_purchase_date,
            "lastPurchaseDate": self.last_purchase_date,
            "email": self.email,
        }


@dataclass
class ClaimantAttribute:
    """Manufacturer-side pending claim: at most one per product code.

    A used-product entry exists only once the seller's ownership proof has
    verified; until then a buyer's claim with the TID is ``unknown-tid``.
    The key and challenge of each claim attempt stay with that attempt.
    Once issued, the credential stays here until the holder acknowledges it
    (Aries RFC 0015), so a retried claim gets the same credential again.  A
    new-product claim holds the PIN, a used-product claim the encrypted PIN.
    """

    product_code: str
    tid: str
    pin: Optional[str] = None
    encrypted_pin: Optional[bytes] = None
    credential: Optional[VerifiableCredential] = None


@dataclass
class OwnershipClaimingData:
    """A buyer's secrets for one second-hand purchase, kept under its TID until its credential arrives.

    The plaintext PIN and the symmetric key exist solely on the buyer's side; the
    seller holds only the TID and the PIN ciphertext (``WalletAgent.sales``).
    """

    pin: str
    key: SymmetricKey


class Agent:
    """Base agent: connection management, envelope plumbing, replay discipline."""

    HANDLERS: dict[str, str] = {}  # kind -> handler, for a connection
    DIRECT_HANDLERS: dict[str, str] = {}  # kind -> handler, for the https leg
    ROLE = "agent"

    def __init__(self, agent_id: str, world: "simnet.World") -> None:
        self.agent_id = agent_id
        self.world = world
        self.rng = world.rng
        self.online = True
        self.did_key = crypto.generate_signing_key(self.rng)  # signs; each connection's own key agrees
        self.did = crypto.derive_did(self.did_key.public_key)
        self.email = f"{agent_id.lower()}@mail.local"
        self.connections: dict[str, Connection] = {}
        self.links: dict[str, DirectLink] = {}  # https peer id -> its link, made on first use
        self._by_key_id: dict[bytes, Connection] = {}  # key id of conn.local -> conn
        self.inbox: list[simnet.OobMessage] = []
        world.register_agent(self)

    # -- wiring ----------------------------------------------------------

    def add_connection(self, conn: Connection) -> None:
        old = self.connections.get(conn.remote_did)
        if old is not None:  # no reply can reach the old connection: its threads go with it
            del self._by_key_id[old.local.kid]
        self.connections[conn.remote_did] = conn
        self._by_key_id[conn.local.kid] = conn

    def connection_with(self, remote_did: str) -> Connection:
        conn = self.connections.get(remote_did)
        if conn is None:
            raise AgentActionError(f"{self.agent_id} has no connection with {remote_did}")
        return conn

    def link(self, agent_id: str) -> DirectLink:
        return self.links.setdefault(agent_id, DirectLink(agent_id))

    def send(self, conn: Connection | DirectLink, nonce: bytes, p: MessagePayload, context: dict | None = None) -> None:
        """Send ``p`` under ``nonce``; if it awaits a reply, open the thread that reply continues with ``context``.
        Every leg of an exchange runs under its request's nonce (Aries RFC 0008), so an exchange is one thread."""
        reply = reply_to(p)
        if reply is not None:
            conn.threads[nonce] = (reply, dict(context or {}))
        if isinstance(conn, DirectLink):
            self.world.send_direct(self.agent_id, conn.remote_agent_id, nonce, p)
            return
        conn.sent += 1
        env = seal(conn.send_key, conn.sent, conn.remote_kid, self.world.route(self.agent_id), conn.remote_did, nonce, p)
        self.world.send_envelope(self.agent_id, env, p.kind)

    # -- inbound dispatch --------------------------------------------------

    def deliver(self, event: "simnet.DeliveryEvent") -> str:
        if event.channel == simnet.CHANNEL_OOB:
            self.inbox.append(event.body)
            return "delivered"
        if event.channel == simnet.CHANNEL_HTTPS:
            dm = event.body
            return self._receive(self.link(event.frm), dm.nonce, dm.payload, self.DIRECT_HANDLERS)
        return self._handle_ssi(event.body)

    def _handle_ssi(self, inner_ciphertext: bytes) -> str:
        """Open and verify on the one connection the key id names (that is the peer), then receive there."""
        conn = self._by_key_id.get(inner_ciphertext[: crypto.KEY_ID_LEN])
        if conn is None:
            return "rejected:decrypt-error"
        counter = messages.layer_counter(inner_ciphertext)
        if counter <= conn.received:  # each direction arrives in order, so a counter not above the last is spent
            return "rejected:replay"
        try:
            nonce, p = messages.verify_inner(*messages.open_inner(conn.receive_key, inner_ciphertext))
        except EnvelopeReject as exc:
            return f"rejected:{exc.reason}"
        except PayloadError:
            return "rejected:malformed-payload"
        conn.received = counter
        return self._receive(conn, nonce, p, self.HANDLERS)

    def _receive(self, conn: Connection | DirectLink, nonce: bytes, p: MessagePayload, handlers: dict) -> str:
        """The one exchange rule of every leg: a reply kind must close the open thread of its nonce, a
        ``problemReport`` closes any; then dispatch by the transport's ``handlers``.  A refusal gets one
        ``problemReport`` with its reason under the message's nonce, unless the message is one itself."""
        thread = conn.threads.get(nonce)  # (reply kind, context) of the open exchange under this nonce
        context = conn.threads.pop(nonce)[1] if thread and p.kind in (thread[0], "problemReport") else None
        if context is None and p.kind in REPLY_KINDS:
            return "rejected:nonce-mismatch"
        verdict = self.handle_payload(conn, nonce, p, context, handlers)
        if verdict.startswith("rejected:") and p.kind != "problemReport":
            self.send(conn, nonce, payload("problemReport", reason=verdict.removeprefix("rejected:")))
        return verdict

    def handle_payload(self, conn, nonce: bytes, p: MessagePayload, context: Optional[dict], handlers: dict) -> str:
        if p.kind == "problemReport":  # the peer refused the exchange this closed, or a message that awaited nothing
            return f"rejected:{p.body['reason']}"
        name = handlers.get(p.kind)
        if name is None:
            return "rejected:unexpected-kind"
        return getattr(self, name)(conn, nonce, p, context)

    # -- introspection -----------------------------------------------------

    def state_dump(self) -> dict:
        """Every attribute under its own name, but the world, the RNG and ``_by_key_id`` (an index of ``connections``)."""
        return {
            "role": self.ROLE,
            **plain({k: v for k, v in vars(self).items() if k not in ("world", "rng", "_by_key_id")}),
        }


def establish_connection(inviter: Agent, invitee: Agent) -> tuple[Connection, Connection]:
    """Create matching pairwise connection state on both agents.

    Models the QR invitation plus handshake; each acceptance mints fresh keys
    on both sides, so replaying an invitation never recovers old traffic.
    """
    world = inviter.world
    conn_id = world.rng.token(8).hex()
    keys = {side: crypto.generate_keypair(world.transport_rng) for side in (inviter, invitee)}  # X25519: they only agree
    pair = crypto.channel_keys(keys[inviter], keys[invitee].public_key)  # the invitee's pair is the inviter's swapped
    for side, peer, (send, receive) in ((inviter, invitee, pair), (invitee, inviter, pair[::-1])):
        remote = keys[peer]
        conn = Connection(conn_id, keys[side], remote.public_key, peer.did, peer.agent_id, send, receive, remote.kid)
        side.add_connection(conn)
    world.emit(
        channel=simnet.CHANNEL_CONTROL,
        kind="connection-established",
        frm=inviter.agent_id,
        to=invitee.agent_id,
        verdict="ok",
        meta={"connId": conn_id},
    )
    return inviter.connections[invitee.did], invitee.connections[inviter.did]


class ManufacturerAgent(Agent):
    """Issuer and verifier: owns the product catalog and the claimant list."""

    ROLE = "manufacturer"
    HANDLERS = {
        "ownershipClaimReq": "_on_ownership_claim_req",
        "ownershipTransferReq": "_on_ownership_transfer_req",
        "ownershipProofResp": "_on_ownership_proof_resp",
        "pinChallengeResp": "_on_pin_challenge_resp",
        "revokeVCResp": "_on_ack",
        "ownershipClaimAck": "_on_ack",
    }
    DIRECT_HANDLERS = {"productSellingReq": "_on_selling_req"}

    def __init__(self, agent_id: str, world: "simnet.World") -> None:
        super().__init__(agent_id, world)
        self.cred_def_id = cred_def_id_of(self.did)
        self.revocation_registry_id = f"revreg:{self.did}:{PRODUCT_SCHEMA_ID}"
        vdr = world.registry
        vdr.publish_schema(PRODUCT_SCHEMA_ID, PRODUCT_ATTRIBUTE_NAMES, self.did)
        vdr.publish_cred_def(self.cred_def_id, PRODUCT_SCHEMA_ID, self.did, self.did_key.public_key)
        vdr.create_revocation_registry(self.revocation_registry_id, self.did)
        self.products: dict[str, ProductRecord] = {}
        self.claimants: dict[str, ClaimantAttribute] = {}

    def add_product(self, product_code: str) -> ProductRecord:
        record = ProductRecord(product_code=product_code)
        self.products[product_code] = record
        return record

    def _claimant_by_tid(self, tid: str, used: bool, conn: Connection) -> Optional[ClaimantAttribute]:
        """The open new or ``used`` claim with ``tid``; once issued, only on the connection its credential went to."""
        for claim in self.claimants.values():
            if claim.tid == tid and (claim.encrypted_pin is not None) == used:
                issued = claim.credential is not None
                return None if issued and self.products[claim.product_code].conn_id != conn.conn_id else claim
        return None

    def _issue(self, product: ProductRecord) -> VerifiableCredential:
        vc = generate_vc(
            product.to_attributes(),
            self.cred_def_id,
            self.did_key,
            issued_at=self.world.tick(),
            vdr=self.world.registry,
        )
        product.current_credential_id, product.current_credential = vc.credential_id, vc
        self.world.emit(
            channel=simnet.CHANNEL_REGISTRY,
            kind="vc-issued",
            frm=self.agent_id,
            to=product.product_code,
            verdict="ok",
            meta={"productCode": product.product_code, "credentialId": vc.credential_id},
        )
        return vc

    # -- distributor channel ------------------------------------------------

    def _on_selling_req(self, link, nonce, p, context) -> str:
        body = p.body
        code = body["productCode"]
        product = self.products.get(code)
        if product is None:
            return "rejected:unknown-product"
        if product.current_credential_id is not None or code in self.claimants:
            return "rejected:already-sold"
        now = self.world.tick()
        product.distributor_id = body["distributorID"]
        product.email = body["email"]
        product.first_purchase_date = now
        product.last_purchase_date = now
        tid = mint_tid(self.rng)
        pin = mint_pin(self.rng)
        self.claimants[code] = ClaimantAttribute(product_code=code, tid=tid, pin=pin)
        self.send(link, nonce, payload("productSellingResp", tid=tid))
        fields = {"productCode": code, "pin": pin, "nonce": nonce.hex()}
        self.world.send_email(self.agent_id, product.email, "pin", fields)
        return "accepted"

    # -- new-product claim (tid + pin) ---------------------------------------

    def _on_ownership_claim_req(self, conn, nonce, p, context) -> str:
        if p.body["pin"] is not None:
            return self._claim_new(conn, nonce, p)
        return self._claim_used(conn, nonce, p)

    def _claim_new(self, conn: Connection, nonce: bytes, p: MessagePayload) -> str:
        claim = self._claimant_by_tid(p.body["tid"], False, conn)
        if claim is None or claim.pin != p.body["pin"]:
            return "rejected:unknown-claim"
        product = self.products.get(claim.product_code)
        if product is None:
            return "rejected:unknown-product"
        if claim.credential is not None:  # issued, not yet acknowledged
            return self._offer(conn, nonce, claim)
        product.conn_id, product.holder_did = conn.conn_id, conn.remote_did
        claim.credential = self._issue(product)
        self._offer(conn, nonce, claim)
        self._emit_product_updated(product, "new-purchase")
        return "accepted"

    def _offer(self, conn: Connection, nonce: bytes, claim: ClaimantAttribute) -> str:
        """Offer the claim's credential; its ack, or the holder's proof with it, settles the claim."""
        self.send(conn, nonce, payload("ownershipClaimResp", credential=claim.credential), {"claim": claim})
        return "accepted"

    # -- transfer authorisation ----------------------------------------------

    def _transfer_refusal(self, code: str) -> Optional[str]:
        """Why ``code`` cannot start a transfer now, or None if it can."""
        claim = self.claimants.get(code)
        if claim is not None and claim.credential is None:
            return "duplicate-transfer"  # the product is already being claimed or transferred
        product = self.products.get(code)
        if product is None:
            return "unknown-product"
        if product.current_credential_id is None:
            return "not-transferable"
        return None

    def _on_ownership_transfer_req(self, conn, nonce, p, context) -> str:
        code = p.body["productCode"]
        refusal = self._transfer_refusal(code)
        if refusal is not None:
            return f"rejected:{refusal}"
        challenge = crypto.fresh_nonce(self.rng)
        proof_req = payload("ownershipProofReq", attributes=list(PRODUCT_ATTRIBUTE_NAMES), challenge=challenge)
        # the request (product, TID, encrypted PIN) is stored nowhere else until the seller's proof verifies
        self.send(conn, nonce, proof_req, {**p.body, "challenge": challenge})
        return "accepted"

    def _on_ownership_proof_resp(self, conn, nonce, p, context) -> str:
        code = context["productCode"]
        product = self.products[code]
        presentation = p.body["presentation"]
        credential, issued = presentation.credential, product.current_credential
        report = verify_presentation(
            presentation, context["challenge"], self.world.registry, conn.remote_did, self.cred_def_id, issued
        )
        if not report.valid:
            reason = report.reason
        elif dict(credential.attributes).get("productCode") != code:
            reason = "wrong-product"
        elif credential != issued:
            reason = "stale-credential"
        else:
            # checked again: another proof for the product may have verified since the request
            reason = self._transfer_refusal(code)
        if reason is not None:
            return f"rejected:{reason}"
        # the proof shows the holder has the current credential: an unacknowledged offer of it is settled
        self.claimants[code] = ClaimantAttribute(
            product_code=code, tid=context["tid"], encrypted_pin=bytes(context["encryptedPin"])
        )
        self.send(conn, nonce, payload("ownershipTransferResp"))
        return "accepted"

    # -- used-product claim (tid + symmetric key) -----------------------------

    def _claim_used(self, conn: Connection, nonce: bytes, p: MessagePayload) -> str:
        claim = self._claimant_by_tid(p.body["tid"], True, conn)
        if claim is None:
            return "rejected:unknown-tid"
        try:
            key = SymmetricKey(bytes(p.body["key"]))
        except crypto.KeyFormatError:
            return "rejected:bad-key"
        challenge = self.draw_challenge()
        challenge_req = payload("pinChallengeReq", tid=claim.tid, challengeBy=challenge[0], challengeType=challenge[1])
        # the key and challenge belong to this attempt alone; another claim with the TID cannot overwrite them
        self.send(conn, nonce, challenge_req, {"tid": claim.tid, "key": key, "challenge": challenge})
        return "accepted"

    def draw_challenge(self) -> tuple[int, str]:
        """Fresh 3-4 digit operand and an arithmetic operator, uniformly drawn."""
        return self.rng.randint(CHALLENGE_OPERANDS[0], CHALLENGE_OPERANDS[-1]), self.rng.choice(CHALLENGE_TYPES)

    def check_challenge_response(
        self, claim: ClaimantAttribute, key: SymmetricKey, challenge: tuple[int, str], result: Fraction
    ) -> tuple[bool, str]:
        """Decrypt the stored PIN with the attempt's key and recompute; accept only on exact equality."""
        try:
            pin_plain = crypto.sym_decrypt(key, 0, claim.encrypted_pin, b"").decode("ascii")
            mf_result = evaluate_challenge(pin_numeric(pin_plain), *challenge)
        except (crypto.DecryptError, UnicodeDecodeError, PinFormatError):
            return False, "pin-decrypt"
        if mf_result != result:
            return False, "challenge-mismatch"
        return True, ""

    def _on_pin_challenge_resp(self, conn, nonce, p, context) -> str:
        claim = self._claimant_by_tid(context["tid"], True, conn)
        if claim is None or p.body["tid"] != context["tid"]:
            return "rejected:unknown-tid"
        result = p.body["challengeResult"]
        ok, reason = self.check_challenge_response(claim, context["key"], context["challenge"], result)
        if not ok:
            # claimant entry stays; a legitimate buyer may retry the claim
            return f"rejected:{reason}"
        if claim.credential is not None:  # committed, not yet acknowledged
            return self._offer(conn, nonce, claim)
        return self._commit_transfer(conn, nonce, claim)

    def _commit_transfer(self, buyer_conn: Connection, nonce: bytes, claim: ClaimantAttribute) -> str:
        product = self.products[claim.product_code]
        old_credential_id = product.current_credential_id
        self.world.registry.revoke_credential(self.did, self.revocation_registry_id, old_credential_id)
        self.world.emit(
            channel=simnet.CHANNEL_REGISTRY,
            kind="vc-revoked",
            frm=self.agent_id,
            to=product.product_code,
            verdict="ok",
            meta={"productCode": product.product_code, "credentialId": old_credential_id},
        )
        old_conn = self.connections.get(product.holder_did)
        if old_conn is not None and old_conn.conn_id == product.conn_id:  # not if the holder has reconnected since
            revoke = payload("revokeVC", credentialId=old_credential_id, productCode=product.product_code)
            self.send(old_conn, crypto.fresh_nonce(self.rng), revoke)
        product.conn_id, product.holder_did = buyer_conn.conn_id, buyer_conn.remote_did
        product.previously_sold_count += 1
        product.last_purchase_date = self.world.tick()
        product.email = self.world.agents[buyer_conn.remote_agent_id].email
        claim.credential = self._issue(product)
        # the issuance leg closes the claim's exchange, so it runs under the claim's nonce
        self._offer(buyer_conn, nonce, claim)
        self._emit_product_updated(product, "transfer-committed")
        return "accepted"

    def _emit_product_updated(self, product: ProductRecord, reason: str) -> None:
        self.world.emit(
            channel=simnet.CHANNEL_REGISTRY,
            kind="product-updated",
            frm=self.agent_id,
            to=product.product_code,
            verdict="ok",
            meta={
                "productCode": product.product_code,
                "previouslySoldCount": product.previously_sold_count,
                "connId": product.conn_id,
                "reason": reason,
            },
        )

    def _on_ack(self, conn, nonce, p, context) -> str:
        # revocation and issuance took effect when their registry entries landed; an ack settles its claim
        claim = context.get("claim")
        if claim is not None and self.claimants.get(claim.product_code) is claim:
            del self.claimants[claim.product_code]  # the claim is single-use
        return "accepted"


class DistributorAgent(Agent):
    """Sells catalog products on the manufacturer's behalf over the direct channel."""

    ROLE = "distributor"
    DIRECT_HANDLERS = {"productSellingResp": "_on_selling_resp"}

    def record_sale(self, manufacturer_id: str, product_code: str, buyer_email: str) -> None:
        nonce = crypto.fresh_nonce(self.rng)
        now = self.world.tick()
        req = payload(
            "productSellingReq",
            productCode=product_code,
            distributorID=self.agent_id,
            ConnID="",
            status="sold",
            previouslySoldCount=0,
            firstPurchaseDate=now,
            lastPurchaseDate=now,
            email=buyer_email,
        )
        self.send(self.link(manufacturer_id), nonce, req, {"productCode": product_code, "email": buyer_email})

    def _on_selling_resp(self, link, nonce, p, context) -> str:
        fields = {"productCode": context["productCode"], "tid": p.body["tid"], "nonce": nonce.hex()}
        self.world.send_email(self.agent_id, context["email"], "tid", fields)
        return "accepted"


class WalletAgent(Agent):
    """Buyer/seller wallet: holds credentials and ownership claiming data."""

    ROLE = "wallet"
    HANDLERS = {
        "PINReq": "_on_pin_req",
        "PINResp": "_on_pin_resp",
        "ownershipProofReq": "_on_ownership_proof_req",
        "pinChallengeReq": "_on_pin_challenge_req",
        "ownershipClaimResp": "_on_ownership_claim_resp",
        "ownershipTransferResp": "_on_ownership_transfer_resp",
        "revokeVC": "_on_revoke_vc",
    }

    def __init__(self, agent_id: str, world: "simnet.World") -> None:
        super().__init__(agent_id, world)
        self.credentials: dict[str, VerifiableCredential] = {}  # product code -> the credential held for it
        self.claiming: dict[str, OwnershipClaimingData] = {}  # TID -> secrets of an unclaimed purchase, in order
        self.sales: dict[str, tuple[str, bytes]] = {}  # product code -> (TID, encrypted PIN) of its latest sale

    # -- locally initiated actions ------------------------------------------

    def claim_new(self, manufacturer_did: str, tid: str, pin: str) -> None:
        """Send the new-product ownership claim with the emailed TID and PIN."""
        conn = self.connection_with(manufacturer_did)
        nonce = crypto.fresh_nonce(self.rng)
        self.send(conn, nonce, payload("ownershipClaimReq", tid=tid, pin=pin, key=None))

    def start_sell(self, buyer_did: str, product_code: str) -> str:
        """Open a sale: mint a TID and ask the buyer for an encrypted PIN."""
        conn = self.connection_with(buyer_did)
        tid = mint_tid(self.rng)
        nonce = crypto.fresh_nonce(self.rng)
        # the sale is stored only once the buyer's reply completes it
        self.send(conn, nonce, payload("PINReq", tid=tid), {"tid": tid, "productCode": product_code})
        return tid

    def start_transfer(self, manufacturer_did: str, product_code: str) -> None:
        """Ask the manufacturer to transfer ownership using the stored sale data."""
        sale = self.sales.get(product_code)
        if sale is None:
            raise AgentActionError(f"{self.agent_id} has no completed sale data for {product_code}")
        conn = self.connection_with(manufacturer_did)
        self._request_transfer(conn, crypto.fresh_nonce(self.rng), product_code, *sale, {"productCode": product_code})

    def _request_transfer(
        self, conn: Connection, nonce: bytes, product_code: str, tid: str, encrypted_pin: bytes, context: dict
    ) -> None:
        """Send the transfer request; the manufacturer answers with a proof request, or refuses outright."""
        request = payload("ownershipTransferReq", productCode=product_code, encryptedPin=encrypted_pin, tid=tid)
        self.send(conn, nonce, request, context)

    def claim_used(self, manufacturer_did: str, tid: str) -> None:
        """Claim a second-hand purchase: reveal the symmetric key to the manufacturer."""
        entry = self.claiming.get(tid)
        if entry is None:
            raise AgentActionError(f"{self.agent_id} holds no purchase data for tid {tid}")
        conn = self.connection_with(manufacturer_did)
        nonce = crypto.fresh_nonce(self.rng)
        self.send(conn, nonce, payload("ownershipClaimReq", tid=tid, pin=None, key=entry.key.key_bytes))

    # -- handlers -------------------------------------------------------------

    def _on_pin_req(self, conn, nonce, p, context) -> str:
        tid = p.body["tid"]
        if tid in self.claiming:  # the first purchase keeps its secrets; a peer cannot overwrite them
            return "rejected:duplicate-tid"
        pin = mint_pin(self.rng)
        key = crypto.generate_symmetric_key(self.rng)
        encrypted_pin = crypto.sym_encrypt(key, 0, pin.encode("ascii"), b"")  # the key is fresh, so counter 0 is too
        self.claiming[tid] = OwnershipClaimingData(pin, key)
        self.world.emit(
            channel=simnet.CHANNEL_AUDIT,
            kind="secret-minted",
            frm=self.agent_id,
            to=conn.remote_agent_id,
            verdict="ok",
            meta={
                "owner": self.agent_id,
                "seller": conn.remote_agent_id,
                "tid": tid,
                "pin": pin,
                "keyHex": key.key_bytes.hex(),
            },
        )
        self.send(conn, nonce, payload("PINResp", encryptedPin=encrypted_pin, tid=tid))
        return "accepted"

    def _on_pin_resp(self, conn, nonce, p, context) -> str:
        if p.body["tid"] != context["tid"]:
            return "rejected:tid-mismatch"
        # opaque to this wallet; a later sale of the product replaces an earlier one
        self.sales[context["productCode"]] = (context["tid"], bytes(p.body["encryptedPin"]))
        return "accepted"

    def _select_credential(self, context: dict, requested: list[str]) -> Optional[VerifiableCredential]:
        vc = self.credentials.get(context["productCode"])
        if vc is None or self.world.registry.is_revoked(vc.credential_id):
            return None
        names = [name for name, _ in vc.attributes]
        return vc if all(r in names for r in requested) else None

    def _on_ownership_proof_req(self, conn, nonce, p, context) -> str:
        vc = self._select_credential(context, p.body["attributes"])
        if vc is None:
            return "rejected:no-matching-credential"
        presentation = present_proof(vc, bytes(p.body["challenge"]), self.did_key)
        self.send(conn, nonce, payload("ownershipProofResp", presentation=presentation), context)
        return "accepted"

    def _on_pin_challenge_req(self, conn, nonce, p, context) -> str:
        tid = p.body["tid"]
        entry = self.claiming.get(tid)
        if entry is None:
            return "rejected:unknown-tid"
        result = evaluate_challenge(pin_numeric(entry.pin), p.body["challengeBy"], p.body["challengeType"])
        # the credential offer that follows runs under the claim's nonce too, and spends the purchase
        self.send(conn, nonce, payload("pinChallengeResp", tid=tid, challengeResult=result), {"tid": tid})
        return "accepted"

    def _on_ownership_claim_resp(self, conn, nonce, p, context) -> str:
        vc = p.body["credential"]
        ok, reason = verify_credential_signature(vc, self.world.registry)
        if ok and self.world.registry.is_revoked(vc.credential_id):
            ok, reason = False, "revoked"
        code = dict(vc.attributes).get("productCode")
        if ok and code is None:
            ok, reason = False, "no-product-code"
        if not ok:
            return f"rejected:{reason}"
        self.credentials[code] = vc  # a retry re-offers the same one; a bought-back product's replaces the revoked one
        self.claiming.pop(context.get("tid"), None)
        self.send(conn, nonce, payload("ownershipClaimAck"))
        return "accepted"

    def _on_ownership_transfer_resp(self, conn, nonce, p, context) -> str:
        return "accepted"  # the manufacturer took the proof; a refusal arrives as a problemReport

    def _on_revoke_vc(self, conn, nonce, p, context) -> str:
        # a notice only: the registry, the one record of revocation, says whether the credential and sale are spent
        code = p.body["productCode"]
        held = self.credentials.get(code)
        if held is not None and self.world.registry.is_revoked(held.credential_id):
            del self.credentials[code]
            self.sales.pop(code, None)
        self.send(conn, nonce, payload("revokeVCResp"))
        return "accepted"


class AdversaryWallet(WalletAgent):
    """Wallet that plays the protocol dishonestly to probe the manufacturer.

    The ``mode`` of each transfer request controls which credential answers
    the proof request: ``self-issued`` presents a credential signed by the
    adversary under its own published definition, ``unknown-creddef``
    references a definition that is not on the registry, and ``garbage``
    presents a victim-definition credential with an invalid signature.
    """

    ROLE = "adversary-wallet"

    def craft_transfer_request(self, manufacturer_did: str, product_code: str, mode: str) -> None:
        """Send a transfer request for a product this wallet never owned."""
        if mode not in FORGERY_MODES:
            raise AgentActionError(f"unknown forgery mode {mode!r}")
        conn = self.connection_with(manufacturer_did)
        nonce = crypto.fresh_nonce(self.rng)
        fake_pin_ct = self.rng.token(40)  # drawn before the TID
        context = {"productCode": product_code, "mode": mode, "victimCredDefId": cred_def_id_of(manufacturer_did)}
        self._request_transfer(conn, nonce, product_code, mint_tid(self.rng), fake_pin_ct, context)

    def _select_credential(self, context: dict, requested: list[str]) -> VerifiableCredential:
        mode = context["mode"]
        if mode == "self-issued":
            # a definition the registry will happily resolve, but not the victim's
            cred_def_id, vdr = cred_def_id_of(self.did), self.world.registry
            if vdr.find_cred_def(cred_def_id) is None:
                vdr.publish_cred_def(cred_def_id, PRODUCT_SCHEMA_ID, self.did, self.did_key.public_key)
        elif mode == "unknown-creddef":
            cred_def_id = "creddef:did:handover:nobody:ghost"
        else:  # "garbage": victim's definition, signature that cannot verify
            cred_def_id = context["victimCredDefId"]
        attributes = dict.fromkeys(PRODUCT_ATTRIBUTE_NAMES, "forged")
        attributes.update(
            productCode=context["productCode"], previouslySoldCount="0", firstPurchaseDate="0", lastPurchaseDate="0"
        )
        return sign_vc(tuple(attributes.items()), cred_def_id, self.did_key, self.world.tick())
