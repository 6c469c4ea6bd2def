"""Protocol message payloads, their canonical codec, and the layered envelope.

An envelope is built encrypt-then-wrap: the sender encrypts the (nonce,
payload) pair under its connection's send key, then wraps that inner layer
with the routing header under its route key.  The mediator learns the
recipient and, from the key id in front of the inner layer, which of the
recipient's connections the message is for; it cannot read the inner layer.

The inner layer is endpoint key id (8) || IV (12) || AES-GCM under the send
key of ["inner", nonce, payload], with the key id as associated data (Aries
RFC 0019 authcrypt).  The outer layer is route id (8) || IV (12) || AES-GCM
of ["route", recipient DID, inner layer] under the route key that the sender
wrapped to the mediator once (``simnet.World.route``), with the route id as
associated data.  ``seal`` draws 12 RNG bytes for the inner IV, then 12 for
the outer IV, and makes no X25519 agreement; DID keys only sign.

The inner layer names no sender: the recipient learns the sender from the key
id, which names one of its pairwise connections, and the layer must
authenticate under that connection's receive key (or the verdict is
``bad-signature``).  Its :class:`ReplayGuard` holds the consumed (nonce, kind)
pairs and the ciphertexts that consumed them: an exact copy is a replay before
any decryption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

from . import crypto
from .credential import PRODUCT_ATTRIBUTES, ProofPresentation, VerifiableCredential, vc_from_wire, vc_to_wire
from .encoding import EncodingError, decode_value, encode

PIN_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
TID_LEN = 16
ACK_STATUSES = ("accepted", "rejected")
CHALLENGE_TYPES = ("+", "-", "*", "/")
CHALLENGE_OPERANDS = range(100, 10_000)  # challengeBy is a 3-4 digit integer


class PayloadError(Exception):
    """Payload is malformed for its kind."""


class EnvelopeReject(Exception):
    """Envelope failed a mandatory check; ``reason`` is machine-readable."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class MessagePayload:
    kind: str
    body: dict


def mint_tid(rng: crypto.Rng) -> str:
    """Fresh tracking id, hex rendering of 16 random bytes."""
    return rng.token(TID_LEN).hex()


def mint_pin(rng: crypto.Rng) -> str:
    """Fresh 6-8 character alphanumeric PIN."""
    length = rng.randint(6, 8)
    return "".join(rng.choice(PIN_ALPHABET) for _ in range(length))


def is_valid_pin(value: str) -> bool:
    return 6 <= len(value) <= 8 and all(c in PIN_ALPHABET for c in value)


# -- field types -------------------------------------------------------------


def _same(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class FieldType:
    """What a field admits, its wire form each way, and how scenario JSON writes it."""

    name: str
    admits: Callable[[Any], bool]
    to_wire: Callable[[Any], Any] = _same
    from_wire: Callable[[Any], Any] = _same  # a wrong shape raises ValueError; ``admits`` checks the result
    from_json: Optional[Callable[[Any], Any]] = _same  # None: scenario JSON cannot write the field


def _hex_from_json(raw: Any) -> Any:
    return bytes.fromhex(raw) if isinstance(raw, str) else raw


def _presentation_to_wire(value: ProofPresentation) -> list:
    return [vc_to_wire(value.credential), value.challenge_nonce, value.presentation_signature]


def _presentation_from_wire(value: Any) -> ProofPresentation:
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError("presentation is not a 3-field list")
    wire_vc, nonce, signature = value
    if not (isinstance(nonce, bytes) and isinstance(signature, bytes)):
        raise ValueError("presentation field has the wrong type")
    return ProofPresentation(vc_from_wire(wire_vc), nonce, signature)


STR = FieldType("a str", lambda v: isinstance(v, str))
INT = FieldType("an int", lambda v: isinstance(v, int) and not isinstance(v, bool))
BYTES = FieldType("bytes", lambda v: isinstance(v, (bytes, bytearray)), to_wire=bytes, from_json=_hex_from_json)
OPT_BYTES = FieldType(
    "bytes or None", lambda v: v is None or BYTES.admits(v), lambda v: None if v is None else bytes(v), _hex_from_json
)
FRACTION = FieldType(
    "a fraction",
    lambda v: isinstance(v, Fraction),
    from_json=lambda raw: Fraction(raw[0], raw[1]) if isinstance(raw, list) else raw,
)
STR_LIST = FieldType(
    "a list of str", lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v), to_wire=list
)
CREDENTIAL = FieldType("a credential", lambda v: isinstance(v, VerifiableCredential), vc_to_wire, vc_from_wire, None)
PRESENTATION = FieldType(
    "a presentation", lambda v: isinstance(v, ProofPresentation), _presentation_to_wire, _presentation_from_wire, None
)
ACK_STATUS = FieldType(f"one of {ACK_STATUSES}", lambda v: isinstance(v, str) and v in ACK_STATUSES)
CHALLENGE_TYPE = FieldType(f"one of {CHALLENGE_TYPES}", lambda v: isinstance(v, str) and v in CHALLENGE_TYPES)
CHALLENGE_BY = FieldType("a 3-4 digit int", lambda v: INT.admits(v) and v in CHALLENGE_OPERANDS)
OPT_PIN = FieldType("a PIN or None", lambda v: v is None or (isinstance(v, str) and is_valid_pin(v)))

# Field order is fixed per kind; it defines the canonical byte layout.
KIND_FIELDS: dict[str, tuple[tuple[str, FieldType], ...]] = {
    "productSellingReq": tuple((name, {str: STR, int: INT}[t]) for name, t in PRODUCT_ATTRIBUTES.items()),
    "productSellingResp": (("tid", STR),),
    "ownershipClaimReq": (("tid", STR), ("pin", OPT_PIN), ("key", OPT_BYTES)),
    "ownershipClaimResp": (("credential", CREDENTIAL),),
    "ownershipClaimAck": (("status", ACK_STATUS),),
    "PINReq": (("tid", STR),),
    "PINResp": (("encryptedPin", BYTES), ("tid", STR)),
    "ownershipTransferReq": (("productCode", STR), ("encryptedPin", BYTES), ("tid", STR)),
    "ownershipTransferResp": (("status", ACK_STATUS),),
    "ownershipProofReq": (("attributes", STR_LIST), ("challenge", BYTES)),
    "ownershipProofResp": (("presentation", PRESENTATION),),
    "pinChallengeReq": (("tid", STR), ("challengeBy", CHALLENGE_BY), ("challengeType", CHALLENGE_TYPE)),
    "pinChallengeResp": (("tid", STR), ("challengeResult", FRACTION)),
    "revokeVC": (("credentialId", STR), ("productCode", STR)),
    "revokeVCResp": (("status", ACK_STATUS),),
}


def payload(kind: str, **fields: Any) -> MessagePayload:
    """Build and validate a payload; raises :class:`PayloadError` on any mismatch."""
    p = MessagePayload(kind=kind, body=dict(fields))
    validate_payload(p)
    return p


def validate_payload(p: MessagePayload) -> None:
    spec = KIND_FIELDS.get(p.kind)
    if spec is None:
        raise PayloadError(f"unknown kind {p.kind!r}")
    names = [name for name, _ in spec]
    if sorted(p.body) != sorted(names):
        raise PayloadError(f"{p.kind}: expected fields {names}, got {sorted(p.body)}")
    for name, ftype in spec:
        if not ftype.admits(p.body[name]):
            raise PayloadError(f"{p.kind}.{name}: {p.body[name]!r} is not {ftype.name}")
    if p.kind == "ownershipClaimReq" and (p.body["pin"] is None) == (p.body["key"] is None):
        raise PayloadError("ownershipClaimReq carries exactly one of (pin, key)")


def canonical_encode_payload(p: MessagePayload) -> bytes:
    """Deterministic, injective byte encoding; field order is fixed per kind."""
    validate_payload(p)
    spec = KIND_FIELDS[p.kind]
    return encode([p.kind] + [ftype.to_wire(p.body[name]) for name, ftype in spec])


def decode_payload(data: bytes) -> MessagePayload:
    try:
        obj = decode_value(data)
    except EncodingError as exc:
        raise PayloadError(f"undecodable payload: {exc}") from exc
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], str):
        raise PayloadError("payload is not a tagged list")
    kind = obj[0]
    spec = KIND_FIELDS.get(kind)
    if spec is None:
        raise PayloadError(f"unknown kind {kind!r}")
    if len(obj) != len(spec) + 1:
        raise PayloadError(f"{kind}: wrong field count")
    try:
        body = {name: ftype.from_wire(raw) for (name, ftype), raw in zip(spec, obj[1:])}
    except ValueError as exc:
        raise PayloadError(f"{kind}: {exc}") from exc
    p = MessagePayload(kind=kind, body=body)
    validate_payload(p)
    return p


# -- envelopes -------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Sealed wire unit; only the mediator can open the outer layer."""

    outer_ciphertext: bytes


@dataclass(frozen=True)
class InnerView:
    """Authenticated inner layer; the payload stays opaque bytes until decoded."""

    nonce: bytes
    payload_bytes: bytes


def seal(
    rng: crypto.Rng,
    send_key: crypto.SymmetricKey,
    endpoint_public_key: bytes,
    route: tuple[bytes, crypto.SymmetricKey],
    recipient_did: str,
    nonce: bytes,
    p: MessagePayload,
) -> Envelope:
    """Encrypt under ``send_key`` for the endpoint's key id, then wrap for the mediator under ``route``'s key."""
    inner_plain = encode(["inner", nonce, canonical_encode_payload(p)])
    key_id = crypto.key_id(endpoint_public_key)
    inner_ct = key_id + crypto.sym_encrypt(rng, send_key, inner_plain, key_id)
    route_id, route_key = route
    outer_plain = encode(["route", recipient_did, inner_ct])
    return Envelope(outer_ciphertext=route_id + crypto.sym_encrypt(rng, route_key, outer_plain, route_id))


def unseal_at_mediator(route_keys: dict[bytes, crypto.SymmetricKey], envelope: Envelope) -> tuple[str, bytes]:
    """Unwrap the outer layer under the route key its id names: (recipient DID, opaque inner ciphertext)."""
    route_id = envelope.outer_ciphertext[: crypto.KEY_ID_LEN]
    if route_id not in route_keys:
        raise crypto.DecryptError("unknown route id")
    plain = crypto.sym_decrypt(route_keys[route_id], envelope.outer_ciphertext[crypto.KEY_ID_LEN :], route_id)
    try:
        label, recipient_did, inner_ct = decode_value(plain)
    except (EncodingError, TypeError, ValueError) as exc:
        raise crypto.DecryptError("malformed outer layer") from exc
    if label != "route" or not isinstance(recipient_did, str) or not isinstance(inner_ct, bytes):
        raise crypto.DecryptError("malformed outer layer")
    return recipient_did, inner_ct


def open_inner(receive_key: crypto.SymmetricKey, inner_ciphertext: bytes) -> InnerView:
    """Decrypt the inner layer under the addressed connection's receive key; the payload is not decoded yet.
    A layer that fails to authenticate is ``bad-signature``; one that authenticates but is malformed, a DecryptError."""
    key_id = inner_ciphertext[: crypto.KEY_ID_LEN]
    try:
        plain = crypto.sym_decrypt(receive_key, inner_ciphertext[crypto.KEY_ID_LEN :], key_id)
    except crypto.DecryptError as exc:
        raise EnvelopeReject("bad-signature") from exc
    try:
        label, nonce, payload_bytes = decode_value(plain)
    except (EncodingError, TypeError, ValueError) as exc:
        raise crypto.DecryptError("malformed inner layer") from exc
    if label != "inner" or not all(isinstance(part, bytes) for part in (nonce, payload_bytes)):
        raise crypto.DecryptError("malformed inner layer")
    return InnerView(nonce=nonce, payload_bytes=payload_bytes)


def verify_inner(view: InnerView) -> tuple[bytes, MessagePayload]:
    """Decode and check the payload of an authenticated inner layer."""
    return view.nonce, decode_payload(view.payload_bytes)


# -- replay discipline -------------------------------------------------------


@dataclass
class ReplayGuard:
    """Consumed (nonce, kind) pairs and the exact ciphertexts that consumed them; a copy is a replay before decryption.
    A state dump lists the pairs only."""

    consumed: set[tuple[bytes, str]] = field(default_factory=set)
    ciphertexts: set[bytes] = field(default_factory=set, repr=False)

    def holds(self, inner_ciphertext: bytes) -> bool:
        return inner_ciphertext in self.ciphertexts

    def register(self, nonce: bytes, kind: str, inner_ciphertext: bytes) -> bool:
        """Consume the pair and record its ciphertext; False means the pair was already seen (replay)."""
        item = (bytes(nonce), kind)
        if item in self.consumed:
            return False
        self.consumed.add(item)
        self.ciphertexts.add(inner_ciphertext)  # the delivered object itself, not a copy
        return True
