"""Protocol message payloads, their canonical codec, and the layered envelope.

An envelope is built encrypt-then-wrap: the sender encrypts the nonce and the
payload under its connection's send key, then wraps that inner layer with the
recipient's DID under its route key.  The mediator learns the recipient and,
from the key id in front of the inner layer, which of the recipient's
connections the message is for; it cannot read the inner layer.

Both layers have one format: key id (8) || counter (8, big-endian) || AES-GCM
with the counter as the IV and key id || counter as associated data.  The
inner layer names the recipient's endpoint key and numbers the sender's
messages on the connection (RFC 4303's sequence number) under its send key,
over nonce (16) || payload (Aries RFC 0019 authcrypt).  The outer layer names
the route and numbers the sender's envelopes under the route key it agreed
with the mediator once (``simnet.World.route``), over DID length (2,
big-endian) || recipient DID (UTF-8) || inner layer.  Each key serves one
counter sequence, so no key sees a counter twice; ``seal`` draws no random
bytes, makes no X25519 agreement and no hash, and encodes only the payload.

The inner layer names no sender: the recipient learns the sender from the key
id, which names one of its pairwise connections, and the layer must
authenticate under that connection's receive key (or the verdict is
``bad-signature``).  Each connection direction is delivered in order, so that
connection (``agents.Connection``) keeps only the highest counter it accepted:
a lower or equal one is a replay before any decryption.

``problemReport``, one of the sixteen payload kinds, is every refusal: its one
field is a reason code (Aries RFC 0035), so acknowledgements carry no field.
``REPLIES`` is the protocol's request/reply structure: the one kind that
continues each kind's exchange under its nonce, on a connection and on the
https sale leg alike.  A ``problemReport`` closes whichever exchange it names
and is no reply kind, so one under no open thread still says why.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from . import crypto
from .credential import PRODUCT_ATTRIBUTES, ProofPresentation, VerifiableCredential, vc_from_wire, vc_to_wire
from .encoding import EncodingError, decode_value, encode

PIN_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
TID_LEN = 16
CHALLENGE_TYPES = ("+", "-", "*", "/")
CHALLENGE_OPERANDS = range(100, 10_000)  # challengeBy is a 3-4 digit integer
HEAD_LEN = crypto.KEY_ID_LEN + 8  # key id || 8-byte counter: a layer's clear head and associated data


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

    def __post_init__(self) -> None:
        validate_payload(self)  # so every payload is valid by construction


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
REASON = FieldType("a reason code", lambda v: isinstance(v, str) and bool(re.fullmatch("[a-z-]{1,32}", v)))
CHALLENGE_TYPE = FieldType(f"one of {CHALLENGE_TYPES}", lambda v: isinstance(v, str) and v in CHALLENGE_TYPES)
CHALLENGE_BY = FieldType("a 3-4 digit int", lambda v: INT.admits(v) and v in CHALLENGE_OPERANDS)
OPT_PIN = FieldType("a PIN or None", lambda v: v is None or (isinstance(v, str) and is_valid_pin(v)))

# Field order is fixed per kind; it defines the canonical byte layout.
KIND_FIELDS: dict[str, tuple[tuple[str, FieldType], ...]] = {
    "productSellingReq": tuple((name, {str: STR, int: INT}[t]) for name, t in PRODUCT_ATTRIBUTES.items()),
    "productSellingResp": (("tid", STR),),
    "ownershipClaimReq": (("tid", STR), ("pin", OPT_PIN), ("key", OPT_BYTES)),
    "ownershipClaimResp": (("credential", CREDENTIAL),),
    "ownershipClaimAck": (),
    "PINReq": (("tid", STR),),
    "PINResp": (("encryptedPin", BYTES), ("tid", STR)),
    "ownershipTransferReq": (("productCode", STR), ("encryptedPin", BYTES), ("tid", STR)),
    "ownershipTransferResp": (),
    "ownershipProofReq": (("attributes", STR_LIST), ("challenge", BYTES)),
    "ownershipProofResp": (("presentation", PRESENTATION),),
    "pinChallengeReq": (("tid", STR), ("challengeBy", CHALLENGE_BY), ("challengeType", CHALLENGE_TYPE)),
    "pinChallengeResp": (("tid", STR), ("challengeResult", FRACTION)),
    "revokeVC": (("credentialId", STR), ("productCode", STR)),
    "revokeVCResp": (),
    "problemReport": (("reason", REASON),),
}


_KIND_NAMES = {kind: {name for name, _ in spec} for kind, spec in KIND_FIELDS.items()}  # each kind's field names

# The kind that continues each kind's exchange under its nonce (Aries RFC 0008); a used-product claim, the one that
# carries a key, is continued by ``USED_CLAIM_REPLY`` instead.  A kind with no entry answers and awaits nothing.
REPLIES: dict[str, str] = {
    "productSellingReq": "productSellingResp",
    "ownershipClaimReq": "ownershipClaimResp",
    "ownershipClaimResp": "ownershipClaimAck",
    "PINReq": "PINResp",
    "ownershipTransferReq": "ownershipProofReq",
    "ownershipProofReq": "ownershipProofResp",
    "ownershipProofResp": "ownershipTransferResp",
    "pinChallengeReq": "pinChallengeResp",
    "pinChallengeResp": "ownershipClaimResp",
    "revokeVC": "revokeVCResp",
}
USED_CLAIM_REPLY = "pinChallengeReq"
REPLY_KINDS = frozenset(REPLIES.values()) | {USED_CLAIM_REPLY}  # each must continue an open thread of its receiver


def payload(kind: str, **fields: Any) -> MessagePayload:
    """Build a payload; raises :class:`PayloadError` on any mismatch."""
    return MessagePayload(kind=kind, body=dict(fields))


def reply_to(p: MessagePayload) -> Optional[str]:
    """The kind that continues ``p``'s exchange, or None if ``p`` awaits no reply."""
    if p.kind == "ownershipClaimReq" and p.body["key"] is not None:
        return USED_CLAIM_REPLY
    return REPLIES.get(p.kind)


def validate_payload(p: MessagePayload) -> None:
    spec = KIND_FIELDS.get(p.kind)
    if spec is None:
        raise PayloadError(f"unknown kind {p.kind!r}")
    if p.body.keys() != _KIND_NAMES[p.kind]:
        raise PayloadError(f"{p.kind}: expected fields {[name for name, _ in spec]}, got {sorted(p.body)}")
    for name, ftype in spec:
        if not ftype.admits(p.body[name]):
            raise PayloadError(f"{p.kind}.{name}: {p.body[name]!r} is not {ftype.name}")
    if p.kind == "ownershipClaimReq" and (p.body["pin"] is None) == (p.body["key"] is None):
        raise PayloadError("ownershipClaimReq carries exactly one of (pin, key)")


def canonical_encode_payload(p: MessagePayload) -> bytes:
    """Deterministic, injective byte encoding; field order is fixed per kind."""
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
    return MessagePayload(kind=kind, body=body)


# -- envelopes -------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Sealed wire unit; only the mediator can open the outer layer."""

    outer_ciphertext: bytes


def _layer(key_id: bytes, key: crypto.SymmetricKey, counter: int, plaintext: bytes) -> bytes:
    """Either layer: ``key_id`` || ``counter`` || AES-GCM of ``plaintext`` under ``key``, IV the counter, AD the head."""
    head = key_id + counter.to_bytes(8, "big")
    return head + crypto.sym_encrypt(key, counter, plaintext, head)


def layer_counter(data: bytes) -> int:
    return int.from_bytes(data[crypto.KEY_ID_LEN : HEAD_LEN], "big")


def _open_layer(key: crypto.SymmetricKey, data: bytes) -> bytes:
    return crypto.sym_decrypt(key, layer_counter(data), data[HEAD_LEN:], data[:HEAD_LEN])


def seal(
    send_key: crypto.SymmetricKey,
    counter: int,
    endpoint_kid: bytes,
    route: tuple[bytes, crypto.SymmetricKey, int],
    recipient_did: str,
    nonce: bytes,
    p: MessagePayload,
) -> Envelope:
    """Encrypt message ``counter`` under ``send_key`` for the endpoint's key id, then wrap it as ``route`` says."""
    if len(nonce) != crypto.NONCE_LEN:
        raise ValueError(f"a nonce is {crypto.NONCE_LEN} bytes")
    inner = _layer(endpoint_kid, send_key, counter, nonce + canonical_encode_payload(p))
    did = recipient_did.encode()
    return Envelope(_layer(*route, len(did).to_bytes(2, "big") + did + inner))  # route: (route id, route key, counter)


def unseal_at_mediator(route_keys: dict[bytes, crypto.SymmetricKey], envelope: Envelope) -> tuple[str, bytes]:
    """Unwrap the outer layer under the route key its id names: (recipient DID, opaque inner ciphertext)."""
    route_key = route_keys.get(envelope.outer_ciphertext[: crypto.KEY_ID_LEN])
    if route_key is None:
        raise crypto.DecryptError("unknown route id")
    plain = _open_layer(route_key, envelope.outer_ciphertext)
    end = 2 + int.from_bytes(plain[:2], "big")  # the DID's length takes 2 bytes
    if len(plain) < end:
        raise crypto.DecryptError("outer layer's DID overruns it")
    try:
        return plain[2:end].decode(), plain[end:]
    except UnicodeDecodeError as exc:
        raise crypto.DecryptError("outer layer's DID is not UTF-8") from exc


def open_inner(receive_key: crypto.SymmetricKey, inner_ciphertext: bytes) -> tuple[bytes, bytes]:
    """Decrypt the inner layer under the addressed connection's receive key: (nonce, payload bytes, not decoded yet).
    A layer that fails to authenticate is ``bad-signature``; an authenticated one shorter than a nonce, a PayloadError."""
    try:
        plain = _open_layer(receive_key, inner_ciphertext)
    except crypto.DecryptError as exc:
        raise EnvelopeReject("bad-signature") from exc
    if len(plain) < crypto.NONCE_LEN:
        raise PayloadError("inner layer is shorter than a nonce")
    return plain[: crypto.NONCE_LEN], plain[crypto.NONCE_LEN :]


def verify_inner(nonce: bytes, payload_bytes: bytes) -> tuple[bytes, MessagePayload]:
    """Decode and check the payload of an authenticated inner layer."""
    return nonce, decode_payload(payload_bytes)

