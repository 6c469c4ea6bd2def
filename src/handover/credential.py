"""Verifiable credential lifecycle: issuance, presentation, and verification
with a registry-backed revocation check.

The schema and each issuer's credential definition live on the registry only;
code holds the definition id, which :func:`cred_def_id_of` derives from the
issuer DID.

A credential is an attribute bundle held in one encoded form, ``signed``: the
bytes of ``["vc", id, definition id, attributes]`` that its issuer signed.  It
travels as those bytes and the signature (W3C VC-JOSE-COSE secures a
credential the same way), so a receiver decodes it once and checks the
signature over the bytes that arrived.  Presentations bind a credential to a
verifier-chosen challenge nonce so they cannot be replayed.  Issuer and holder
sign with their DID keys; the ``"vc"`` and ``"vp"`` labels keep a credential's
signed bytes apart from a presentation's, since one DID key may sign both.  A
presentation names no holder: the verifier checks the holder signature under
the key the registry resolves for its connection's DID, as anyone could.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from . import crypto
from .encoding import EncodingError, decode_value, encode
from .registry import VerifiableDataRegistry

# Each product attribute in schema order; a credential carries every value as a string.
PRODUCT_ATTRIBUTE_NAMES = (
    "productCode",
    "distributorID",
    "ConnID",
    "status",
    "previouslySoldCount",
    "firstPurchaseDate",
    "lastPurchaseDate",
    "email",
)

PRODUCT_SCHEMA_ID = "product-ownership-v1"


class CredentialError(Exception):
    pass


class SchemaMismatchError(CredentialError):
    """Attributes do not exactly match the schema."""


class UnpublishedDefinitionError(CredentialError):
    """Credential definition is not on the registry."""


@dataclass(frozen=True)
class VerifiableCredential:
    """Its fields decode ``signed``, the bytes its issuer signed; :func:`sign_vc` and :func:`vc_from_wire` make one."""

    credential_id: str
    cred_def_id: str
    attributes: tuple[tuple[str, str], ...]
    issuer_signature: bytes
    signed: bytes = field(repr=False)


@dataclass(frozen=True)
class ProofPresentation:
    credential: VerifiableCredential
    challenge_nonce: bytes
    presentation_signature: bytes


@dataclass(frozen=True)
class VerificationReport:
    reason: str  # the first check that failed, or "" if every check passed

    @property
    def valid(self) -> bool:
        return not self.reason


def cred_def_id_of(issuer_did: str) -> str:
    """Id of the product credential definition ``issuer_did`` publishes."""
    return f"creddef:{issuer_did}:{PRODUCT_SCHEMA_ID}"


def vc_to_wire(vc: VerifiableCredential) -> list:
    return [vc.signed, vc.issuer_signature]


def vc_from_wire(obj: Any) -> VerifiableCredential:
    """Invert :func:`vc_to_wire`, decoding the signed bytes once; any other shape raises ``ValueError``."""
    if not (isinstance(obj, list) and len(obj) == 2 and all(isinstance(part, bytes) for part in obj)):
        raise ValueError("credential is not [signed bytes, signature]")
    try:
        label, credential_id, cred_def_id, attrs = decode_value(obj[0])
    except (EncodingError, TypeError, ValueError) as exc:
        raise ValueError("credential's signed bytes are not a credential") from exc
    if not (
        label == "vc"
        and isinstance(credential_id, str)
        and isinstance(cred_def_id, str)
        and isinstance(attrs, list)
        and all(isinstance(a, list) and len(a) == 2 and all(isinstance(v, str) for v in a) for a in attrs)
    ):
        raise ValueError("credential's signed bytes are not a credential")
    return VerifiableCredential(credential_id, cred_def_id, tuple((n, v) for n, v in attrs), obj[1], obj[0])


def generate_vc(
    attributes: Mapping[str, object],
    cred_def_id: str,
    issuer_keys: crypto.SigningKey,
    issued_at: int,
    vdr: VerifiableDataRegistry,
) -> VerifiableCredential:
    """Issue a credential over ``attributes``; names must match the schema exactly."""
    if vdr.find_cred_def(cred_def_id) is None:
        raise UnpublishedDefinitionError(cred_def_id)
    missing = [n for n in PRODUCT_ATTRIBUTE_NAMES if n not in attributes]
    extra = [n for n in attributes if n not in PRODUCT_ATTRIBUTE_NAMES]
    if missing or extra:
        raise SchemaMismatchError(f"missing={missing} extra={extra}")
    ordered = tuple((name, str(attributes[name])) for name in PRODUCT_ATTRIBUTE_NAMES)
    return sign_vc(ordered, cred_def_id, issuer_keys, issued_at)


def sign_vc(
    ordered: tuple[tuple[str, str], ...], cred_def_id: str, issuer_keys: crypto.SigningKey, issued_at: int
) -> VerifiableCredential:
    """Sign ``ordered`` attributes under ``cred_def_id``, checking neither against the registry.
    ``issued_at`` only feeds the credential id."""
    attrs = [[n, v] for n, v in ordered]
    credential_id = "vc-" + hashlib.sha256(encode([cred_def_id, attrs, issued_at])).hexdigest()[:24]
    signed = encode(["vc", credential_id, cred_def_id, attrs])
    return VerifiableCredential(credential_id, cred_def_id, ordered, crypto.sign(issuer_keys, signed), signed)


def presentation_signing_bytes(vc: VerifiableCredential, challenge_nonce: bytes) -> bytes:
    return encode(["vp", vc.signed, vc.issuer_signature, challenge_nonce])


def present_proof(vc: VerifiableCredential, challenge_nonce: bytes, holder_key: crypto.SigningKey) -> ProofPresentation:
    """Wrap a credential in a presentation bound to ``challenge_nonce``, signed with the holder's DID key."""
    signature = crypto.sign(holder_key, presentation_signing_bytes(vc, challenge_nonce))
    return ProofPresentation(credential=vc, challenge_nonce=bytes(challenge_nonce), presentation_signature=signature)


def verify_credential_signature(vc: VerifiableCredential, vdr: VerifiableDataRegistry) -> tuple[bool, str]:
    """Check the issuer signature over the bytes that arrived against the registry-resolved issuer key."""
    cred_def = vdr.find_cred_def(vc.cred_def_id)
    if cred_def is None:
        return False, "unknown-issuer"
    issuer_key = vdr.resolve_did(cred_def["issuer_did"])
    if issuer_key is None:
        return False, "unknown-issuer"
    ok = crypto.verify(issuer_key, vc.signed, vc.issuer_signature)
    return (True, "") if ok else (False, "bad-issuer-sig")


def verify_presentation(
    presentation: ProofPresentation,
    expected_nonce: bytes,
    vdr: VerifiableDataRegistry,
    holder_did: str,
    cred_def_id: str,
    issued: VerifiableCredential | None,
) -> VerificationReport:
    """Report the first check ``presentation`` fails, for a verifier that accepts only ``cred_def_id``; never raises.

    Free checks first: the definition is on the registry (``unknown-issuer``) and is ``cred_def_id`` (``wrong-issuer``).
    Then the issuer signature (``bad-issuer-sig``), unless the credential equals ``issued``, the one the verifier
    issued; the holder's under the key ``holder_did`` resolves to (``bad-holder-sig``); ``nonce-mismatch``; ``revoked``.
    """
    vc = presentation.credential
    if vdr.find_cred_def(vc.cred_def_id) is None:
        return VerificationReport("unknown-issuer")
    if vc.cred_def_id != cred_def_id:
        return VerificationReport("wrong-issuer")
    if vc != issued:
        ok, reason = verify_credential_signature(vc, vdr)
        if not ok:
            return VerificationReport(reason)
    holder_key = vdr.resolve_did(holder_did)
    signed = presentation_signing_bytes(vc, presentation.challenge_nonce)
    if holder_key is None or not crypto.verify(holder_key, signed, presentation.presentation_signature):
        return VerificationReport("bad-holder-sig")
    if presentation.challenge_nonce != expected_nonce:
        return VerificationReport("nonce-mismatch")
    if vdr.is_revoked(vc.credential_id):
        return VerificationReport("revoked")
    return VerificationReport("")
