"""Verifiable credential lifecycle: issuance, presentation, and verification
with a registry-backed revocation check.

The schema and each issuer's credential definition live on the registry only;
code holds the definition id, which :func:`cred_def_id_of` derives from the
issuer DID.

Credentials are plain signed attribute bundles over a canonical byte encoding;
presentations bind a credential to a verifier-chosen challenge nonce so they
cannot be replayed.  Issuer and holder sign with their DID keys.  A
presentation names no holder: the verifier checks the holder signature under
the key the registry resolves for its connection's DID, as anyone could.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from . import crypto
from .encoding import encode
from .registry import VerifiableDataRegistry

# Each product attribute and the type of its value; a credential carries every value as a string.
PRODUCT_ATTRIBUTES = {
    "productCode": str,
    "distributorID": str,
    "ConnID": str,
    "status": str,
    "previouslySoldCount": int,
    "firstPurchaseDate": int,
    "lastPurchaseDate": int,
    "email": str,
}
PRODUCT_ATTRIBUTE_NAMES = tuple(PRODUCT_ATTRIBUTES)

PRODUCT_SCHEMA_ID = "product-ownership-v1"


class CredentialError(Exception):
    pass


class SchemaMismatchError(CredentialError):
    """Attributes do not exactly match the schema."""


class UnpublishedDefinitionError(CredentialError):
    """Credential definition is not on the registry."""


@dataclass(frozen=True)
class VerifiableCredential:
    credential_id: str
    cred_def_id: str
    attributes: tuple[tuple[str, str], ...]
    issuer_signature: bytes
    revocation_registry_id: str
    issued_at: int

    def attribute(self, name: str) -> str:
        for key, value in self.attributes:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class ProofPresentation:
    credential: VerifiableCredential
    challenge_nonce: bytes
    presentation_signature: bytes


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    reasons: tuple[str, ...]


def cred_def_id_of(issuer_did: str) -> str:
    """Id of the product credential definition ``issuer_did`` publishes."""
    return f"creddef:{issuer_did}:{PRODUCT_SCHEMA_ID}"


def vc_to_wire(vc: VerifiableCredential) -> list:
    return [
        vc.credential_id,
        vc.cred_def_id,
        [[name, value] for name, value in vc.attributes],
        vc.issuer_signature,
        vc.revocation_registry_id,
        vc.issued_at,
    ]


def vc_from_wire(obj: Any) -> VerifiableCredential:
    """Invert :func:`vc_to_wire`; any other shape raises ``ValueError``."""
    if not isinstance(obj, list) or len(obj) != 6:
        raise ValueError("credential is not a 6-field list")
    credential_id, cred_def_id, attrs, signature, registry_id, issued_at = obj
    if not (
        all(isinstance(v, str) for v in (credential_id, cred_def_id, registry_id))
        and isinstance(attrs, list)
        and all(isinstance(a, list) and len(a) == 2 and all(isinstance(v, str) for v in a) for a in attrs)
        and isinstance(signature, bytes)
        and type(issued_at) is int
    ):
        raise ValueError("credential field has the wrong type")
    return VerifiableCredential(
        credential_id=credential_id,
        cred_def_id=cred_def_id,
        attributes=tuple((n, v) for n, v in attrs),
        issuer_signature=signature,
        revocation_registry_id=registry_id,
        issued_at=issued_at,
    )


def credential_signing_bytes(credential_id: str, cred_def_id: str, attributes: Sequence[tuple[str, str]]) -> bytes:
    return encode(["vc", credential_id, cred_def_id, [[n, v] for n, v in attributes]])


def generate_vc(
    attributes: Mapping[str, object],
    cred_def_id: str,
    issuer_keys: crypto.SigningKey,
    revocation_registry_id: str,
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
    return sign_vc(ordered, cred_def_id, issuer_keys, revocation_registry_id, issued_at)


def sign_vc(
    ordered: tuple[tuple[str, str], ...],
    cred_def_id: str,
    issuer_keys: crypto.SigningKey,
    revocation_registry_id: str,
    issued_at: int,
) -> VerifiableCredential:
    """Sign ``ordered`` attributes under ``cred_def_id``, checking neither against the registry."""
    material = encode([cred_def_id, [[n, v] for n, v in ordered], issued_at])
    credential_id = "vc-" + hashlib.sha256(material).hexdigest()[:24]
    signature = crypto.sign(issuer_keys, credential_signing_bytes(credential_id, cred_def_id, ordered))
    return VerifiableCredential(
        credential_id=credential_id,
        cred_def_id=cred_def_id,
        attributes=ordered,
        issuer_signature=signature,
        revocation_registry_id=revocation_registry_id,
        issued_at=issued_at,
    )


def presentation_signing_bytes(vc: VerifiableCredential, challenge_nonce: bytes) -> bytes:
    return encode(["vp", vc_to_wire(vc), challenge_nonce])


def present_proof(vc: VerifiableCredential, challenge_nonce: bytes, holder_key: crypto.SigningKey) -> ProofPresentation:
    """Wrap a credential in a presentation bound to ``challenge_nonce``, signed with the holder's DID key."""
    signature = crypto.sign(holder_key, presentation_signing_bytes(vc, challenge_nonce))
    return ProofPresentation(credential=vc, challenge_nonce=bytes(challenge_nonce), presentation_signature=signature)


def verify_credential_signature(vc: VerifiableCredential, vdr: VerifiableDataRegistry) -> tuple[bool, str]:
    """Check the issuer signature against the registry-resolved issuer key."""
    cred_def = vdr.find_cred_def(vc.cred_def_id)
    if cred_def is None:
        return False, "unknown-issuer"
    issuer_key = vdr.resolve_did(cred_def["issuer_did"])
    if issuer_key is None:
        return False, "unknown-issuer"
    ok = crypto.verify(
        issuer_key,
        credential_signing_bytes(vc.credential_id, vc.cred_def_id, vc.attributes),
        vc.issuer_signature,
    )
    return (True, "") if ok else (False, "bad-issuer-sig")


def verify_presentation(
    presentation: ProofPresentation,
    expected_nonce: bytes,
    vdr: VerifiableDataRegistry,
    holder_did: str,
) -> VerificationReport:
    """Full verification: issuer signature, holder binding to ``holder_did``, nonce echo, revocation.

    Never raises; failures accumulate in ``reasons``.  A holder DID that does not resolve is ``bad-holder-sig``.
    """
    reasons: list[str] = []
    ok, reason = verify_credential_signature(presentation.credential, vdr)
    if not ok:
        reasons.append(reason)
    holder_key = vdr.resolve_did(holder_did)
    holder_ok = holder_key is not None and crypto.verify(
        holder_key,
        presentation_signing_bytes(presentation.credential, presentation.challenge_nonce),
        presentation.presentation_signature,
    )
    if not holder_ok:
        reasons.append("bad-holder-sig")
    if presentation.challenge_nonce != expected_nonce:
        reasons.append("nonce-mismatch")
    if vdr.is_revoked(presentation.credential.credential_id):
        reasons.append("revoked")
    return VerificationReport(valid=not reasons, reasons=tuple(reasons))
