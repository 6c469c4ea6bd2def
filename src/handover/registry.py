"""Simulated verifiable data registry: an append-only log of DID documents,
credential schemas, credential definitions, and revocation events.

The registry is a single in-process log with optional newline-delimited JSON
persistence.  There is no consensus machinery; the log plays the trust-anchor
role only.  Timestamps come from an injected logical clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from .encoding import canonical_json


class EntryKind(Enum):
    DID_DOC = "did-doc"
    SCHEMA = "schema"
    CRED_DEF = "cred-def"
    REVOCATION_REGISTRY = "revocation-registry"
    REVOCATION_EVENT = "revocation-event"


class RegistryError(Exception):
    pass


class AuthorizationError(RegistryError):
    """Caller is not allowed to write this entry."""


class AlreadyRevokedError(RegistryError):
    """Credential id already present in the revocation registry."""


class UnknownRegistryError(RegistryError):
    pass


@dataclass(frozen=True)
class LedgerEntry:
    entry_id: int
    kind: EntryKind
    payload: bytes
    author_did: str
    timestamp: int


@dataclass(frozen=True)
class DidDocument:
    did: str
    verification_key: bytes
    metadata: dict


@dataclass
class RevocationRegistry:
    registry_id: str
    issuer_did: str
    revoked_ids: set[str] = field(default_factory=set)


class VerifiableDataRegistry:
    """Append-only ledger readable by every entity in a simulation."""

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock = clock
        self._entries: list[LedgerEntry] = []
        self._did_docs: dict[str, DidDocument] = {}
        self._schemas: dict[str, dict] = {}
        self._cred_defs: dict[str, dict] = {}
        self._registries: dict[str, RevocationRegistry] = {}
        self._revoked: set[str] = set()

    # -- low-level log ---------------------------------------------------

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def _now(self) -> int:
        if self._clock is not None:
            return self._clock()
        return len(self._entries)

    def publish(self, kind: EntryKind, doc: dict, author_did: str) -> int:
        """Append one entry; returns its id. Ids start at 1 and only grow."""
        self_publish = kind is EntryKind.DID_DOC and doc.get("did") == author_did
        if not self_publish and author_did not in self._did_docs:
            raise AuthorizationError(f"author {author_did} is not resolvable")
        entry = LedgerEntry(
            entry_id=len(self._entries) + 1,
            kind=kind,
            payload=canonical_json(doc).encode("utf-8"),
            author_did=author_did,
            timestamp=self._now(),
        )
        self._entries.append(entry)
        self._apply(entry, doc)
        return entry.entry_id

    def _apply(self, entry: LedgerEntry, doc: dict) -> None:
        if entry.kind is EntryKind.DID_DOC:
            self._did_docs[doc["did"]] = DidDocument(
                did=doc["did"],
                verification_key=bytes.fromhex(doc["verification_key"]),
                metadata=doc.get("metadata", {}),
            )
        elif entry.kind is EntryKind.SCHEMA:
            self._schemas[doc["schema_id"]] = doc
        elif entry.kind is EntryKind.CRED_DEF:
            self._cred_defs[doc["cred_def_id"]] = doc
        elif entry.kind is EntryKind.REVOCATION_REGISTRY:
            self._registries[doc["registry_id"]] = RevocationRegistry(
                registry_id=doc["registry_id"], issuer_did=doc["issuer_did"]
            )
        elif entry.kind is EntryKind.REVOCATION_EVENT:
            reg = self._registries[doc["registry_id"]]
            reg.revoked_ids.add(doc["credential_id"])
            self._revoked.add(doc["credential_id"])

    # -- typed writers ---------------------------------------------------

    def publish_did_doc(self, did_uri: str, verification_key: bytes, metadata: dict | None = None) -> int:
        doc = {"did": did_uri, "verification_key": verification_key.hex(), "metadata": metadata or {}}
        return self.publish(EntryKind.DID_DOC, doc, did_uri)

    def publish_schema(self, schema_id: str, attribute_names: Iterable[str], author_did: str) -> int:
        doc = {"schema_id": schema_id, "attribute_names": list(attribute_names)}
        return self.publish(EntryKind.SCHEMA, doc, author_did)

    def publish_cred_def(self, cred_def_id: str, schema_id: str, issuer_did: str, issuer_public_key: bytes) -> int:
        doc = {
            "cred_def_id": cred_def_id,
            "schema_id": schema_id,
            "issuer_did": issuer_did,
            "issuer_public_key": issuer_public_key.hex(),
        }
        return self.publish(EntryKind.CRED_DEF, doc, issuer_did)

    def create_revocation_registry(self, registry_id: str, issuer_did: str) -> int:
        doc = {"registry_id": registry_id, "issuer_did": issuer_did}
        return self.publish(EntryKind.REVOCATION_REGISTRY, doc, issuer_did)

    def revoke_credential(self, issuer_did: str, registry_id: str, credential_id: str) -> int:
        """Record a revocation event; only the registry's issuer may do this."""
        reg = self._registries.get(registry_id)
        if reg is None:
            raise UnknownRegistryError(f"no revocation registry {registry_id}")
        if reg.issuer_did != issuer_did:
            raise AuthorizationError(f"{issuer_did} is not the issuer of {registry_id}")
        if credential_id in reg.revoked_ids:
            raise AlreadyRevokedError(credential_id)
        doc = {"registry_id": registry_id, "credential_id": credential_id}
        return self.publish(EntryKind.REVOCATION_EVENT, doc, issuer_did)

    # -- readers -----------------------------------------------------------

    def resolve_did(self, did_uri: str) -> Optional[DidDocument]:
        """Latest DID document for ``did_uri``, or None if never published."""
        return self._did_docs.get(did_uri)

    def find_schema(self, schema_id: str) -> Optional[dict]:
        return self._schemas.get(schema_id)

    def find_cred_def(self, cred_def_id: str) -> Optional[dict]:
        return self._cred_defs.get(cred_def_id)

    def is_revoked(self, credential_id: str) -> bool:
        return credential_id in self._revoked

    # -- persistence -------------------------------------------------------

    def ledger_lines(self) -> list[str]:
        """One canonical JSON line per entry, in append order."""
        lines = []
        for entry in self._entries:
            lines.append(
                canonical_json(
                    {
                        "entry_id": entry.entry_id,
                        "kind": entry.kind.value,
                        "payload": json.loads(entry.payload),
                        "author_did": entry.author_did,
                        "timestamp": entry.timestamp,
                    }
                )
            )
        return lines

    def write_ledger(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.ledger_lines():
                fh.write(line + "\n")

    @classmethod
    def from_entries(cls, entries: Iterable[LedgerEntry]) -> "VerifiableDataRegistry":
        """Rebuild registry state by replaying a log; used to check append-only semantics."""
        vdr = cls()
        for entry in entries:
            vdr._entries.append(entry)
            vdr._apply(entry, json.loads(entry.payload))
        return vdr
