"""Simulated verifiable data registry: an append-only log of DID documents,
credential schemas, credential definitions, and revocation events.

The registry is a single in-process log with optional newline-delimited JSON
persistence.  There is no consensus machinery; the log plays the trust-anchor
role only.  Timestamps come from an injected logical clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    """Credential id already revoked, under any revocation registry."""


class UnknownRegistryError(RegistryError):
    pass


@dataclass(frozen=True)
class LedgerEntry:
    entry_id: int
    kind: EntryKind
    payload: bytes
    author_did: str
    timestamp: int


class VerifiableDataRegistry:
    """Append-only ledger readable by every entity in a simulation.

    Each typed writer appends through :meth:`publish`, then updates the one
    index its readers use; the ledger entries are the only full copy.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self._entries: list[LedgerEntry] = []
        self._keys: dict[str, bytes] = {}  # DID -> latest verification key
        self._cred_defs: dict[str, dict] = {}
        self._registry_issuers: dict[str, str] = {}  # revocation registry id -> issuer DID
        self._revoked: set[str] = set()

    # -- low-level log ---------------------------------------------------

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def publish(self, kind: EntryKind, doc: dict, author_did: str) -> int:
        """Append one entry; returns its id. Ids start at 1 and only grow."""
        self_publish = kind is EntryKind.DID_DOC and doc.get("did") == author_did
        if not self_publish and author_did not in self._keys:
            raise AuthorizationError(f"author {author_did} is not resolvable")
        entry_id = len(self._entries) + 1
        payload = canonical_json(doc).encode("utf-8")
        self._entries.append(LedgerEntry(entry_id, kind, payload, author_did, self._clock()))
        return entry_id

    # -- typed writers ---------------------------------------------------

    def publish_did_doc(self, did_uri: str, verification_key: bytes, metadata: dict | None = None) -> int:
        doc = {"did": did_uri, "verification_key": verification_key.hex(), "metadata": metadata or {}}
        entry_id = self.publish(EntryKind.DID_DOC, doc, did_uri)
        self._keys[did_uri] = verification_key
        return entry_id

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
        entry_id = self.publish(EntryKind.CRED_DEF, doc, issuer_did)
        self._cred_defs[cred_def_id] = doc
        return entry_id

    def create_revocation_registry(self, registry_id: str, issuer_did: str) -> int:
        doc = {"registry_id": registry_id, "issuer_did": issuer_did}
        entry_id = self.publish(EntryKind.REVOCATION_REGISTRY, doc, issuer_did)
        self._registry_issuers[registry_id] = issuer_did
        return entry_id

    def revoke_credential(self, issuer_did: str, registry_id: str, credential_id: str) -> int:
        """Record a revocation event; only the registry's issuer may do this, once per credential id."""
        owner = self._registry_issuers.get(registry_id)
        if owner is None:
            raise UnknownRegistryError(f"no revocation registry {registry_id}")
        if owner != issuer_did:
            raise AuthorizationError(f"{issuer_did} is not the issuer of {registry_id}")
        if credential_id in self._revoked:
            raise AlreadyRevokedError(credential_id)
        doc = {"registry_id": registry_id, "credential_id": credential_id}
        entry_id = self.publish(EntryKind.REVOCATION_EVENT, doc, issuer_did)
        self._revoked.add(credential_id)
        return entry_id

    # -- readers -----------------------------------------------------------

    def resolve_did(self, did_uri: str) -> Optional[bytes]:
        """Verification key of the latest DID document for ``did_uri``, or None if never published."""
        return self._keys.get(did_uri)

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
