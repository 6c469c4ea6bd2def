"""Simulated verifiable data registry: an append-only log of DID documents,
credential schemas, credential definitions, and revocation events.

The registry is a single in-process log with optional newline-delimited JSON
persistence.  There is no consensus machinery; the log plays the trust-anchor
role only.  Timestamps come from an injected logical clock.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from . import crypto
from .encoding import canonical_json


class RegistryError(Exception):
    pass


class AuthorizationError(RegistryError):
    """Caller is not allowed to write this entry."""


class AlreadyRevokedError(RegistryError):
    """Credential id already revoked, under any revocation registry."""


class UnknownRegistryError(RegistryError):
    pass


class VerifiableDataRegistry:
    """Append-only ledger readable by every entity in a simulation.

    Each typed writer appends through :meth:`publish`, then updates the one
    index its readers use.  An entry is kept once, as the canonical JSON line
    :meth:`write_ledger` writes; those lines are the only full copy.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self._entries: list[str] = []
        self._keys: dict[str, bytes] = {}  # DID -> the verification key it derives from
        self._cred_defs: dict[str, dict] = {}
        self._registry_issuers: dict[str, str] = {}  # revocation registry id -> issuer DID
        self._revoked: set[str] = set()

    # -- low-level log ---------------------------------------------------

    @property
    def entries(self) -> tuple[str, ...]:
        """One canonical JSON line per entry, in append order."""
        return tuple(self._entries)

    def publish(self, kind: str, doc: dict, author_did: str) -> int:
        """Append one entry; returns its id. Ids start at 1 and only grow."""
        if author_did not in self._keys and not (kind == "did-doc" and doc.get("did") == author_did):
            raise AuthorizationError(f"author {author_did} is not resolvable")
        entry_id = len(self._entries) + 1
        entry = dict(entry_id=entry_id, kind=kind, payload=doc, author_did=author_did, timestamp=self._clock())
        self._entries.append(canonical_json(entry))
        return entry_id

    # -- typed writers ---------------------------------------------------

    def publish_did_doc(self, did_uri: str, verification_key: bytes, metadata: dict | None = None) -> int:
        try:  # a DID document carries the key its DID derives from, and no other
            derived = crypto.derive_did(verification_key).uri
        except crypto.KeyFormatError:
            derived = None
        if derived != did_uri:
            raise AuthorizationError(f"{did_uri} does not derive from the key offered")
        doc = {"did": did_uri, "verification_key": verification_key.hex(), "metadata": metadata or {}}
        entry_id = self.publish("did-doc", doc, did_uri)
        self._keys[did_uri] = verification_key
        return entry_id

    def publish_schema(self, schema_id: str, attribute_names: Iterable[str], author_did: str) -> int:
        doc = {"schema_id": schema_id, "attribute_names": list(attribute_names)}
        return self.publish("schema", doc, author_did)

    def publish_cred_def(self, cred_def_id: str, schema_id: str, issuer_did: str, issuer_public_key: bytes) -> int:
        doc = {
            "cred_def_id": cred_def_id,
            "schema_id": schema_id,
            "issuer_did": issuer_did,
            "issuer_public_key": issuer_public_key.hex(),
        }
        entry_id = self.publish("cred-def", doc, issuer_did)
        self._cred_defs[cred_def_id] = doc
        return entry_id

    def create_revocation_registry(self, registry_id: str, issuer_did: str) -> int:
        doc = {"registry_id": registry_id, "issuer_did": issuer_did}
        entry_id = self.publish("revocation-registry", doc, issuer_did)
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
        entry_id = self.publish("revocation-event", doc, issuer_did)
        self._revoked.add(credential_id)
        return entry_id

    # -- readers -----------------------------------------------------------

    def resolve_did(self, did_uri: str) -> Optional[bytes]:
        """Verification key of ``did_uri``'s DID document, the one its DID derives from, or None if never published."""
        return self._keys.get(did_uri)

    def find_cred_def(self, cred_def_id: str) -> Optional[dict]:
        return self._cred_defs.get(cred_def_id)

    def is_revoked(self, credential_id: str) -> bool:
        return credential_id in self._revoked

    # -- persistence -------------------------------------------------------

    def write_ledger(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self._entries:
                fh.write(line + "\n")
