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

    Every write goes through :meth:`publish`, which checks its kind's rule and
    then updates the one index its readers use; the typed writers only build
    the document.  An entry is kept once, as the canonical JSON line
    :meth:`write_ledger` writes; those lines are the only full copy.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        self._entries: list[str] = []
        self._keys: dict[str, bytes] = {}  # DID -> the verification key it derives from
        self._cred_defs: dict[str, dict] = {}
        self._revocation_registries: dict[str, dict] = {}
        self._revoked: set[str] = set()

    # -- low-level log ---------------------------------------------------

    @property
    def entries(self) -> tuple[str, ...]:
        """One canonical JSON line per entry, in append order."""
        return tuple(self._entries)

    def publish(self, kind: str, doc: dict, author_did: str) -> int:
        """Append one entry; returns its id. Ids start at 1 and only grow.

        A DID document is its author's and carries the key its DID derives
        from, and no other; :meth:`resolve_did` then answers that key.  Any
        other entry needs a resolvable author.  A credential definition or a
        revocation registry names its author as issuer, and the first write of
        its id wins; a revocation event, a registry of its author's and a
        credential not yet revoked.
        """
        if kind == "did-doc":
            try:
                key = bytes.fromhex(doc["verification_key"])
                ok = doc["did"] == author_did == crypto.derive_did(key)
            except (KeyError, TypeError, ValueError, crypto.KeyFormatError):
                ok = False
            if not ok:
                raise AuthorizationError(f"{author_did} does not derive from the key offered")
        elif author_did not in self._keys:
            raise AuthorizationError(f"author {author_did} is not resolvable")
        elif kind in ("cred-def", "revocation-registry"):
            index = self._cred_defs if kind == "cred-def" else self._revocation_registries
            entry_key = doc["cred_def_id" if kind == "cred-def" else "registry_id"]
            if entry_key in index:
                raise AuthorizationError(f"{kind} {entry_key} is already published")
            if doc["issuer_did"] != author_did:
                raise AuthorizationError(f"{author_did} cannot publish a {kind} for another issuer")
        elif kind == "revocation-event":
            registry = self._revocation_registries.get(doc["registry_id"])
            if registry is None:
                raise UnknownRegistryError(f"no revocation registry {doc['registry_id']}")
            if registry["issuer_did"] != author_did:
                raise AuthorizationError(f"{author_did} is not the issuer of {doc['registry_id']}")
            if doc["credential_id"] in self._revoked:
                raise AlreadyRevokedError(doc["credential_id"])
        entry_id = len(self._entries) + 1
        entry = dict(entry_id=entry_id, kind=kind, payload=doc, author_did=author_did, timestamp=self._clock())
        self._entries.append(canonical_json(entry))
        if kind == "did-doc":
            self._keys[author_did] = key
        elif kind in ("cred-def", "revocation-registry"):
            index[entry_key] = doc
        elif kind == "revocation-event":
            self._revoked.add(doc["credential_id"])
        return entry_id

    # -- typed writers ---------------------------------------------------

    def publish_did_doc(self, did_uri: str, verification_key: bytes, metadata: dict | None = None) -> int:
        doc = {"did": did_uri, "verification_key": verification_key.hex(), "metadata": metadata or {}}
        return self.publish("did-doc", doc, did_uri)

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
        return self.publish("cred-def", doc, issuer_did)

    def create_revocation_registry(self, registry_id: str, issuer_did: str) -> int:
        return self.publish("revocation-registry", {"registry_id": registry_id, "issuer_did": issuer_did}, issuer_did)

    def revoke_credential(self, issuer_did: str, registry_id: str, credential_id: str) -> int:
        """Record a revocation event; only the registry's issuer may do this, once per credential id."""
        doc = {"registry_id": registry_id, "credential_id": credential_id}
        return self.publish("revocation-event", doc, issuer_did)

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
