import json

import pytest

from handover.crypto import Rng, derive_did, generate_keypair
from handover.encoding import canonical_json
from handover.registry import (
    AlreadyRevokedError,
    AuthorizationError,
    EntryKind,
    UnknownRegistryError,
    VerifiableDataRegistry,
)


@pytest.fixture
def issuer(rng):
    return derive_did(generate_keypair(rng).public_key)


@pytest.fixture
def vdr(issuer):
    registry = VerifiableDataRegistry(clock=lambda: 0)
    registry.publish_did_doc(issuer.uri, issuer.verification_key)
    return registry


def test_first_entry_id_is_one():
    registry = VerifiableDataRegistry(clock=lambda: 0)
    keys = generate_keypair(Rng(1))
    did = derive_did(keys.public_key)
    assert registry.publish_did_doc(did.uri, did.verification_key) == 1


def test_entry_ids_strictly_increase(vdr, issuer):
    first = vdr.publish_schema("schema-a", ["x"], issuer.uri)
    second = vdr.publish_schema("schema-b", ["y"], issuer.uri)
    assert second == first + 1
    ids = [e.entry_id for e in vdr.entries]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_publish_then_resolve_roundtrip(vdr, issuer):
    vdr.publish_schema("schema-a", ["x", "y"], issuer.uri)
    entry = vdr.entries[-1]
    assert (entry.kind, entry.author_did) == (EntryKind.SCHEMA, issuer.uri)
    assert json.loads(entry.payload) == {"schema_id": "schema-a", "attribute_names": ["x", "y"]}


def test_resolve_unknown_did_not_found(vdr):
    assert vdr.resolve_did("did:handover:nobody") is None


def test_latest_did_doc_wins(vdr, issuer, rng):
    # replay-log oracle: scan the raw entries and keep the last matching doc
    new_key = generate_keypair(rng).public_key
    vdr.publish_did_doc(issuer.uri, new_key)
    latest_payload = None
    for entry in vdr.entries:
        if entry.kind is EntryKind.DID_DOC and json.loads(entry.payload)["did"] == issuer.uri:
            latest_payload = json.loads(entry.payload)
    assert vdr.resolve_did(issuer.uri) == bytes.fromhex(latest_payload["verification_key"])
    assert vdr.resolve_did(issuer.uri) == new_key


def test_unresolvable_author_rejected(vdr):
    with pytest.raises(AuthorizationError):
        vdr.publish_schema("schema-x", ["a"], "did:handover:ghost")


def test_revocation_lifecycle(vdr, issuer):
    vdr.create_revocation_registry("revreg-1", issuer.uri)
    assert not vdr.is_revoked("vc-001")  # issued, not revoked
    assert not vdr.is_revoked("vc-never-issued")
    vdr.revoke_credential(issuer.uri, "revreg-1", "vc-001")
    assert vdr.is_revoked("vc-001")


def test_revocation_requires_issuer(vdr, issuer, rng):
    other = derive_did(generate_keypair(rng).public_key)
    vdr.publish_did_doc(other.uri, other.verification_key)
    vdr.create_revocation_registry("revreg-1", issuer.uri)
    with pytest.raises(AuthorizationError):
        vdr.revoke_credential(other.uri, "revreg-1", "vc-001")


def test_double_revocation_rejected(vdr, issuer):
    vdr.create_revocation_registry("revreg-1", issuer.uri)
    vdr.revoke_credential(issuer.uri, "revreg-1", "vc-001")
    with pytest.raises(AlreadyRevokedError):
        vdr.revoke_credential(issuer.uri, "revreg-1", "vc-001")


def test_double_revocation_rejected_across_registries(vdr, issuer):
    # revocation is global, as is_revoked is: a second registry cannot revoke the id again
    vdr.create_revocation_registry("revreg-1", issuer.uri)
    vdr.create_revocation_registry("revreg-2", issuer.uri)
    vdr.revoke_credential(issuer.uri, "revreg-1", "vc-001")
    with pytest.raises(AlreadyRevokedError):
        vdr.revoke_credential(issuer.uri, "revreg-2", "vc-001")


def test_unknown_registry_rejected(vdr, issuer):
    with pytest.raises(UnknownRegistryError):
        vdr.revoke_credential(issuer.uri, "revreg-missing", "vc-001")


def test_revocation_is_monotone(vdr, issuer):
    vdr.create_revocation_registry("revreg-1", issuer.uri)
    vdr.revoke_credential(issuer.uri, "revreg-1", "vc-001")
    for index in range(3):
        vdr.publish_schema(f"schema-{index}", ["x"], issuer.uri)
        assert vdr.is_revoked("vc-001")


def test_ledger_lines_canonical(vdr, issuer, tmp_path):
    vdr.publish_schema("schema-a", ["x"], issuer.uri)
    path = tmp_path / "ledger.ndjson"
    vdr.write_ledger(str(path))
    lines = path.read_text().splitlines()
    assert lines == vdr.ledger_lines()
    for line in lines:
        record = json.loads(line)
        assert canonical_json(record) == line
