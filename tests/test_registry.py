import json

import pytest

from handover.credential import PRODUCT_SCHEMA_ID, cred_def_id_of, sign_vc, verify_credential_signature
from handover.crypto import Rng, derive_did, generate_signing_key
from handover.encoding import canonical_json
from handover.registry import (
    AlreadyRevokedError,
    AuthorizationError,
    UnknownRegistryError,
    VerifiableDataRegistry,
)

from handover.scenarios import build_world, builtin_scenario, execute_step

from conftest import fresh_lifecycle


@pytest.fixture
def issuer_key(rng):
    return generate_signing_key(rng).public_key


@pytest.fixture
def issuer(issuer_key):
    return derive_did(issuer_key)


@pytest.fixture
def vdr(issuer, issuer_key):
    registry = VerifiableDataRegistry(clock=lambda: 0)
    registry.publish_did_doc(issuer, issuer_key)
    return registry


def test_first_entry_id_is_one():
    registry = VerifiableDataRegistry(clock=lambda: 0)
    keys = generate_signing_key(Rng(1))
    assert registry.publish_did_doc(derive_did(keys.public_key), keys.public_key) == 1


def test_entry_ids_strictly_increase(vdr, issuer):
    first = vdr.publish_schema("schema-a", ["x"], issuer)
    second = vdr.publish_schema("schema-b", ["y"], issuer)
    assert second == first + 1
    ids = [json.loads(line)["entry_id"] for line in vdr.entries]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_publish_then_resolve_roundtrip(vdr, issuer):
    vdr.publish_schema("schema-a", ["x", "y"], issuer)
    entry = json.loads(vdr.entries[-1])
    assert (entry["kind"], entry["author_did"]) == ("schema", issuer)
    assert entry["payload"] == {"schema_id": "schema-a", "attribute_names": ["x", "y"]}


def test_resolve_unknown_did_not_found(vdr):
    assert vdr.resolve_did("did:handover:nobody") is None


def test_latest_did_doc_wins(vdr, issuer, issuer_key, rng):
    # a DID document carries the key its DID derives from: a second key for the DID is refused,
    # and a re-published document with the same key is the latest one
    for other_key in (generate_signing_key(rng).public_key, b"\x00" * 5, issuer_key * 2):
        with pytest.raises(AuthorizationError):
            vdr.publish_did_doc(issuer, other_key)
    vdr.publish_did_doc(issuer, issuer_key, {"agent": "re-published"})
    # replay-log oracle: scan the raw entries and keep the last matching doc
    latest_payload = None
    for entry in map(json.loads, vdr.entries):
        if entry["kind"] == "did-doc" and entry["payload"]["did"] == issuer:
            latest_payload = entry["payload"]
    assert latest_payload["metadata"] == {"agent": "re-published"}
    assert vdr.resolve_did(issuer) == bytes.fromhex(latest_payload["verification_key"])
    assert vdr.resolve_did(issuer) == issuer_key
    assert len(vdr.entries) == 2


def test_unresolvable_author_rejected(vdr):
    with pytest.raises(AuthorizationError):
        vdr.publish_schema("schema-x", ["a"], "did:handover:ghost")


def test_revocation_lifecycle(vdr, issuer):
    vdr.create_revocation_registry("revreg-1", issuer)
    assert not vdr.is_revoked("vc-001")  # issued, not revoked
    assert not vdr.is_revoked("vc-never-issued")
    vdr.revoke_credential(issuer, "revreg-1", "vc-001")
    assert vdr.is_revoked("vc-001")


def test_revocation_requires_issuer(vdr, issuer, rng):
    other_key = generate_signing_key(rng).public_key
    other = derive_did(other_key)
    vdr.publish_did_doc(other, other_key)
    vdr.create_revocation_registry("revreg-1", issuer)
    with pytest.raises(AuthorizationError):
        vdr.revoke_credential(other, "revreg-1", "vc-001")


def test_double_revocation_rejected(vdr, issuer):
    vdr.create_revocation_registry("revreg-1", issuer)
    vdr.revoke_credential(issuer, "revreg-1", "vc-001")
    with pytest.raises(AlreadyRevokedError):
        vdr.revoke_credential(issuer, "revreg-1", "vc-001")


def test_double_revocation_rejected_across_registries(vdr, issuer):
    # revocation is global, as is_revoked is: a second registry cannot revoke the id again
    vdr.create_revocation_registry("revreg-1", issuer)
    vdr.create_revocation_registry("revreg-2", issuer)
    vdr.revoke_credential(issuer, "revreg-1", "vc-001")
    with pytest.raises(AlreadyRevokedError):
        vdr.revoke_credential(issuer, "revreg-2", "vc-001")


def test_unknown_registry_rejected(vdr, issuer):
    with pytest.raises(UnknownRegistryError):
        vdr.revoke_credential(issuer, "revreg-missing", "vc-001")


def test_revocation_is_monotone(vdr, issuer):
    vdr.create_revocation_registry("revreg-1", issuer)
    vdr.revoke_credential(issuer, "revreg-1", "vc-001")
    for index in range(3):
        vdr.publish_schema(f"schema-{index}", ["x"], issuer)
        assert vdr.is_revoked("vc-001")


def test_ledger_lines_canonical(vdr, issuer, tmp_path):
    vdr.publish_schema("schema-a", ["x"], issuer)
    path = tmp_path / "ledger.ndjson"
    vdr.write_ledger(str(path))
    lines = path.read_text().splitlines()
    assert lines == list(vdr.entries)
    for line in lines:
        record = json.loads(line)
        assert canonical_json(record) == line


def test_publish_refuses_a_did_doc_that_resolve_would_not_answer(vdr, issuer, rng):
    # the raw writer applies the DID-document rule too: a resolvable author cannot name another DID, and no
    # author can name its own DID with a key that DID does not derive from
    eve_key = generate_signing_key(rng).public_key
    eve = derive_did(eve_key)
    vdr.publish_did_doc(eve, eve_key)
    before = vdr.entries
    for doc, author in (
        ({"did": issuer, "verification_key": eve_key.hex(), "metadata": {}}, eve),
        ({"did": issuer, "verification_key": eve_key.hex(), "metadata": {}}, issuer),
        ({"did": eve, "verification_key": "not hex", "metadata": {}}, eve),
        ({"did": eve, "metadata": {}}, eve),
    ):
        with pytest.raises(AuthorizationError):
            vdr.publish("did-doc", doc, author)
    assert vdr.entries == before
    assert vdr.resolve_did(issuer) != eve_key


def test_the_first_write_of_a_credential_definition_id_wins():
    # after the full lifecycle B2 tries to rebind MF's definition to its own DID and key: the write is refused,
    # so MF's credential still verifies and one B2 signs under MF's definition id still does not
    result = fresh_lifecycle()
    registry, mf, b2 = result.world.registry, result.cast["MF"], result.cast["B2"]
    before = registry.entries
    with pytest.raises(AuthorizationError):
        registry.publish_cred_def(cred_def_id_of(mf.did), PRODUCT_SCHEMA_ID, b2.did, b2.did_key.public_key)
    assert registry.entries == before
    held = b2.credentials["PC-100"]
    assert verify_credential_signature(held, registry) == (True, "")
    forged = sign_vc(held.attributes, cred_def_id_of(mf.did), b2.did_key, result.world.tick())
    assert verify_credential_signature(forged, registry) == (False, "bad-issuer-sig")


def _cred_def(cred_def_id, issuer, key):
    return {"cred_def_id": cred_def_id, "schema_id": PRODUCT_SCHEMA_ID, "issuer_did": issuer, "issuer_public_key": key}


# writes B2 tries against MF's issuer data before the lifecycle starts, through a typed writer and through publish
FOREIGN_WRITES = {
    "cred-def-id-typed": lambda vdr, mf, b2: vdr.publish_cred_def(
        mf.cred_def_id, PRODUCT_SCHEMA_ID, b2.did, b2.did_key.public_key
    ),
    "cred-def-id-publish": lambda vdr, mf, b2: vdr.publish(
        "cred-def", _cred_def(mf.cred_def_id, b2.did, b2.did_key.public_key.hex()), b2.did
    ),
    "cred-def-of-another-issuer": lambda vdr, mf, b2: vdr.publish(
        "cred-def", _cred_def(cred_def_id_of(b2.did), mf.did, mf.did_key.public_key.hex()), b2.did
    ),
    "revocation-registry-id-typed": lambda vdr, mf, b2: vdr.create_revocation_registry(
        mf.revocation_registry_id, b2.did
    ),
    "revocation-registry-id-publish": lambda vdr, mf, b2: vdr.publish(
        "revocation-registry", {"registry_id": mf.revocation_registry_id, "issuer_did": b2.did}, b2.did
    ),
    "revocation-registry-of-another-issuer": lambda vdr, mf, b2: vdr.publish(
        "revocation-registry", {"registry_id": "revreg:new", "issuer_did": mf.did}, b2.did
    ),
    "revocation-event-typed": lambda vdr, mf, b2: vdr.revoke_credential(b2.did, mf.revocation_registry_id, "vc-x"),
    "revocation-event-publish": lambda vdr, mf, b2: vdr.publish(
        "revocation-event", {"registry_id": mf.revocation_registry_id, "credential_id": "vc-x"}, b2.did
    ),
}


@pytest.mark.parametrize("write", FOREIGN_WRITES.values(), ids=FOREIGN_WRITES.keys())
def test_no_one_writes_issuer_data_of_another_issuer(write):
    # before publish applied these rules, B2 could rebind MF's revocation registry, and MF's revocation of the
    # sold credential then raised AuthorizationError out of the used claim
    spec = builtin_scenario("full-lifecycle")
    world, cast = build_world(spec)
    vdr, mf, b2 = world.registry, cast["MF"], cast["B2"]
    before = vdr.entries
    with pytest.raises(AuthorizationError):
        write(vdr, mf, b2)
    assert vdr.entries == before
    for step in spec.script:
        assert execute_step(world, cast, spec, step) == step.expect
    assert vdr.find_cred_def(mf.cred_def_id)["issuer_did"] == mf.did


@pytest.mark.parametrize("writer", ["typed", "publish"])
def test_a_revocation_event_needs_a_known_registry_and_a_live_credential(writer):
    result = fresh_lifecycle()
    vdr, mf = result.world.registry, result.cast["MF"]
    [revoked] = [r["meta"]["credentialId"] for r in result.world.trace if r["kind"] == "vc-revoked"]

    def revoke(registry_id, credential_id):
        if writer == "typed":
            return vdr.revoke_credential(mf.did, registry_id, credential_id)
        return vdr.publish("revocation-event", {"registry_id": registry_id, "credential_id": credential_id}, mf.did)

    before = vdr.entries
    with pytest.raises(UnknownRegistryError):
        revoke("revreg:missing", "vc-x")
    with pytest.raises(AlreadyRevokedError):
        revoke(mf.revocation_registry_id, revoked)
    assert vdr.entries == before
