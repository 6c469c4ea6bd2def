import pytest

from handover.credential import (
    PRODUCT_ATTRIBUTE_NAMES,
    PRODUCT_SCHEMA_ID,
    SchemaMismatchError,
    UnpublishedDefinitionError,
    VerifiableCredential,
    generate_vc,
    present_proof,
    vc_from_wire,
    vc_to_wire,
    verify_presentation,
)
from handover.crypto import derive_did, fresh_nonce, generate_signing_key
from handover.registry import VerifiableDataRegistry

SAMPLE_ATTRS = {
    "productCode": "PC-100",
    "distributorID": "DS",
    "ConnID": "conn-1",
    "status": "sold",
    "previouslySoldCount": 0,
    "firstPurchaseDate": 3,
    "lastPurchaseDate": 3,
    "email": "b1@mail.local",
}


@pytest.fixture
def issuer_env(rng):
    issuer_keys = generate_signing_key(rng)
    issuer_did = derive_did(issuer_keys.public_key)
    vdr = VerifiableDataRegistry(clock=lambda: 0)
    vdr.publish_did_doc(issuer_did.uri, issuer_did.verification_key)
    vdr.publish_schema(PRODUCT_SCHEMA_ID, PRODUCT_ATTRIBUTE_NAMES, issuer_did.uri)
    vdr.publish_cred_def("creddef-1", PRODUCT_SCHEMA_ID, issuer_did.uri, issuer_keys.public_key)
    vdr.create_revocation_registry("revreg-1", issuer_did.uri)
    holder_keys = generate_signing_key(rng)
    holder_did = derive_did(holder_keys.public_key)
    vdr.publish_did_doc(holder_did.uri, holder_did.verification_key)
    return {
        "rng": rng,
        "vdr": vdr,
        "issuer_keys": issuer_keys,
        "issuer_did": issuer_did,
        "holder_keys": holder_keys,
        "holder_did": holder_did,
    }


def issue(env, attrs=None, issued_at=3):
    return generate_vc(
        attrs or SAMPLE_ATTRS,
        "creddef-1",
        env["issuer_keys"],
        "revreg-1",
        issued_at,
        env["vdr"],
    )


def present(env, vc, nonce):
    return present_proof(vc, nonce, env["holder_keys"])


def verify(env, presentation, nonce):
    return verify_presentation(presentation, nonce, env["vdr"], env["holder_did"].uri)


def test_issuance_roundtrip_attributes_exact(issuer_env):
    vc = issue(issuer_env)
    assert vc.attributes == tuple((n, str(SAMPLE_ATTRS[n])) for n in PRODUCT_ATTRIBUTE_NAMES)
    assert vc_from_wire(vc_to_wire(vc)) == vc
    nonce = fresh_nonce(issuer_env["rng"])
    report = verify(issuer_env, present(issuer_env, vc, nonce), nonce)
    assert report.valid and report.reasons == ()


def test_presentation_roundtrip_law(issuer_env):
    # round-trip law over several issuances and nonces
    for index in range(5):
        attrs = dict(SAMPLE_ATTRS, productCode=f"PC-{index}")
        vc = issue(issuer_env, attrs, issued_at=10 + index)
        nonce = fresh_nonce(issuer_env["rng"])
        assert verify(issuer_env, present(issuer_env, vc, nonce), nonce).valid


def test_tampered_attribute_value_fails(issuer_env):
    # flip-one-attribute oracle across every schema attribute
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])
    for position, (name, value) in enumerate(vc.attributes):
        mutated_attrs = list(vc.attributes)
        mutated_attrs[position] = (name, value + "X")
        mutated = VerifiableCredential(
            credential_id=vc.credential_id,
            cred_def_id=vc.cred_def_id,
            attributes=tuple(mutated_attrs),
            issuer_signature=vc.issuer_signature,
            revocation_registry_id=vc.revocation_registry_id,
            issued_at=vc.issued_at,
        )
        report = verify(issuer_env, present(issuer_env, mutated, nonce), nonce)
        assert not report.valid
        assert "bad-issuer-sig" in report.reasons


def test_any_single_byte_mutation_invalidates(issuer_env):
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])

    def reissue(**overrides):
        return VerifiableCredential(**{**vc.__dict__, **overrides})

    mutants = [reissue(credential_id="vc-" + "0" * 24)]
    sig = bytearray(vc.issuer_signature)
    for index in range(0, len(sig), 7):
        flipped = bytearray(sig)
        flipped[index] ^= 0x40
        mutants.append(reissue(issuer_signature=bytes(flipped)))
    for mutant in mutants:
        report = verify(issuer_env, present(issuer_env, mutant, nonce), nonce)
        assert not report.valid


def test_unpublished_cred_def_rejected(issuer_env):
    with pytest.raises(UnpublishedDefinitionError):
        generate_vc(
            SAMPLE_ATTRS,
            "creddef-ghost",
            issuer_env["issuer_keys"],
            "revreg-1",
            1,
            issuer_env["vdr"],
        )


def test_schema_mismatch_rejected(issuer_env):
    missing = dict(SAMPLE_ATTRS)
    del missing["email"]
    with pytest.raises(SchemaMismatchError):
        issue(issuer_env, missing)
    extra = dict(SAMPLE_ATTRS, bonus="nope")
    with pytest.raises(SchemaMismatchError):
        issue(issuer_env, extra)


def test_revoked_credential_rejected(issuer_env):
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])
    issuer_env["vdr"].revoke_credential(issuer_env["issuer_did"].uri, "revreg-1", vc.credential_id)
    report = verify(issuer_env, present(issuer_env, vc, nonce), nonce)
    assert not report.valid
    assert report.reasons == ("revoked",)


def test_stale_nonce_rejected(issuer_env):
    vc = issue(issuer_env)
    old_nonce = fresh_nonce(issuer_env["rng"])
    new_nonce = fresh_nonce(issuer_env["rng"])
    presentation = present(issuer_env, vc, old_nonce)
    report = verify(issuer_env, presentation, new_nonce)
    assert not report.valid
    assert "nonce-mismatch" in report.reasons


def test_wrong_holder_key_rejected(issuer_env):
    # the holder binding is the key the registry resolves for the holder's DID, whoever else signed or is named
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])
    presentation = present(issuer_env, vc, nonce)
    stranger = generate_signing_key(issuer_env["rng"])
    stranger_did = derive_did(stranger.public_key)
    issuer_env["vdr"].publish_did_doc(stranger_did.uri, stranger.public_key)
    signed_by_stranger = present_proof(vc, nonce, stranger)
    unpublished = derive_did(generate_signing_key(issuer_env["rng"]).public_key).uri
    for forged, holder_did in (
        (presentation, stranger_did.uri),
        (signed_by_stranger, issuer_env["holder_did"].uri),
        (presentation, unpublished),
        (presentation, "did:handover:ghost"),
    ):
        report = verify_presentation(forged, nonce, issuer_env["vdr"], holder_did)
        assert report.reasons == ("bad-holder-sig",)


def test_unknown_issuer_rejected(issuer_env):
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])
    ghost = VerifiableCredential(**{**vc.__dict__, "cred_def_id": "creddef-nobody"})
    report = verify(issuer_env, present(issuer_env, ghost, nonce), nonce)
    assert not report.valid
    assert "unknown-issuer" in report.reasons
