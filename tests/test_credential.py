import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover.credential import (
    PRODUCT_ATTRIBUTE_NAMES,
    PRODUCT_SCHEMA_ID,
    SchemaMismatchError,
    UnpublishedDefinitionError,
    generate_vc,
    present_proof,
    vc_from_wire,
    vc_to_wire,
    verify_credential_signature,
    verify_presentation,
)
from handover.crypto import derive_did, fresh_nonce, generate_signing_key
from handover.registry import VerifiableDataRegistry

from conftest import vc_signed

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
    return make_issuer_env(rng)


def make_issuer_env(rng):
    issuer_keys = generate_signing_key(rng)
    issuer_did = derive_did(issuer_keys.public_key)
    vdr = VerifiableDataRegistry()
    vdr.publish_did_doc(issuer_did, issuer_keys.public_key)
    vdr.publish_schema(PRODUCT_SCHEMA_ID, PRODUCT_ATTRIBUTE_NAMES, issuer_did)
    vdr.publish_cred_def("creddef-1", PRODUCT_SCHEMA_ID, issuer_did, issuer_keys.public_key)
    vdr.create_revocation_registry("revreg-1", issuer_did)
    holder_keys = generate_signing_key(rng)
    holder_did = derive_did(holder_keys.public_key)
    vdr.publish_did_doc(holder_did, holder_keys.public_key)
    return {
        "rng": rng,
        "vdr": vdr,
        "issuer_keys": issuer_keys,
        "issuer_did": issuer_did,
        "holder_keys": holder_keys,
        "holder_did": holder_did,
    }


def issue(env, attrs=None):
    return generate_vc(attrs or SAMPLE_ATTRS, "creddef-1", env["issuer_keys"], env["vdr"])


def edited(vc, **changes):
    """``vc`` as it arrives after someone edits its content and keeps the issuer's signature."""
    content = {"credential_id": vc.credential_id, "cred_def_id": vc.cred_def_id, "attributes": vc.attributes, **changes}
    return vc_from_wire([vc_signed(**content), vc.issuer_signature])


def present(env, vc, nonce):
    return present_proof(vc, nonce, env["holder_keys"])


def verify(env, presentation, nonce):
    return verify_presentation(presentation, nonce, env["vdr"], env["holder_did"], "creddef-1", None)


def test_issuance_roundtrip_attributes_exact(issuer_env):
    vc = issue(issuer_env)
    assert vc.attributes == tuple((n, str(SAMPLE_ATTRS[n])) for n in PRODUCT_ATTRIBUTE_NAMES)
    assert vc_from_wire(vc_to_wire(vc)) == vc
    nonce = fresh_nonce(issuer_env["rng"])
    report = verify(issuer_env, present(issuer_env, vc, nonce), nonce)
    assert report.valid and report.reason == ""


def test_presentation_roundtrip_law(issuer_env):
    # round-trip law over several issuances and nonces
    for index in range(5):
        attrs = dict(SAMPLE_ATTRS, productCode=f"PC-{index}")
        vc = issue(issuer_env, attrs)
        nonce = fresh_nonce(issuer_env["rng"])
        assert verify(issuer_env, present(issuer_env, vc, nonce), nonce).valid


def test_tampered_attribute_value_fails(issuer_env):
    # flip-one-attribute oracle across every schema attribute
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])
    for position, (name, value) in enumerate(vc.attributes):
        mutated_attrs = list(vc.attributes)
        mutated_attrs[position] = (name, value + "X")
        mutated = edited(vc, attributes=mutated_attrs)
        report = verify(issuer_env, present(issuer_env, mutated, nonce), nonce)
        assert not report.valid
        assert report.reason == "bad-issuer-sig"


def test_any_single_byte_mutation_invalidates(issuer_env):
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])

    mutants = [edited(vc, credential_id="vc-" + "0" * 24)]
    sig = bytearray(vc.issuer_signature)
    for index in range(0, len(sig), 7):
        flipped = bytearray(sig)
        flipped[index] ^= 0x40
        mutants.append(dataclasses.replace(vc, issuer_signature=bytes(flipped)))
    for mutant in mutants:
        report = verify(issuer_env, present(issuer_env, mutant, nonce), nonce)
        assert not report.valid


def test_unpublished_cred_def_rejected(issuer_env):
    with pytest.raises(UnpublishedDefinitionError):
        generate_vc(
            SAMPLE_ATTRS,
            "creddef-ghost",
            issuer_env["issuer_keys"],
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
    issuer_env["vdr"].revoke_credential(issuer_env["issuer_did"], "revreg-1", vc.credential_id)
    report = verify(issuer_env, present(issuer_env, vc, nonce), nonce)
    assert not report.valid
    assert report.reason == "revoked"


def test_stale_nonce_rejected(issuer_env):
    vc = issue(issuer_env)
    old_nonce = fresh_nonce(issuer_env["rng"])
    new_nonce = fresh_nonce(issuer_env["rng"])
    presentation = present(issuer_env, vc, old_nonce)
    report = verify(issuer_env, presentation, new_nonce)
    assert not report.valid
    assert report.reason == "nonce-mismatch"


def test_wrong_holder_key_rejected(issuer_env):
    # the holder binding is the key the registry resolves for the holder's DID, whoever else signed or is named
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])
    presentation = present(issuer_env, vc, nonce)
    stranger = generate_signing_key(issuer_env["rng"])
    stranger_did = derive_did(stranger.public_key)
    issuer_env["vdr"].publish_did_doc(stranger_did, stranger.public_key)
    signed_by_stranger = present_proof(vc, nonce, stranger)
    unpublished = derive_did(generate_signing_key(issuer_env["rng"]).public_key)
    for forged, holder_did in (
        (presentation, stranger_did),
        (signed_by_stranger, issuer_env["holder_did"]),
        (presentation, unpublished),
        (presentation, "did:handover:ghost"),
    ):
        report = verify_presentation(forged, nonce, issuer_env["vdr"], holder_did, "creddef-1", None)
        assert report.reason == "bad-holder-sig"


def test_unknown_issuer_rejected(issuer_env):
    vc = issue(issuer_env)
    nonce = fresh_nonce(issuer_env["rng"])
    ghost = edited(vc, cred_def_id="creddef-nobody")
    report = verify(issuer_env, present(issuer_env, ghost, nonce), nonce)
    assert not report.valid
    assert report.reason == "unknown-issuer"


ATTRIBUTE_VALUES = st.fixed_dictionaries({name: st.text(max_size=12) for name in PRODUCT_ATTRIBUTE_NAMES})


@given(attrs=ATTRIBUTE_VALUES, seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_wire_form_roundtrip_property(attrs, seed):
    env = make_issuer_env(random.Random(seed))
    vc = issue(env, attrs)
    wire = vc_to_wire(vc)
    assert wire == [vc.signed, vc.issuer_signature]
    assert vc_from_wire(wire) == vc
    assert vc_signed(vc.credential_id, vc.cred_def_id, vc.attributes) == vc.signed


@given(attrs=ATTRIBUTE_VALUES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_byte_change_to_signed_bytes_is_caught_property(attrs, data):
    # a credential whose signed bytes changed either no longer decodes or no longer carries its issuer's signature
    env = make_issuer_env(random.Random(3))
    vc = issue(env, attrs)
    index = data.draw(st.integers(0, len(vc.signed) - 1), label="index")
    mask = data.draw(st.integers(1, 255), label="mask")
    changed = bytearray(vc.signed)
    changed[index] ^= mask
    try:
        arrived = vc_from_wire([bytes(changed), vc.issuer_signature])
    except ValueError:
        return
    assert verify_credential_signature(arrived, env["vdr"])[0] is False
