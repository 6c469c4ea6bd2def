"""Cryptographic toolkit: signing and agreement keys, channel keys, hybrid and
symmetric authenticated encryption, nonces, DID derivation.

Every random draw comes from an injected, seeded :class:`random.Random`
(``simnet.World`` has two), so a whole simulation run is reproducible from a
single seed; it is no CSPRNG, as determinism is the point.  A key has one job,
as DID Core keeps ``assertionMethod`` apart from ``keyAgreement``: an Ed25519
:class:`SigningKey` derives a DID and signs credentials and presentations; an
X25519 :class:`KeyPair` only agrees.  Each is a raw 32-byte public key and a
private key parsed once; a pair also carries its key id.  :func:`sym_encrypt`
(AES-GCM) serves every ciphertext: a PIN, each connection message under the
sender's :func:`channel_keys` send key (Aries RFC 0019 authcrypt), each outer
layer under its sender's :func:`send_key`; it draws nothing, as the caller's
counter is the IV (RFC 5116 3.2).  X25519 gives both ends the same secret (RFC
7748 6.1), so a connection, and a sender's enrollment with the mediator, runs
one agreement: one side's (send, receive) pair is the other's swapped.  No
engine path calls the hybrid :func:`asym_encrypt`; ``bench/tracer.py`` still
wraps it and :func:`asym_decrypt` by name.
"""

from __future__ import annotations

import base64
import hashlib
import random
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

NONCE_LEN = 16
SYM_KEY_LEN = 32
_PUBLIC_KEY_LEN = 32  # an Ed25519 or X25519 public key, raw
KEY_ID_LEN = 8
_GCM_IV_LEN = 12
_GCM_TAG_LEN = 16
_HYBRID_OVERHEAD = KEY_ID_LEN + _PUBLIC_KEY_LEN + _GCM_IV_LEN + _GCM_TAG_LEN

DID_METHOD = "handover"


class CryptoError(Exception):
    """Base class for failures in this module."""


class KeyFormatError(CryptoError):
    """Key material has the wrong length or structure."""


class DecryptError(CryptoError):
    """Ciphertext failed authentication or is structurally invalid."""


@dataclass(frozen=True)
class SigningKey:
    """An Ed25519 DID key; ``signer``, its private key, is outside ``==``, ``hash`` and ``repr``, and so every dump."""

    public_key: bytes
    signer: Ed25519PrivateKey = field(repr=False, compare=False)


@dataclass(frozen=True)
class KeyPair:
    """An X25519 agreement pair; ``agreer`` (its private key) and ``kid`` (its key id) stay out of dumps too."""

    public_key: bytes
    agreer: X25519PrivateKey = field(repr=False, compare=False)
    kid: bytes = field(repr=False, compare=False)


@dataclass(frozen=True)
class SymmetricKey:
    """An AES-256-GCM key; ``aead``, its cipher built once, stays out of ``==`` and dumps, and a copy rebuilds it."""

    key_bytes: bytes
    aead: AESGCM = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.key_bytes) != SYM_KEY_LEN:
            raise KeyFormatError(f"symmetric key must be {SYM_KEY_LEN} bytes")
        object.__setattr__(self, "aead", AESGCM(self.key_bytes))

    def __reduce__(self):
        return SymmetricKey, (self.key_bytes,)


def generate_keypair(rng: random.Random) -> KeyPair:
    """Generate a fresh X25519 agreement pair from the injected RNG (32 bytes)."""
    agreer = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    public_key = agreer.public_key().public_bytes_raw()
    return KeyPair(public_key, agreer, key_id(public_key))


def generate_signing_key(rng: random.Random) -> SigningKey:
    """Generate a fresh Ed25519 DID key from the injected RNG (32 bytes)."""
    signer = Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
    return SigningKey(signer.public_key().public_bytes_raw(), signer)


def _check_key(key: bytes, what: str) -> None:
    if not isinstance(key, bytes) or len(key) != _PUBLIC_KEY_LEN:
        raise KeyFormatError(f"{what} must be {_PUBLIC_KEY_LEN} bytes, got {len(key) if isinstance(key, bytes) else type(key)}")


def sign(keys: SigningKey, message: bytes) -> bytes:
    """Sign ``message``; the signature verifies only under ``keys.public_key``."""
    if not message:
        raise ValueError("refusing to sign an empty message")
    return keys.signer.sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Return True iff ``signature`` is valid for ``message`` under ``public_key``."""
    _check_key(public_key, "public key")
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def _agree(local: KeyPair, peer_public_key: bytes) -> bytes:
    _check_key(peer_public_key, "public key")
    return local.agreer.exchange(X25519PublicKey.from_public_bytes(peer_public_key))


def _direction_key(shared: bytes, sender: bytes, recipient: bytes) -> SymmetricKey:
    return SymmetricKey(hashlib.blake2b(b"handover/channel-v1" + sender + recipient, key=shared, digest_size=SYM_KEY_LEN).digest())


def channel_keys(local: KeyPair, peer_public_key: bytes) -> tuple[SymmetricKey, SymmetricKey]:
    """``local``'s (send, receive) keys: one X25519 agreement hashed with both keys, sender first; the peer's are swapped."""
    shared, ends = _agree(local, peer_public_key), (local.public_key, peer_public_key)
    return _direction_key(shared, *ends), _direction_key(shared, *ends[::-1])


def send_key(local: KeyPair, peer_public_key: bytes) -> SymmetricKey:
    """``channel_keys(local, peer_public_key)[0]`` alone, for an end that only sends (a sender to the mediator)."""
    return _direction_key(_agree(local, peer_public_key), local.public_key, peer_public_key)


def _hybrid_key(shared: bytes, eph_pub: bytes, recipient_public_key: bytes) -> bytes:
    return hashlib.sha256(b"handover/hybrid-v1" + shared + eph_pub + recipient_public_key).digest()


def key_id(public_key: bytes) -> bytes:
    """The id a ciphertext to the agreement key ``public_key`` starts with: a hash of the key."""
    return hashlib.sha256(b"handover/key-id-v1" + public_key).digest()[:KEY_ID_LEN]


def asym_encrypt(rng: random.Random, public_key: bytes, plaintext: bytes) -> bytes:
    """Hybrid encryption to ``public_key`` (ECDH-ES, RFC 7518 4.6): recipient key id (8) || ephemeral X25519 key (32)
    || AES-GCM IV (12) || ciphertext+tag, under a key that hashes in the ephemeral and the recipient's key."""
    _check_key(public_key, "public key")
    ephemeral = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = ephemeral.public_key().public_bytes_raw()
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(public_key))
    key = _hybrid_key(shared, eph_pub, public_key)
    iv = rng.randbytes(_GCM_IV_LEN)
    return key_id(public_key) + eph_pub + iv + AESGCM(key).encrypt(iv, bytes(plaintext), None)


def asym_decrypt(keys: KeyPair, ciphertext: bytes) -> bytes:
    """Invert :func:`asym_encrypt`; raises :class:`DecryptError` on tampering or another key's id."""
    if len(ciphertext) < _HYBRID_OVERHEAD:
        raise DecryptError("ciphertext truncated")
    if ciphertext[:KEY_ID_LEN] != keys.kid:
        raise DecryptError("ciphertext is addressed to another key")
    rest = ciphertext[KEY_ID_LEN:]
    eph_pub, iv, body = rest[:32], rest[32:44], rest[44:]
    try:
        shared = keys.agreer.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        key = _hybrid_key(shared, eph_pub, keys.public_key)
        return AESGCM(key).decrypt(iv, bytes(body), None)
    except (InvalidTag, ValueError) as exc:
        raise DecryptError("authentication failed") from exc


def sym_encrypt(key: SymmetricKey, counter: int, plaintext: bytes, associated_data: bytes) -> bytes:
    """AES-GCM with ``counter`` as the 12-byte big-endian IV: ciphertext+tag, the tag also over ``associated_data``."""
    return key.aead.encrypt(counter.to_bytes(_GCM_IV_LEN, "big"), plaintext, associated_data)


def sym_decrypt(key: SymmetricKey, counter: int, ciphertext: bytes, associated_data: bytes) -> bytes:
    """Invert :func:`sym_encrypt`; raises :class:`DecryptError` on tampering or another key, counter or data."""
    try:
        return key.aead.decrypt(counter.to_bytes(_GCM_IV_LEN, "big"), ciphertext, associated_data)
    except InvalidTag as exc:  # also a ciphertext shorter than the tag
        raise DecryptError("authentication failed") from exc


def fresh_nonce(rng: random.Random) -> bytes:
    """Draw a fresh 16-byte nonce; collisions are negligible at simulation scale."""
    return rng.randbytes(NONCE_LEN)


def derive_did(verification_key: bytes) -> str:
    """The DID of an Ed25519 verification key, ``did:handover:<id>``; re-derivation always matches."""
    _check_key(verification_key, "verification key")
    digest = hashlib.sha256(verification_key).digest()[:20]
    return f"did:{DID_METHOD}:" + base64.b32encode(digest).decode("ascii").lower().rstrip("=")
