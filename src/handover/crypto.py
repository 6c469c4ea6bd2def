"""Cryptographic toolkit: seeded randomness, signing and agreement keys,
channel keys, hybrid and symmetric authenticated encryption, nonces, DID
derivation.

Every random draw goes through an injected :class:`Rng` handle so that a whole
simulation run is reproducible from a single seed.  A key has one job, as DID
Core keeps ``assertionMethod`` apart from ``keyAgreement``: an Ed25519
:class:`SigningKey` derives a DID and signs credentials and presentations; an
X25519 :class:`KeyPair` only agrees.  Each is a raw 32-byte public key and a
private key parsed once; a pair also carries its key id.  A hybrid ciphertext
is recipient key id (8) || ephemeral X25519 public key (32) || AES-GCM IV (12)
|| ciphertext+tag; the AES key hashes in the ephemeral and the recipient's key
(ECDH-ES, RFC 7518 4.6).  It wraps each sender's route key to the mediator
once, drawing 32 RNG bytes for the ephemeral key, then 12 for the IV.
:func:`sym_encrypt` (AES-GCM) serves every other ciphertext: a PIN, each
connection message under the sender's :func:`channel_keys` send key (Aries
RFC 0019 authcrypt), each outer layer under its sender's route key.  X25519
gives both ends the same secret (RFC 7748 6.1), so a connection runs one
agreement: one side's (send, receive) pair is the other's swapped.
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


class Rng:
    """Deterministic byte/number source; one per simulation world.

    Not a CSPRNG: determinism under a fixed seed is the point, so adversarial
    scenarios replay bit-exactly.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._inner = random.Random(seed)

    def token(self, n: int) -> bytes:
        return self._inner.randbytes(n)

    def randint(self, lo: int, hi: int) -> int:
        return self._inner.randint(lo, hi)

    def choice(self, seq):
        return self._inner.choice(seq)


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


def generate_keypair(rng: Rng) -> KeyPair:
    """Generate a fresh X25519 agreement pair from the injected RNG (32 bytes)."""
    agreer = X25519PrivateKey.from_private_bytes(rng.token(32))
    public_key = agreer.public_key().public_bytes_raw()
    return KeyPair(public_key, agreer, key_id(public_key))


def generate_signing_key(rng: Rng) -> SigningKey:
    """Generate a fresh Ed25519 DID key from the injected RNG (32 bytes)."""
    signer = Ed25519PrivateKey.from_private_bytes(rng.token(32))
    return SigningKey(signer.public_key().public_bytes_raw(), signer)


def _check_key(key: bytes, what: str) -> None:
    if not isinstance(key, (bytes, bytearray)) or len(key) != _PUBLIC_KEY_LEN:
        raise KeyFormatError(f"{what} must be {_PUBLIC_KEY_LEN} bytes, got {len(key) if isinstance(key, (bytes, bytearray)) else type(key)}")


def sign(keys: SigningKey, message: bytes) -> bytes:
    """Sign ``message``; the signature verifies only under ``keys.public_key``."""
    if not message:
        raise ValueError("refusing to sign an empty message")
    return keys.signer.sign(bytes(message))


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Return True iff ``signature`` is valid for ``message`` under ``public_key``."""
    _check_key(public_key, "public key")
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(bytes(signature), bytes(message))
        return True
    except (InvalidSignature, ValueError):
        return False


def channel_keys(local: KeyPair, peer_public_key: bytes) -> tuple[SymmetricKey, SymmetricKey]:
    """``local``'s (send, receive) keys: one X25519 agreement hashed with both keys, sender first; the peer's are swapped."""
    _check_key(peer_public_key, "public key")
    shared = local.agreer.exchange(X25519PublicKey.from_public_bytes(peer_public_key))
    ends = (local.public_key, peer_public_key)
    return tuple(
        SymmetricKey(hashlib.blake2b(b"handover/channel-v1" + sender + recipient, key=shared, digest_size=SYM_KEY_LEN).digest())
        for sender, recipient in (ends, ends[::-1])
    )


def _hybrid_key(shared: bytes, eph_pub: bytes, recipient_public_key: bytes) -> bytes:
    return hashlib.sha256(b"handover/hybrid-v1" + shared + eph_pub + recipient_public_key).digest()


def key_id(public_key: bytes) -> bytes:
    """The id a ciphertext to the agreement key ``public_key`` starts with: a hash of the key."""
    return hashlib.sha256(b"handover/key-id-v1" + public_key).digest()[:KEY_ID_LEN]


def asym_encrypt(rng: Rng, public_key: bytes, plaintext: bytes) -> bytes:
    """Hybrid encryption to ``public_key`` under a fresh ephemeral X25519 key (layout above)."""
    _check_key(public_key, "public key")
    ephemeral = X25519PrivateKey.from_private_bytes(rng.token(32))
    eph_pub = ephemeral.public_key().public_bytes_raw()
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(public_key))
    key = _hybrid_key(shared, eph_pub, public_key)
    iv = rng.token(_GCM_IV_LEN)
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


def generate_symmetric_key(rng: Rng) -> SymmetricKey:
    return SymmetricKey(rng.token(SYM_KEY_LEN))


def sym_encrypt(rng: Rng, key: SymmetricKey, plaintext: bytes, associated_data: bytes) -> bytes:
    """AES-GCM with a fresh IV per call: IV (12) || ciphertext+tag; the tag also covers ``associated_data``."""
    iv = rng.token(_GCM_IV_LEN)
    return iv + key.aead.encrypt(iv, bytes(plaintext), associated_data)


def sym_decrypt(key: SymmetricKey, ciphertext: bytes, associated_data: bytes) -> bytes:
    """Invert :func:`sym_encrypt`; raises :class:`DecryptError` on tampering, another key or other associated data."""
    if len(ciphertext) < _GCM_IV_LEN + _GCM_TAG_LEN:
        raise DecryptError("ciphertext truncated")
    try:
        return key.aead.decrypt(ciphertext[:_GCM_IV_LEN], bytes(ciphertext[_GCM_IV_LEN:]), associated_data)
    except InvalidTag as exc:
        raise DecryptError("authentication failed") from exc


def fresh_nonce(rng: Rng) -> bytes:
    """Draw a fresh 16-byte nonce; collisions are negligible at simulation scale."""
    return rng.token(NONCE_LEN)


def derive_did(verification_key: bytes) -> str:
    """The DID of an Ed25519 verification key, ``did:handover:<id>``; re-derivation always matches."""
    _check_key(verification_key, "verification key")
    digest = hashlib.sha256(verification_key).digest()[:20]
    return f"did:{DID_METHOD}:" + base64.b32encode(digest).decode("ascii").lower().rstrip("=")
