"""Lamport one-time signatures.

The multi-party protocol ΠOptnSFE (Appendix B) has the ideal phase-1
functionality sign the output ``y`` once under a freshly generated key pair,
so a *one-time* signature scheme is exactly what the construction requires.
Lamport signatures are existentially unforgeable for a single message
assuming preimage resistance of SHA-256 — no number theory needed.

The message is hashed to 256 bits; each bit selects one of two secret
preimages whose hashes form the public key.
"""

from __future__ import annotations

from .immutable import Immutable

import functools
import hashlib
import hmac
from dataclasses import dataclass
from typing import Tuple

from .mac import _encode
from .prf import Rng

_HASH_BITS = 256
_CHUNK = 32  # bytes per preimage
#: Bound of the :func:`ver` memo.  Keep it tiny: each entry holds a
#: verification key alive, and a verifier repeats its most recent triples.
VER_MEMO_SIZE = 4
_EXACT_BYTES = {bytes}


@dataclass(frozen=True)
class VerificationKey(Immutable):
    """Lamport public key: 2x256 hash values, flattened."""

    pairs: tuple  # tuple of 256 (h0, h1) byte pairs

    def __post_init__(self):
        if len(self.pairs) != _HASH_BITS:
            raise ValueError("malformed verification key")


@dataclass(frozen=True)
class SigningKey(Immutable):
    pairs: tuple  # tuple of 256 (x0, x1) byte pairs


@dataclass(frozen=True)
class Signature(Immutable):
    preimages: tuple  # 256 revealed preimages


def _digest(message) -> bytes:
    return hashlib.sha256(_encode(message)).digest()


#: Bit ``i`` (least significant first) of every byte value, so a digest
#: expands to its 256 bits with one table lookup per byte.
_BYTE_BITS = tuple(
    tuple((byte >> i) & 1 for i in range(8)) for byte in range(256)
)


def _bits(digest: bytes) -> list:
    return [bit for byte in digest for bit in _BYTE_BITS[byte]]


def gen(rng: Rng) -> Tuple[SigningKey, VerificationKey]:
    """Generate a one-time key pair (paper notation: ``Gen(1^k)``).

    The 512 preimages are drawn in one read, x0 then x1 for each bit: the
    PRG stream does not depend on how it is split into reads, so this is
    the same key pair as drawing each preimage on its own.
    """
    material = rng.randbytes(2 * _HASH_BITS * _CHUNK)
    preimages = [
        material[i:i + _CHUNK] for i in range(0, len(material), _CHUNK)
    ]
    sha256 = hashlib.sha256
    hashes = [sha256(x).digest() for x in preimages]
    sk_pairs = tuple(zip(preimages[0::2], preimages[1::2]))
    vk_pairs = tuple(zip(hashes[0::2], hashes[1::2]))
    return SigningKey(sk_pairs), VerificationKey(vk_pairs)


def sign(message, sk: SigningKey) -> Signature:
    """Sign ``message`` (paper notation: ``Sign(y, sk)``)."""
    bits = _bits(_digest(message))
    return Signature(tuple([pair[bit] for pair, bit in zip(sk.pairs, bits)]))


def ver(message, signature, vk: VerificationKey) -> bool:
    """Verify a signature (paper notation: ``Ver``).

    The hash check is memoised by value, never by ``id()``, on ``(digest,
    preimages, vk.pairs)`` in :func:`_check_preimages`: ΠOptnSFE has every
    honest party verify the same phase-1 triple.  Only preimages that are
    all exact ``bytes`` are looked up, since their equality is content
    equality; anything else, or an unhashable key, is checked directly.
    """
    if not isinstance(signature, Signature):
        return False
    preimages = signature.preimages
    if len(preimages) != _HASH_BITS:
        return False
    try:
        digest = _digest(message)
    except TypeError:
        return False
    pairs = vk.pairs
    if set(map(type, preimages)) == _EXACT_BYTES:
        try:
            return _check_preimages(digest, preimages, pairs)
        except TypeError:
            pass
    return _check_preimages.__wrapped__(digest, preimages, pairs)


@functools.lru_cache(maxsize=VER_MEMO_SIZE)
def _check_preimages(digest: bytes, preimages: tuple, pairs: tuple) -> bool:
    """Does each preimage hash to the public value its digest bit picks?"""
    sha256 = hashlib.sha256
    compare = hmac.compare_digest
    for preimage, pair, bit in zip(preimages, pairs, _bits(digest)):
        if not isinstance(preimage, bytes):
            return False
        if not compare(sha256(preimage).digest(), pair[bit]):
            return False
    return True
