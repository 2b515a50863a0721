"""Message authentication codes.

The paper's authenticated secret sharing (Appendix A) attaches MAC tags to
shares and to the reconstructed secret.  We instantiate with HMAC-SHA256,
which is existentially unforgeable under standard assumptions; the fairness
events never depend on a forgery, so the concrete scheme only needs to make
cheating detectable, which HMAC does except with probability 2^-128.
"""

from __future__ import annotations

from .immutable import Immutable

import hashlib
import hmac
import struct
from dataclasses import dataclass
from functools import cached_property

from .prf import Rng

TAG_LENGTH = 16  # bytes; 128-bit tags
KEY_LENGTH = 16  # bytes
_BLOCK_SIZE = 64  # SHA-256 block size, the HMAC pad width
#: ``bytes.translate`` tables XOR-ing every byte with the HMAC pads.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
#: The 4-byte big-endian length prefix of a tuple element's encoding.
_pack_length = struct.Struct(">I").pack


@dataclass(frozen=True)
class MacKey(Immutable):
    """An opaque MAC key."""

    material: bytes

    def __post_init__(self):
        if len(self.material) != KEY_LENGTH:
            raise ValueError(f"MAC keys are {KEY_LENGTH} bytes")

    @cached_property
    def _hmac_states(self):
        """SHA-256 states after absorbing the key XOR ipad and XOR opad.

        Computed on first use and kept in the instance dict, outside the
        dataclass fields, so equality, hashing and ``repr`` ignore it;
        :meth:`__getstate__` leaves it out of pickles.
        """
        block = self.material.ljust(_BLOCK_SIZE, b"\0")
        return (
            hashlib.sha256(block.translate(_IPAD)),
            hashlib.sha256(block.translate(_OPAD)),
        )

    def __getstate__(self):
        return {"material": self.material}


def gen_mac_key(rng: Rng) -> MacKey:
    """Sample a fresh MAC key."""
    return MacKey(rng.randbytes(KEY_LENGTH))


def _encode(message) -> bytes:
    """Canonical byte encoding for the message types the library MACs.

    A tuple encodes its exact ``int``/``str``/``bytes`` elements inline
    (every Gordon–Katz reveal token is a ``(str, int, int)``); any other
    element, ``bool``, ``IntEnum``, ``None`` and nested tuples included,
    recurses, which gives the same bytes.
    """
    if isinstance(message, tuple):
        parts = [b"T"]
        append = parts.append
        for m in message:
            kind = type(m)
            if kind is int:
                encoded = b"I%d" % m
            elif kind is str:
                encoded = b"S" + m.encode()
            elif kind is bytes:
                encoded = b"B" + m
            else:
                encoded = _encode(m)
            append(_pack_length(len(encoded)) + encoded)
        return b"".join(parts)
    if isinstance(message, bytes):
        return b"B" + message
    if isinstance(message, int):
        return b"I" + str(message).encode()
    if isinstance(message, str):
        return b"S" + message.encode()
    if message is None:
        return b"N"
    raise TypeError(f"cannot MAC message of type {type(message).__name__}")


def tag(message, key: MacKey) -> bytes:
    """Compute a MAC tag for ``message`` under ``key``.

    Mirrors the paper's ``tag(x, k)`` notation.  HMAC-SHA256, truncated;
    byte-identical to ``hmac.new(key.material, _encode(message),
    hashlib.sha256).digest()[:TAG_LENGTH]``, but resumed from the key's
    cached pad states instead of re-hashing the pads on every call.
    """
    inner_state, outer_state = key._hmac_states
    inner = inner_state.copy()
    inner.update(_encode(message))
    outer = outer_state.copy()
    outer.update(inner.digest())
    return outer.digest()[:TAG_LENGTH]


def verify(message, candidate_tag: bytes, key: MacKey) -> bool:
    """Constant-time verification of a MAC tag.

    ``False``, never an exception, when ``candidate_tag`` is not ``bytes``
    or :func:`_encode` cannot encode ``message``: a malformed tag or
    message fails verification like a wrong one.
    """
    if not isinstance(candidate_tag, bytes):
        return False
    try:
        expected = tag(message, key)
    except TypeError:
        return False
    return hmac.compare_digest(expected, candidate_tag)
