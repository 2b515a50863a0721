"""Hash-based PRG / PRF utilities.

All randomness inside protocol machines is drawn from explicit ``Rng``
objects so that executions are reproducible given a seed.  The PRG expands a
seed deterministically with SHA-256 in counter mode; ``Rng`` wraps it with a
``random.Random``-compatible subset of the API (``randrange``, ``random``,
``choice``, ``getrandbits``, ``randbytes``) plus a ``fork`` operation for
deriving independent sub-streams — the standard trick for giving each party,
functionality, and adversary its own stream while keeping one master seed.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence


class Prg:
    """SHA-256 counter-mode pseudorandom generator."""

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("Prg seed must be bytes")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        """Return the next ``n`` pseudorandom bytes."""
        if n < 0:
            raise ValueError("cannot read a negative number of bytes")
        if n <= len(self._buffer):
            out, self._buffer = self._buffer[:n], self._buffer[n:]
            return out
        # Accumulate whole blocks in a list and join once: appending to a
        # bytes buffer inside the loop re-copies the buffer per block,
        # turning large reads quadratic.
        blocks = [self._buffer]
        have = len(self._buffer)
        while have < n:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            blocks.append(block)
            have += len(block)
        buffer = b"".join(blocks)
        out, self._buffer = buffer[:n], buffer[n:]
        return out

    def __deepcopy__(self, memo):
        # Seed, counter and buffer are immutable values: sharing them is a
        # full copy of the stream state.
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone


def _encode_component(x) -> bytes:
    """Type-tagged, length-prefixed encoding of one piece of seed material.

    Injective across the supported types: ``("cli", 1)`` and
    ``("cli", "1")`` (or a string that happens to equal a tuple's repr)
    can never produce the same byte string, because every component
    carries its own type tag and exact length.
    """
    if isinstance(x, bool):  # before int: bool is an int subclass
        return b"B1" if x else b"B0"
    if isinstance(x, int):
        body = str(x).encode()
        return b"i" + len(body).to_bytes(4, "big") + body
    if isinstance(x, str):
        body = x.encode()
        return b"s" + len(body).to_bytes(4, "big") + body
    if isinstance(x, (bytes, bytearray)):
        return b"b" + len(x).to_bytes(4, "big") + bytes(x)
    if x is None:
        return b"n"
    if isinstance(x, float):
        body = x.hex().encode()
        return b"f" + len(body).to_bytes(4, "big") + body
    if isinstance(x, (tuple, list)):
        parts = b"".join(_encode_component(item) for item in x)
        return b"t" + len(x).to_bytes(4, "big") + parts
    body = repr(x).encode()
    return b"r" + len(body).to_bytes(4, "big") + body


def encode_seed(material) -> bytes:
    """Canonical digest of composite seed material.

    The single funnel for every call site that builds seeds out of
    labels, indices, and nested tuples (``(seed, idx)``, ``(seed, "t",
    t)``, …).  All structure is encoded unambiguously before hashing, so
    distinct composites yield distinct seeds regardless of how a caller
    would have stringified them.
    """
    return hashlib.sha256(b"seed:" + _encode_component(material)).digest()


class Rng:
    """Deterministic RNG with fork support, backed by :class:`Prg`."""

    def __init__(self, seed):
        if isinstance(seed, int) and not isinstance(seed, bool):
            seed = seed.to_bytes(16, "big", signed=True)
        elif isinstance(seed, str):
            seed = seed.encode()
        elif not isinstance(seed, (bytes, bytearray)):
            # Composite seeds (tuples of run labels, etc.): canonical,
            # collision-free encoding via encode_seed.
            seed = encode_seed(seed)
        self._seed = bytes(seed)
        # Built on the first draw: most forked RNGs only fork further.
        self._prg: Optional[Prg] = None

    def _stream(self) -> Prg:
        prg = self._prg
        if prg is None:
            seed = hashlib.sha256(b"rng:" + self._seed).digest()
            prg = self._prg = Prg(seed)
        return prg

    @property
    def seed_bytes(self) -> bytes:
        """The canonical seed material ``fork`` derives children from.

        Exposed so alternative stream implementations (the vectorized
        backend) can replicate the fork tree without re-encoding the
        original seed object.
        """
        return self._seed

    def fork(self, label: str) -> "Rng":
        """Derive an independent RNG for the given label.

        Forking with the same label twice yields identical streams, so
        labels must be unique per logical consumer.
        """
        return Rng(hashlib.sha256(self._seed + b"/" + label.encode()).digest())

    def __deepcopy__(self, memo):
        # The copy continues the same stream independently: only the PRG
        # state is mutable, and ``copy.deepcopy`` records the result in
        # ``memo`` so that aliases of this Rng map to the one copy.
        clone = object.__new__(type(self))
        clone._seed = self._seed
        prg = self._prg
        clone._prg = None if prg is None else prg.__deepcopy__(memo)
        return clone

    # -- random.Random-compatible subset -----------------------------------
    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        nbytes = (k + 7) // 8
        x = int.from_bytes(self._stream().read(nbytes), "big")
        return x >> (nbytes * 8 - k)

    def randbytes(self, n: int) -> bytes:
        return self._stream().read(n)

    def randrange(self, start: int, stop: int = None) -> int:
        if stop is None:
            start, stop = 0, start
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range ({start}, {stop})")
        k = width.bit_length()
        # Rejection sampling for uniformity.
        while True:
            x = self.getrandbits(k)
            if x < width:
                return start + x

    def randint(self, a: int, b: int) -> int:
        return self.randrange(a, b + 1)

    def random(self) -> float:
        return self.getrandbits(53) / (1 << 53)

    def choice(self, seq: Sequence):
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randrange(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, population: Sequence, k: int) -> list:
        if k > len(population):
            raise ValueError("sample larger than population")
        pool = list(population)
        self.shuffle(pool)
        return pool[:k]

    def coin(self, p_heads: float = 0.5) -> bool:
        """Biased coin toss; True with probability ``p_heads``."""
        if not 0.0 <= p_heads <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        return self.random() < p_heads
