"""Prime-field arithmetic and bitstring helpers.

The authenticated secret-sharing scheme from Appendix A of the paper shares
field elements: a secret ``s`` is split into two uniformly random summands
``s1 + s2 = (s, tag(s, k1), tag(s, k2))`` over a field large enough to hold
the payload.  We work over a fixed Mersenne-like prime field GF(p) that
comfortably holds 128-bit payloads, plus a variable-size field for Shamir
sharing with small party counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Iterable, List, Sequence

from .. import metrics

#: Default prime: 2**521 - 1 (a Mersenne prime), large enough to embed
#: (value, tag, tag) triples of the sizes used throughout the library.
DEFAULT_PRIME = 2**521 - 1


def _counted_memo(build):
    """Memoize ``build`` per process by its arguments, counting every
    lookup as a ``memo_hits`` or ``memo_misses`` in :mod:`repro.metrics`
    (a call that raises is a miss and stores nothing)."""
    memo = {}

    @wraps(build)
    def lookup(*args):
        try:
            value = memo[args]
        except KeyError:
            metrics.add("memo_misses")
            value = memo[args] = build(*args)
            return value
        metrics.add("memo_hits")
        return value

    return lookup


def is_probable_prime(n: int, rounds: int = 16) -> bool:
    """Miller-Rabin primality test (deterministic witnesses for small n)."""
    if n < 2:
        return False
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for p in small_primes:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Deterministic witness set; sound for n < 3.3e24 and a strong
    # probabilistic test beyond that, which suffices for library parameters.
    for a in small_primes[:rounds]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@_counted_memo
def _validated_modulus(p: int) -> int:
    """Check a candidate modulus once per process.

    Every :class:`Field` construction funnels through this cache, so the
    Miller-Rabin cost of validating the fixed 521-bit ``DEFAULT_PRIME``
    (or any other modulus) is paid exactly once per process instead of on
    every construction in the Monte-Carlo hot path.
    """
    if p < 2:
        raise ValueError(f"field modulus must be >= 2, got {p}")
    if not is_probable_prime(p):
        raise ValueError(f"field modulus must be prime, got {p}")
    return p


class Field:
    """A prime field GF(p) with the handful of operations the library needs.

    Instances are lightweight and hashable; two fields compare equal iff
    their moduli are equal.  The modulus is validated (probable-prime) on
    construction, with the validation memoized per process; hot call
    sites should prefer the interned instances from :func:`get_field` /
    :func:`default_field`, whose Lagrange-basis memo then persists across
    calls.
    """

    __slots__ = ("p", "_lagrange_memo")

    def __init__(self, p: int = DEFAULT_PRIME):
        self.p = _validated_modulus(p)
        # Reconstruction bases keyed by the tuple of interpolation
        # x-coordinates; see lagrange_interpolate_at_zero.
        self._lagrange_memo = {}

    # -- structural -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Field(p={self.p})"

    # -- arithmetic -------------------------------------------------------
    def reduce(self, x: int) -> int:
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return pow(a % self.p, e, self.p)

    def sum(self, xs: Iterable[int]) -> int:
        total = 0
        for x in xs:
            total = (total + x) % self.p
        return total

    # -- sampling ---------------------------------------------------------
    def random_element(self, rng) -> int:
        """Uniform element of GF(p) using ``rng.randrange``."""
        return rng.randrange(self.p)

    def random_nonzero(self, rng) -> int:
        return 1 + rng.randrange(self.p - 1)

    # -- polynomials (for Shamir) ------------------------------------------
    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate a polynomial given low-to-high coefficients at ``x``."""
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def lagrange_interpolate_at_zero(self, points: Sequence[tuple]) -> int:
        """Interpolate the polynomial through ``points`` and return f(0).

        ``points`` is a sequence of distinct (x, y) pairs.  The basis
        coefficients λ_i = Π(-x_j)/Π(x_i-x_j) depend only on the tuple of
        x-coordinates, which in Shamir/VSS reconstruction is a small
        recurring subset of party indices — so the bases (and their
        expensive ~p-sized modular inversions) are memoized per field
        instance and f(0) reduces to the inner product Σ y_i·λ_i.
        """
        xs = tuple(x for x, _ in points)
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation points must have distinct x")
        basis = self._lagrange_memo.get(xs)
        if basis is None:
            metrics.add("memo_misses")
            coeffs = []
            for i, xi in enumerate(xs):
                num, den = 1, 1
                for j, xj in enumerate(xs):
                    if i == j:
                        continue
                    num = (num * (-xj)) % self.p
                    den = (den * (xi - xj)) % self.p
                coeffs.append((num * self.inv(den)) % self.p)
            basis = tuple(coeffs)
            self._lagrange_memo[xs] = basis
        else:
            metrics.add("memo_hits")
        secret = 0
        for (_, yi), coeff in zip(points, basis):
            secret = (secret + yi * coeff) % self.p
        return secret


def get_field(p: int = DEFAULT_PRIME) -> Field:
    """Interned :class:`Field` for ``p`` (one instance per process).

    Interning keeps the per-instance Lagrange-basis memo warm across call
    sites that used to construct a throwaway ``Field(DEFAULT_PRIME)`` per
    invocation (``vss``, ``authenticated_sharing``).  The memo is keyed
    on the modulus alone, so ``get_field()`` and
    ``get_field(DEFAULT_PRIME)`` are one field.
    """
    return _interned_field(p)


@_counted_memo
def _interned_field(p: int) -> Field:
    return Field(p)


def default_field() -> Field:
    """The interned field over :data:`DEFAULT_PRIME`."""
    return get_field(DEFAULT_PRIME)


def memo_counters() -> dict:
    """Hits and misses of this module's setup memos (validated moduli,
    interned fields, Lagrange bases) in this process, read from
    :mod:`repro.metrics`."""
    return {
        "hits": metrics.value("memo_hits"),
        "misses": metrics.value("memo_misses"),
    }


@dataclass(frozen=True)
class Bits:
    """An immutable bitstring with xor and integer conversions.

    Used for one-time-pad blinding and GMW wire values.
    """

    values: tuple

    def __post_init__(self):
        for b in self.values:
            if b not in (0, 1):
                raise ValueError(f"bit values must be 0/1, got {b!r}")

    @classmethod
    def from_int(cls, x: int, width: int) -> "Bits":
        if x < 0 or x >= (1 << width):
            raise ValueError(f"{x} does not fit in {width} bits")
        return cls(tuple((x >> i) & 1 for i in range(width)))

    @classmethod
    def zeros(cls, width: int) -> "Bits":
        return cls((0,) * width)

    @classmethod
    def random(cls, width: int, rng) -> "Bits":
        return cls(tuple(rng.randrange(2) for _ in range(width)))

    def to_int(self) -> int:
        return sum(b << i for i, b in enumerate(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __xor__(self, other: "Bits") -> "Bits":
        if len(self) != len(other):
            raise ValueError("xor of bitstrings with different widths")
        return Bits(tuple(a ^ b for a, b in zip(self.values, other.values)))

    def concat(self, other: "Bits") -> "Bits":
        return Bits(self.values + other.values)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal lengths")
    return bytes(x ^ y for x, y in zip(a, b))


def int_to_bytes(x: int, length: int) -> bytes:
    return x.to_bytes(length, "big")


def bytes_to_int(b: bytes) -> int:
    return int.from_bytes(b, "big")


def split_blocks(data: bytes, block: int) -> List[bytes]:
    """Split ``data`` into ``block``-sized chunks (last one may be short)."""
    if block <= 0:
        raise ValueError("block size must be positive")
    return [data[i : i + block] for i in range(0, len(data), block)]
