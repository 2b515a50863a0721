"""The functions evaluated by the protocols in the paper.

Each :class:`FunctionSpec` bundles the function itself with the metadata the
framework needs: per-party default inputs (used by honest parties after a
phase-1 abort), the environment's input distribution, and domain sizes
(which decide whether the Gordon–Katz 1/p-protocols apply).

The paper's key examples are all here: the swap function fswp(x1,x2) =
(x2,x1) used for the two-party lower bound (Theorem 4), the concatenation
function f(x1,...,xn) = x1‖...‖xn used for the multi-party lower bounds
(Lemmas 12/15/16), logical AND used for the Π̃ separation (Appendix C.5),
plus the contract-signing exchange and the millionaires' problem used in
examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..crypto.immutable import Immutable
from ..crypto.prf import Rng


@dataclass(frozen=True)
class FunctionSpec(Immutable):
    """An n-party function with evaluation and environment metadata."""

    name: str
    n_parties: int
    evaluate: Callable[[tuple], tuple]
    default_inputs: tuple
    sample_inputs: Callable[[Rng], tuple]
    #: per-party input domain as a tuple of values, or None when the domain
    #: is (treated as) super-polynomial
    input_domains: Optional[tuple] = None
    #: global output domain, or None when super-polynomial
    output_domain: Optional[tuple] = None
    #: bit-width sufficient to encode any single party's output
    output_bits: int = 64

    def outputs_for(self, inputs: tuple) -> tuple:
        """Evaluate; validates arity."""
        if len(inputs) != self.n_parties:
            raise ValueError(
                f"{self.name} takes {self.n_parties} inputs, got {len(inputs)}"
            )
        outputs = self.evaluate(inputs)
        if len(outputs) != self.n_parties:
            raise ValueError(f"{self.name} returned wrong number of outputs")
        return outputs

    def corrupted_output_values(self, inputs: tuple, corrupted) -> set:
        """The output components the adversary would be 'asking for'."""
        outputs = self.outputs_for(inputs)
        return {outputs[i] for i in sorted(corrupted)}

    def has_poly_domain(self) -> bool:
        return self.input_domains is not None and any(
            d is not None for d in self.input_domains
        )

    def has_poly_range(self) -> bool:
        return self.output_domain is not None


def make_swap(bits: int = 16) -> FunctionSpec:
    """fswp(x1, x2) = (x2, x1) over ``bits``-bit integers.

    Exponential domain and range (for bits >= security margin), which is
    what makes it the hard instance for Theorem 4: no 1/p-secure protocol
    for it exists, so the (γ10+γ11)/2 bound is unavoidable.
    """
    size = 1 << bits

    def evaluate(inputs):
        x1, x2 = inputs
        return (x2, x1)

    def sample(rng: Rng):
        return (rng.randrange(size), rng.randrange(size))

    return FunctionSpec(
        name=f"swap{bits}",
        n_parties=2,
        evaluate=evaluate,
        default_inputs=(0, 0),
        sample_inputs=sample,
        input_domains=None,
        output_domain=None,
        output_bits=bits,
    )


def make_and() -> FunctionSpec:
    """Logical AND on bits, global output — the Π̃ separation function."""

    def evaluate(inputs):
        x1, x2 = inputs
        y = x1 & x2
        return (y, y)

    def sample(rng: Rng):
        return (rng.randrange(2), rng.randrange(2))

    return FunctionSpec(
        name="and",
        n_parties=2,
        evaluate=evaluate,
        default_inputs=(0, 0),
        sample_inputs=sample,
        input_domains=((0, 1), (0, 1)),
        output_domain=(0, 1),
        output_bits=1,
    )


def make_xor() -> FunctionSpec:
    """Logical XOR on bits, global output."""

    def evaluate(inputs):
        x1, x2 = inputs
        y = x1 ^ x2
        return (y, y)

    def sample(rng: Rng):
        return (rng.randrange(2), rng.randrange(2))

    return FunctionSpec(
        name="xor",
        n_parties=2,
        evaluate=evaluate,
        default_inputs=(0, 0),
        sample_inputs=sample,
        input_domains=((0, 1), (0, 1)),
        output_domain=(0, 1),
        output_bits=1,
    )


def make_millionaires(bits: int = 8) -> FunctionSpec:
    """Millionaires' problem: global output [x1 > x2]."""
    size = 1 << bits

    def evaluate(inputs):
        x1, x2 = inputs
        y = 1 if x1 > x2 else 0
        return (y, y)

    def sample(rng: Rng):
        return (rng.randrange(size), rng.randrange(size))

    return FunctionSpec(
        name=f"millionaires{bits}",
        n_parties=2,
        evaluate=evaluate,
        default_inputs=(0, 0),
        sample_inputs=sample,
        input_domains=(tuple(range(size)), tuple(range(size)))
        if bits <= 10
        else None,
        output_domain=(0, 1),
        output_bits=1,
    )


def make_concat(n: int, bits: int = 8) -> FunctionSpec:
    """f(x1, ..., xn) = x1 ‖ x2 ‖ ... ‖ xn — the multi-party hard instance.

    The global output is the tuple of all inputs, encoded as a tuple; an
    adversary that has not seen the honest inputs cannot guess it.
    """
    if n < 2:
        raise ValueError("concat needs at least two parties")
    size = 1 << bits

    def evaluate(inputs):
        y = tuple(inputs)
        return tuple(y for _ in range(n))

    def sample(rng: Rng):
        return tuple(rng.randrange(size) for _ in range(n))

    return FunctionSpec(
        name=f"concat{n}x{bits}",
        n_parties=n,
        evaluate=evaluate,
        default_inputs=tuple(0 for _ in range(n)),
        sample_inputs=sample,
        input_domains=None,
        output_domain=None,
        output_bits=n * bits,
    )


def make_contract_exchange(bits: int = 32) -> FunctionSpec:
    """The contract-signing exchange from the paper's introduction.

    Party pi holds its locally signed contract (modelled as a ``bits``-bit
    token only pi can produce); the functionality swaps them, so each party
    receives the other's signature.  Functionally this is fswp.
    """
    size = 1 << bits

    def evaluate(inputs):
        s1, s2 = inputs
        return (s2, s1)

    def sample(rng: Rng):
        return (rng.randrange(1, size), rng.randrange(1, size))

    return FunctionSpec(
        name=f"contract{bits}",
        n_parties=2,
        evaluate=evaluate,
        default_inputs=(0, 0),
        sample_inputs=sample,
        input_domains=None,
        output_domain=None,
        output_bits=bits,
    )


def make_global(
    name: str,
    n: int,
    func: Callable[[tuple], object],
    domains: tuple,
    rng_sampler: Optional[Callable[[Rng], tuple]] = None,
    output_domain: Optional[tuple] = None,
    output_bits: int = 16,
) -> FunctionSpec:
    """Build a global-output FunctionSpec from a plain function."""

    def evaluate(inputs):
        y = func(inputs)
        return tuple(y for _ in range(n))

    def sample(rng: Rng):
        if rng_sampler is not None:
            return rng_sampler(rng)
        return tuple(rng.choice(d) for d in domains)

    return FunctionSpec(
        name=name,
        n_parties=n,
        evaluate=evaluate,
        default_inputs=tuple(d[0] for d in domains),
        sample_inputs=sample,
        input_domains=domains,
        output_domain=output_domain,
        output_bits=output_bits,
    )
