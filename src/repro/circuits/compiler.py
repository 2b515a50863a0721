"""Truth-table compiler: any small function → a boolean circuit.

Lets GMW evaluate arbitrary :class:`~repro.functions.FunctionSpec`-style
functions with enumerable domains without hand-building circuits: the
function is tabulated and compiled as a sum-of-minterms over the input bits.
Exponential in total input width, so intended for the small functions the
experiments exercise (as the paper's constructions are generic, the circuit
representation is never the bottleneck of the *fairness* analysis).

Compilation is memoized per process, keyed by the *content* of the
tabulated truth table (never by the function object): two callables that
agree on every assignment compile to the same immutable
:class:`~repro.circuits.circuit.Circuit` instance, so re-instantiating a
protocol for the same ``FunctionSpec`` — which every CLI invocation and
benchmark does — skips the exponential minterm build after the first
time.  Sharing the instance is safe because circuits are immutable (the
GMW machines keep all mutable state in their own wire-share maps).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Dict, List, Sequence

from .. import metrics
from ..crypto.prf import encode_seed
from .builder import CircuitBuilder
from .circuit import Circuit

#: Content-keyed compilation memo; its hits and misses are counted in
#: :mod:`repro.metrics` as ``circuit_memo_hits``/``circuit_memo_misses``.
_CIRCUIT_MEMO: Dict[bytes, Circuit] = {}


def memo_counters() -> dict:
    """Hit/miss counts of the compilation memo in this process."""
    return {
        "hits": metrics.value("circuit_memo_hits"),
        "misses": metrics.value("circuit_memo_misses"),
    }


def clear_circuit_memo() -> None:
    """Drop all memoized circuits (test isolation hook)."""
    _CIRCUIT_MEMO.clear()


def compile_truth_table(
    func: Callable[[tuple], int],
    widths: Sequence[int],
    output_width: int,
    n_parties: int = None,
) -> Circuit:
    """Compile ``func`` over per-party input widths into a circuit.

    ``func`` maps a tuple of per-party integers to an integer output
    (the global output); ``widths[i]`` is party i's input bit-width.
    """
    n = n_parties if n_parties is not None else len(widths)
    if len(widths) != n:
        raise ValueError("one width per party required")
    total_bits = sum(widths)
    if total_bits > 16:
        raise ValueError(
            f"truth-table compilation over {total_bits} input bits is "
            "unreasonable; hand-build the circuit instead"
        )

    # Tabulate: for each assignment, the output value.  Tabulation is the
    # cheap linear pass; the memo below short-circuits the expensive
    # minterm/gate construction when an identical table was already
    # compiled in this process.
    assignments = list(product((0, 1), repeat=total_bits))
    outputs_bits: List[List[tuple]] = [[] for _ in range(output_width)]
    for bits in assignments:
        values = []
        pos = 0
        for w in widths:
            values.append(sum(bit << k for k, bit in enumerate(bits[pos : pos + w])))
            pos += w
        y = func(tuple(values))
        for o in range(output_width):
            if (y >> o) & 1:
                outputs_bits[o].append(bits)

    memo_key = encode_seed(
        (
            "truth-table-circuit",
            n,
            tuple(widths),
            output_width,
            tuple(tuple(minterms) for minterms in outputs_bits),
        )
    )
    cached = _CIRCUIT_MEMO.get(memo_key)
    if cached is not None:
        metrics.add("circuit_memo_hits")
        return cached
    metrics.add("circuit_memo_misses")

    b = CircuitBuilder(n)
    input_wires: List[List[int]] = [b.input_bits(i, w) for i, w in enumerate(widths)]
    flat_wires = [w for ws in input_wires for w in ws]
    not_wires = [b.not_(w) for w in flat_wires]

    def minterm(bits: tuple) -> int:
        acc = None
        for idx, bit in enumerate(bits):
            literal = flat_wires[idx] if bit else not_wires[idx]
            acc = literal if acc is None else b.and_(acc, literal)
        return acc if acc is not None else b.const(1)

    out_wires = []
    for o in range(output_width):
        minterms = outputs_bits[o]
        if not minterms:
            out_wires.append(b.const(0))
            continue
        # Disjoint minterms: OR is XOR.
        acc = minterm(minterms[0])
        for bits in minterms[1:]:
            acc = b.xor(acc, minterm(bits))
        out_wires.append(acc)
    circuit = b.build(out_wires)
    _CIRCUIT_MEMO[memo_key] = circuit
    return circuit


def bits_of(value: int, width: int) -> List[int]:
    """Little-endian bit decomposition."""
    if not 0 <= value < (1 << width):
        raise ValueError(f"{value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def int_of(bits: Sequence[int]) -> int:
    return sum((b & 1) << i for i, b in enumerate(bits))
