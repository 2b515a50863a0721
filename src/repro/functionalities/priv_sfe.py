"""Phase-1 functionalities of the optimally fair protocols.

``TwoPartyShareGen`` is F^{f',⊥}_sfe from §4.1: f' takes the parties'
f-inputs and outputs an *authenticated 2-of-2 sharing* of y = f(x1, x2)
together with a uniformly random index î ∈ {1, 2} naming the party that will
be reconstructed-to first.

``PrivSfeWithAbort`` is hF^{f,⊥}_priv-sfei from Appendix B: it computes the
(public) output y, signs it under a fresh one-time key pair, hands
(y, σ) to a uniformly random party i* and ⊥ to everyone else, plus the
verification key to all.

Both expose the Fsfe⊥ attack surface: the adversary may request the
corrupted parties' outputs and may abort before honest delivery.
"""

from __future__ import annotations

from ..crypto.immutable import Immutable

from dataclasses import dataclass
from typing import Dict

from ..crypto import authenticated_sharing, signature
from ..crypto.prf import Rng
from ..engine.messages import ABORT
from ..functions.library import FunctionSpec
from .base import AdversaryHandle, Functionality
from .sfe import _effective_inputs, abort_everyone, refused_participation


@dataclass(frozen=True)
class ShareGenOutput(Immutable):
    """Party pi's output from F^{f',⊥}: its share and the index î."""

    share: authenticated_sharing.AuthenticatedShare
    first_receiver: int  # î ∈ {0, 1} (0-based party index)


class TwoPartyShareGen(Functionality):
    """F^{f',⊥}_sfe computing f' = (authenticated sharing of f, random î)."""

    name = "F_sharegen2"

    def __init__(self, func: FunctionSpec, encode=None):
        if func.n_parties != 2:
            raise ValueError("TwoPartyShareGen is a two-party functionality")
        self.func = func
        # Outputs must be packed into the sharing payload as integers.
        self.encode = encode or _default_encode

    def invoke(
        self,
        inputs: Dict[int, object],
        adversary: AdversaryHandle,
        rng: Rng,
        n: int,
    ) -> Dict[int, object]:
        if refused_participation(inputs, adversary, n):
            return abort_everyone(adversary, n)
        effective = _effective_inputs(inputs, self.func)
        outputs = self.func.outputs_for(effective)
        # wlog single global output (see Appendix A); private outputs are
        # handled by the OTP transform at the FunctionSpec level.
        y = self.encode(outputs)
        share1, share2 = authenticated_sharing.deal(y, rng.fork("deal"))
        first = rng.randrange(2)
        payloads = {
            0: ShareGenOutput(share1, first),
            1: ShareGenOutput(share2, first),
        }
        responses: Dict[int, object] = {}
        if adversary.corrupted:
            if adversary.query("request-outputs?"):
                corrupted_outputs = {
                    i: payloads[i] for i in sorted(adversary.corrupted)
                }
                adversary.notify("corrupted-outputs", corrupted_outputs)
                responses.update(corrupted_outputs)
            if adversary.query("abort?"):
                for i in range(n):
                    if i not in adversary.corrupted:
                        responses[i] = ABORT
                return responses
        for i in range(n):
            responses.setdefault(i, payloads[i])
        return responses


@dataclass(frozen=True)
class PrivOutput(Immutable):
    """Party pi's output from hF^{f,⊥}_priv-sfei: (yi, vk)."""

    value: object  # (y, σ) for i*, ABORT otherwise
    verification_key: signature.VerificationKey

    @property
    def holds_output(self) -> bool:
        return self.value is not ABORT


class PrivSfeWithAbort(Functionality):
    """hF^{f,⊥}_priv-sfei: signed output to a random party (Appendix B)."""

    name = "F_priv_sfe"

    def __init__(self, func: FunctionSpec):
        self.func = func

    def _draw_i_star(self, rng: Rng, n: int) -> int:
        """The receiving party i*, uniform over the n parties: the first
        draw from the invocation's own stream (the key pair comes from
        its ``sig`` fork)."""
        return rng.randrange(n)

    def invoke(
        self,
        inputs: Dict[int, object],
        adversary: AdversaryHandle,
        rng: Rng,
        n: int,
    ) -> Dict[int, object]:
        if refused_participation(inputs, adversary, n):
            return abort_everyone(adversary, n)
        effective = _effective_inputs(inputs, self.func)
        outputs = self.func.outputs_for(effective)
        y = outputs[0]  # global output (Appendix B transform)
        sk, vk = signature.gen(rng.fork("sig"))
        sigma = signature.sign(y, sk)
        i_star = self._draw_i_star(rng, n)
        payloads = {
            i: PrivOutput((y, sigma) if i == i_star else ABORT, vk)
            for i in range(n)
        }
        responses: Dict[int, object] = {}
        if adversary.corrupted and len(adversary.corrupted) < n:
            if adversary.query("request-outputs?"):
                corrupted_outputs = {
                    i: payloads[i] for i in sorted(adversary.corrupted)
                }
                adversary.notify("corrupted-outputs", corrupted_outputs)
                responses.update(corrupted_outputs)
            if adversary.query("abort?"):
                for i in range(n):
                    if i not in adversary.corrupted:
                        responses[i] = ABORT
                return responses
        for i in range(n):
            responses.setdefault(i, payloads[i])
        return responses


_COMPONENT_BITS = 48


def _default_encode(outputs: tuple) -> int:
    """Encode the per-party output vector into the sharing payload integer.

    Each component must be an integer below 2**48; two components plus the
    length byte fit comfortably inside the 128-bit sharing payload.
    """
    if not all(isinstance(v, int) for v in outputs):
        raise TypeError(f"cannot encode outputs {outputs!r} for sharing")
    packed = 0
    for v in outputs:
        if not 0 <= v < (1 << _COMPONENT_BITS):
            raise ValueError(
                f"output component {v} exceeds {_COMPONENT_BITS} bits"
            )
        packed = (packed << _COMPONENT_BITS) | v
    return (packed << 8) | len(outputs)


def decode_output(encoded: int) -> tuple:
    """Inverse of :func:`_default_encode`: the per-party output vector."""
    length = encoded & 0xFF
    packed = encoded >> 8
    values = []
    for _ in range(length):
        values.append(packed & ((1 << _COMPONENT_BITS) - 1))
        packed >>= _COMPONENT_BITS
    return tuple(reversed(values))
