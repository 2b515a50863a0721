"""ΠOpt2SFE — the optimally fair two-party SFE protocol (§4.1).

Phase 1 invokes the F^{f',⊥} hybrid (the secure-with-abort SFE computing
f': an authenticated 2-of-2 sharing of the output vector plus a uniformly
random index î).  If the hybrid aborts, the honest party substitutes the
counterparty's default input and evaluates f locally (event E01 in the
ideal world).

Phase 2 reconstructs the sharing in two rounds: first towards p_î, then
towards p_¬î.  If p_¬î fails to deliver a valid share in the first
reconstruction round, p_î again falls back to default-input evaluation;
if p_î fails in the *second* round, p_¬î outputs ⊥ — the corrupted p_î
already holds the real output, so substituting inputs would be unsound
(this is the γ10-branch of Theorem 3's proof).

Theorem 3/4: the best attacker's utility is exactly (γ10 + γ11)/2.
"""

from __future__ import annotations

from typing import Dict, List

from ..crypto import authenticated_sharing
from ..crypto.prf import Rng
from ..engine.messages import ABORT, Inbox
from ..engine.party import OUTPUT_DEFAULT, PartyContext, PartyMachine
from ..engine.protocol import Protocol
from ..functionalities.base import Functionality
from ..functionalities.priv_sfe import (
    ShareGenOutput,
    TwoPartyShareGen,
    decode_output,
)
from ..functions.library import FunctionSpec

SHAREGEN = TwoPartyShareGen.name


class Opt2SfeMachine(PartyMachine):
    """One party of ΠOpt2SFE."""

    def __init__(self, index: int, n: int, func: FunctionSpec):
        super().__init__(index, n)
        self.func = func
        self.share = None
        self.first_receiver = None

    def _default_output(self, ctx: PartyContext) -> None:
        """Evaluate f locally with the counterparty's default input."""
        inputs = list(self.func.default_inputs)
        inputs[self.index] = self.input
        value = self.func.outputs_for(tuple(inputs))[self.index]
        ctx.output(value, OUTPUT_DEFAULT)

    def _reconstruct_and_output(self, payload, ctx: PartyContext) -> bool:
        """Try reconstructing from the counterparty's wire message."""
        try:
            encoded = authenticated_sharing.reconstruct(self.share, payload)
        except authenticated_sharing.ShareVerificationError:
            return False
        outputs = decode_output(encoded)
        ctx.output(outputs[self.index])
        return True

    def on_round(self, round_no: int, inbox: Inbox, ctx: PartyContext) -> None:
        other = 1 - self.index
        if round_no == 0:
            ctx.call(SHAREGEN, self.input)
            return
        if round_no == 1:
            payload = inbox.from_functionality(SHAREGEN)
            if not isinstance(payload, ShareGenOutput):
                # Hybrid aborted: default-input local evaluation.
                self._default_output(ctx)
                return
            self.share = payload.share
            self.first_receiver = payload.first_receiver
            if self.first_receiver == other:
                # Reconstruction round 1: I open towards p_î.
                ctx.send(other, self.share.wire_message())
            return
        if round_no == 2:
            if self.first_receiver == self.index:
                payload = inbox.one_from_party(other)
                if payload is None or not self._reconstruct_and_output(
                    payload, ctx
                ):
                    # p_¬î failed to open: default-input evaluation,
                    # second round omitted.
                    self._default_output(ctx)
                    return
                # Reconstruction round 2: now I open towards p_¬î.
                ctx.send(other, self.share.wire_message())
            return
        if round_no == 3:
            if self.first_receiver == other:
                payload = inbox.one_from_party(other)
                if payload is None or not self._reconstruct_and_output(
                    payload, ctx
                ):
                    # p_î already holds the real output; all we can do is ⊥.
                    ctx.output_abort()
            return


class Opt2SfeProtocol(Protocol):
    """ΠOpt2SFE in the F^{f',⊥}-hybrid model."""

    def __init__(self, func: FunctionSpec):
        if func.n_parties != 2:
            raise ValueError("ΠOpt2SFE is a two-party protocol")
        self.func = func
        self.n_parties = 2
        self.name = f"opt-2sfe[{func.name}]"
        self.max_rounds = 4

    def build_machines(self, rng: Rng) -> List[PartyMachine]:
        return [Opt2SfeMachine(i, 2, self.func) for i in range(2)]

    def build_functionalities(self, rng: Rng) -> Dict[str, Functionality]:
        return {SHAREGEN: TwoPartyShareGen(self.func)}

    @property
    def reconstruction_rounds(self) -> int:
        """Lemma 9: ΠOpt2SFE has two reconstruction rounds."""
        return 2
