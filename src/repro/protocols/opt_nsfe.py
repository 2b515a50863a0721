"""ΠOptnSFE — the optimally fair multi-party SFE protocol (§4.2, App. B).

Phase 1 invokes hF^{f,⊥}_priv-sfei: the hybrid computes the (public)
output y, signs it under a fresh one-time key, and privately hands (y, σ)
to one uniformly random party i*, ⊥ to everyone else, and the verification
key to all.  If the hybrid aborts, so does the protocol.

Phase 2: every party broadcasts its yi.  If some validly signed y ≠ ⊥ was
broadcast, everyone adopts it; otherwise everyone aborts.

An adversary corrupting t parties catches i* with probability t/n (its best
move then is to withhold the broadcast: event E10); otherwise completing is
optimal (E11) — giving Lemma 11's utility (t·γ10 + (n−t)·γ11)/n, which
Lemma 13 shows optimal.
"""

from __future__ import annotations

from typing import Dict, List

from ..crypto import signature
from ..crypto.prf import Rng
from ..engine.messages import Inbox
from ..engine.party import PartyContext, PartyMachine
from ..engine.protocol import Protocol
from ..functionalities.base import Functionality
from ..functionalities.priv_sfe import PrivOutput, PrivSfeWithAbort
from ..functions.library import FunctionSpec

PRIV_SFE = PrivSfeWithAbort.name


class OptNSfeMachine(PartyMachine):
    """One party of ΠOptnSFE."""

    def __init__(self, index: int, n: int, func: FunctionSpec):
        super().__init__(index, n)
        self.func = func
        self.priv = None

    def on_round(self, round_no: int, inbox: Inbox, ctx: PartyContext) -> None:
        if round_no == 0:
            ctx.call(PRIV_SFE, self.input)
            return
        if round_no == 1:
            payload = inbox.from_functionality(PRIV_SFE)
            if not isinstance(payload, PrivOutput):
                # "If Πgmw aborts then ΠOptnSFE also aborts."
                ctx.output_abort()
                return
            self.priv = payload
            ctx.broadcast(("opt-nsfe-output", payload.value))
            return
        if round_no == 2:
            candidates = [("opt-nsfe-output", self.priv.value)]
            for message in inbox.broadcasts():
                candidates.append(message.payload)
            vk = self.priv.verification_key
            for payload in candidates:
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 2
                    and payload[0] == "opt-nsfe-output"
                    and isinstance(payload[1], tuple)
                    and len(payload[1]) == 2
                ):
                    y, sigma = payload[1]
                    if signature.ver(y, sigma, vk):
                        ctx.output(y)
                        return
            ctx.output_abort()


class OptNSfeProtocol(Protocol):
    """ΠOptnSFE in the hF^{f,⊥}_priv-sfei-hybrid model."""

    def __init__(self, func: FunctionSpec):
        if func.n_parties < 2:
            raise ValueError("need at least two parties")
        self.func = func
        self.n_parties = func.n_parties
        self.name = f"opt-nsfe[{func.name}]"
        self.max_rounds = 3

    def build_machines(self, rng: Rng) -> List[PartyMachine]:
        return [
            OptNSfeMachine(i, self.n_parties, self.func)
            for i in range(self.n_parties)
        ]

    def build_functionalities(self, rng: Rng) -> Dict[str, Functionality]:
        return {PRIV_SFE: PrivSfeWithAbort(self.func)}
