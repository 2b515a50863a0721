"""The Gordon–Katz 1/p-secure protocols ([18]; paper §5, Appendix C.3).

Both variants run in the ShareGen-hybrid model: the hybrid prepares sealed
value streams with a secret geometric switch round i*; the parties then
alternately reveal, each round transferring one sealed token per direction.
On an abort, a party outputs the *last* value it reconstructed (possibly a
fake — this is the correctness error that confines the protocols to the
randomized-abort functionality Fsfe$).

``GordonKatzProtocol`` covers the poly-domain construction (Theorem 23,
O(p·|Y|) rounds) and the poly-range construction (Theorem 24, O(p²·|Z|)
rounds) through the corresponding ShareGen parameterisations.
"""

from __future__ import annotations

from typing import Dict, List

from ..crypto.prf import Rng
from ..engine.messages import ABORT, Inbox
from ..engine.party import OUTPUT_DEFAULT, PartyContext, PartyMachine
from ..engine.protocol import Protocol
from ..functionalities.base import Functionality
from ..functionalities.share_gen import (
    GkPartyPayload,
    GkShareGen,
    open_sealed,
    poly_domain_sharegen,
    poly_range_sharegen,
)
from ..functions.library import FunctionSpec

SHAREGEN_GK = GkShareGen.name
_STREAM_NAMES = {0: "a", 1: "b"}


class GordonKatzMachine(PartyMachine):
    """One party of the GK reveal protocol.

    ``start_round`` lets the machine be embedded after a prologue (used by
    the leaky protocol Π̃, which prefixes two rounds of its own).
    """

    def __init__(
        self,
        index: int,
        n: int,
        func: FunctionSpec,
        start_round: int = 0,
    ):
        super().__init__(index, n)
        self.func = func
        self.start_round = start_round
        self.payload: GkPartyPayload = None
        self.last_value = None

    def _default_output(self, ctx: PartyContext) -> None:
        inputs = list(self.func.default_inputs)
        inputs[self.index] = self.input
        value = self.func.outputs_for(tuple(inputs))[self.index]
        ctx.output(value, OUTPUT_DEFAULT)

    def _output_last(self, ctx: PartyContext) -> None:
        """Abort mid-reveal: output the last reconstructed value.

        Before the first reveal this is the fallback fake prepared by
        ShareGen — never the default evaluation, matching [18] where the
        early-abort output is drawn from the fake distribution.
        """
        ctx.output(self.last_value)

    def on_round(self, round_no: int, inbox: Inbox, ctx: PartyContext) -> None:
        r = round_no - self.start_round
        if r < 0:
            return
        other = 1 - self.index
        if r == 0:
            ctx.call(SHAREGEN_GK, self.input)
            return
        if r == 1:
            payload = inbox.from_functionality(SHAREGEN_GK)
            if not isinstance(payload, GkPartyPayload):
                self._default_output(ctx)
                return
            self.payload = payload
            self.last_value = payload.fallback
            ctx.send(other, payload.outgoing_tokens[0])
            return
        # Reveal rounds: at r in [2, rounds+1] we receive token r-2 and
        # send token r-1 (if any remain).
        reveal_index = r - 2
        if reveal_index >= self.payload.rounds:
            return
        incoming = inbox.one_from_party(other)
        try:
            value = open_sealed(
                incoming,
                self.payload.incoming_pads[reveal_index],
                self.payload.mac_key,
                _STREAM_NAMES[self.index],
            )
        except ValueError:
            self._output_last(ctx)
            return
        self.last_value = value
        if reveal_index + 1 < self.payload.rounds:
            ctx.send(other, self.payload.outgoing_tokens[reveal_index + 1])
        else:
            ctx.output(self.last_value)


class GordonKatzProtocol(Protocol):
    """A GK 1/p-secure protocol in the ShareGen-hybrid model."""

    def __init__(self, func: FunctionSpec, p: int, variant: str = "domain"):
        if func.n_parties != 2:
            raise ValueError("the GK protocols are two-party")
        if p < 2:
            raise ValueError("p must be at least 2")
        if variant not in ("domain", "range"):
            raise ValueError("variant must be 'domain' or 'range'")
        self.func = func
        self.p = p
        self.variant = variant
        self.n_parties = 2
        # Instantiate once to learn the round count (fresh per execution).
        self._template = self._make_sharegen()
        self.reveal_rounds = self._template.rounds
        self.alpha = self._template.alpha
        self.name = f"gk-{variant}[{func.name},p={p}]"
        self.max_rounds = self.reveal_rounds + 4

    def _make_sharegen(self) -> GkShareGen:
        if self.variant == "domain":
            return poly_domain_sharegen(self.func, self.p)
        return poly_range_sharegen(self.func, self.p)

    def build_machines(self, rng: Rng) -> List[PartyMachine]:
        return [GordonKatzMachine(i, 2, self.func) for i in range(2)]

    def build_functionalities(self, rng: Rng) -> Dict[str, Functionality]:
        sharegen = self._make_sharegen()
        # Kept for the white-box classifier below (executions run
        # sequentially, so the handle always refers to the current run).
        self._last_sharegen = sharegen
        return {SHAREGEN_GK: sharegen}

    def classify_result(self, result):
        """The Theorem-23 simulator's event mapping.

        The ideal target is Fsfe$: the simulator asks the functionality for
        the corrupted output only when the adversary's view reached a
        *real* stream value (reveal index >= i*−1); stopping earlier maps
        to a randomized abort without asking.  Auxiliary-input knowledge of
        y (the worst-case-environment attack) therefore does not count as
        "learning from the protocol" — exactly the paper's accounting.
        """
        return classify_gk(
            result, self.func, getattr(self, "_last_sharegen", None)
        )


def classify_gk(result, func: FunctionSpec, sharegen: GkShareGen):
    """White-box fairness-event classification for a GK-style execution.

    Returns ``None`` (falling back to the generic classifier) when the
    corruption pattern is trivial or the ShareGen handle is missing.
    """
    from ..core.events import FairnessEvent, honest_learned_output
    from ..functionalities.share_gen import SealedValue

    if sharegen is None or sharegen.i_star is None:
        return None
    if not result.corrupted or len(result.corrupted) == result.n:
        return None
    corrupted = next(iter(result.corrupted))
    max_seen = -1
    for message in result.transcript:
        if message.receiver == corrupted and isinstance(
            message.payload, SealedValue
        ):
            max_seen = max(max_seen, message.payload.index)
    learned = max_seen >= sharegen.i_star - 1
    honest = honest_learned_output(result, func)
    return FairnessEvent(f"{int(learned)}{int(honest)}")
