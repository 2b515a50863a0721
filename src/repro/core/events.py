"""Fairness events E00, E01, E10, E11 and outcome classification (§3 Step 2).

The paper defines the events in the Fsfe⊥-ideal world through the simulator's
behaviour.  For a real execution we classify by the two questions the events
encode:

1. *Did the adversary learn noticeable information about the corrupted
   parties' output?* — operationally: the adversary placed an output claim
   (it extracted a value from the protocol) and the claim equals a corrupted
   party's true output component.  Claims are verified by the engine; a
   strategy cannot inflate its utility by asserting values it never learned.

2. *Did the honest parties learn their output?* — every honest party
   produced a non-⊥ output that is *correct*: either it equals the party's
   true output component of f on the real inputs, or it was recomputed
   locally from a default input (kind ``OUTPUT_DEFAULT``) — in the ideal
   world the simulator substitutes the default input and lets the
   functionality deliver, which is precisely the E01/E11 branch of the
   proofs.  A *random* output (as handed out by the Gordon–Katz protocols
   after an unfair abort, cf. Fsfe$) does not count as learning: the
   simulator in Theorem 23 maps that case to an abort of the randomized
   functionality.

Corner cases follow the paper exactly: corrupting *no* party yields E01,
corrupting *all* parties yields E11 ("our definition does not give any
advantage to an adversary corrupting all parties").
"""

from __future__ import annotations

from enum import Enum

from ..engine.execution import ExecutionResult
from ..engine.party import OUTPUT_DEFAULT
from ..functions.library import FunctionSpec


class FairnessEvent(Enum):
    """Index string ij: i = adversary learned, j = honest parties learned.

    ``HONEST_HUNG`` is outside the paper's 2×2 grid: it marks a run in
    which an honest party produced *no* output at all — not even ⊥ — by
    the round bound.  That is a protocol bug, and the engine raises
    ``ProtocolViolation``; batch runners carry the run through the event
    counts as ``HONEST_HUNG`` instead of losing the whole chunk.
    Payoff-wise it is valued like E00: nobody learned.
    """

    E00 = "00"
    E01 = "01"
    E10 = "10"
    E11 = "11"
    HONEST_HUNG = "hung"

    @property
    def adversary_learned(self) -> bool:
        if self is FairnessEvent.HONEST_HUNG:
            return False
        return self.value[0] == "1"

    @property
    def honest_learned(self) -> bool:
        if self is FairnessEvent.HONEST_HUNG:
            return False
        return self.value[1] == "1"


def adversary_learned_output(
    result: ExecutionResult, func: FunctionSpec
) -> bool:
    """Verify the adversary's output claim against the true function value."""
    if result.adversary_claim is None:
        return False
    if not result.corrupted:
        return False
    targets = func.corrupted_output_values(result.inputs, result.corrupted)
    return result.adversary_claim in targets


def honest_learned_output(result: ExecutionResult, func: FunctionSpec) -> bool:
    """Did every honest party obtain its (correct or default-evaluated)
    output?

    A *hung* party — honest, yet absent from ``outputs`` — makes this
    ``False`` rather than being silently skipped.
    """
    honest = result.honest
    if not honest:
        return False
    true_outputs = func.outputs_for(result.inputs)
    for i in sorted(honest):
        rec = result.outputs.get(i)
        if rec is None:
            return False  # hung: no output record at all
        if rec.is_abort:
            return False
        if rec.kind == OUTPUT_DEFAULT:
            continue  # substituted-input evaluation; delivered in ideal world
        if rec.value != true_outputs[i]:
            return False  # random/incorrect output (Fsfe$-style abort)
    return True


def classify(result: ExecutionResult, func: FunctionSpec) -> FairnessEvent:
    """Map a finished execution to its fairness event."""
    if result.hung:
        return FairnessEvent.HONEST_HUNG
    if not result.corrupted:
        return FairnessEvent.E01  # paper convention: no corruption ⇒ E01
    if len(result.corrupted) == result.n:
        return FairnessEvent.E11
    learned = adversary_learned_output(result, func)
    honest = honest_learned_output(result, func)
    return FairnessEvent(f"{int(learned)}{int(honest)}")
