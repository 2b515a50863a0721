"""Machine-driving adversary base.

All the paper's attack strategies share a skeleton: corrupt some parties,
run their prescribed machines honestly ("the adversary instructs the
corrupted party to behave honestly until..."), and deviate at a chosen
moment — typically by withholding messages after having learned the output.
:class:`MachineDrivingAdversary` implements the skeleton; strategies
override the hooks.

The *coalition probe* implements the proofs' counterfactual check "would a
corrupted party hold the actual output if everyone else aborted now?": each
corrupted machine is cloned and fed (a) this round's rushing messages from
honest parties and (b) the coalition's own just-computed round messages,
then run to completion against silence.  A probe output of kind ``real``
certifies the coalition holds the output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..engine.adversary import Adversary, CorruptedParty, RoundInterface
from ..engine.messages import Inbox, Message
from ..engine.party import OUTPUT_REAL, HonestRunner, OutputRecord, PartyContext


class MachineDrivingAdversary(Adversary):
    """Drives corrupted machines honestly; subclasses deviate via hooks."""

    name = "machine-driving"

    def __init__(self, corrupt: Set[int] = frozenset()):
        self._static_corruptions = set(corrupt)
        self._runners: Dict[int, HonestRunner] = {}
        self.aborted = False
        self.claimed: Optional[object] = None

    # -- engine hooks ---------------------------------------------------------
    def initial_corruptions(self, n: int) -> Set[int]:
        return set(self._static_corruptions)

    def on_corrupt(self, party: CorruptedParty) -> None:
        self._runners[party.index] = party.runner

    def on_round(self, iface: RoundInterface) -> None:
        self.before_round(iface)
        if self.aborted:
            return
        contexts: Dict[int, PartyContext] = {}
        for i in sorted(self._runners):
            runner = self._runners[i]
            if runner.current_round <= iface.round:
                contexts[i] = runner.step(iface.round, iface.inbox(i))
        if self.should_abort(iface, contexts):
            self.aborted = True
            return  # withhold every corrupted round message
        for i, ctx in contexts.items():
            self.forward(iface, i, ctx)
        for i, runner in self._runners.items():
            out = runner.output
            if out is not None and out.kind == OUTPUT_REAL:
                self._claim(iface, out.value)

    def finish(self, iface: RoundInterface) -> None:
        if self.aborted:
            return
        # Step corrupted machines on the final delivered inboxes so that a
        # passive adversary collects its last-round output.
        for i in sorted(self._runners):
            runner = self._runners[i]
            if runner.output is None and runner.current_round <= iface.round:
                runner.step(iface.round, iface.inbox(i))
            out = runner.output
            if out is not None and out.kind == OUTPUT_REAL:
                self._claim(iface, out.value)

    # -- strategy hooks ---------------------------------------------------------
    def before_round(self, iface: RoundInterface) -> None:
        """Pre-step hook (adaptive corruptions, etc.)."""

    def should_abort(self, iface: RoundInterface, contexts) -> bool:
        """Decide whether to withhold this round's corrupted messages.

        May call :meth:`coalition_probe` and :meth:`claim` first.
        """
        return False

    def forward(self, iface: RoundInterface, index: int, ctx: PartyContext) -> None:
        """Relay one corrupted machine's honest round behaviour."""
        for message in ctx.outgoing:
            if message.broadcast:
                iface.broadcast(index, message.payload)
            else:
                iface.send(index, message.receiver, message.payload)
        for fname, payload in ctx.func_calls.items():
            iface.call_functionality(index, fname, payload)

    # -- probing ---------------------------------------------------------------
    def coalition_probe(
        self, iface: RoundInterface, contexts: Dict[int, PartyContext]
    ) -> Dict[int, Optional[OutputRecord]]:
        """For each corrupted party: its output if everyone aborted now.

        "Now" means after this round's honest messages (observed by
        rushing) and the coalition's own round messages are delivered, with
        silence afterwards.
        """
        rushing = iface.rushing_messages()
        coalition_msgs: List[Message] = []
        for ctx in contexts.values():
            coalition_msgs.extend(ctx.outgoing)
        results: Dict[int, Optional[OutputRecord]] = {}
        for i, runner in self._runners.items():
            if runner.output is not None:
                results[i] = runner.output
                continue
            probe = runner.clone()
            inbox = Inbox()
            for m in rushing + coalition_msgs:
                if m.sender != i and (m.broadcast or m.receiver == i):
                    inbox.add(m)
            probe.step(iface.round + 1, inbox)
            results[i] = probe.output or probe._complete_silently()
        return results

    def probe_real_output(
        self, iface: RoundInterface, contexts
    ) -> Optional[object]:
        """The coalition's real output under abort-now, if it holds one."""
        for record in self.coalition_probe(iface, contexts).values():
            if record is not None and record.kind == OUTPUT_REAL:
                return record.value
        return None

    # -- claims -----------------------------------------------------------------
    def _claim(self, iface: RoundInterface, value) -> None:
        self.claimed = value
        iface.claim_output(value)

    def claim(self, iface: RoundInterface, value) -> None:
        """Record an extracted output (verified later by the classifier)."""
        self._claim(iface, value)


class PassiveAdversary(MachineDrivingAdversary):
    """Honest-but-curious: follows the protocol, claims what it learns."""

    name = "passive"

    def __init__(self, corrupt: Set[int] = frozenset()):
        super().__init__(corrupt)
        if corrupt:
            self.name = f"passive{sorted(corrupt)}"
