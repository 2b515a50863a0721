"""The synchronous execution scheduler.

Implements the model of DESIGN.md §4: synchronous rounds over secure
bilateral channels and a non-equivocating broadcast channel, a rushing
adversary with adaptive corruptions, and single-round hybrid functionality
invocations whose responses arrive with the next round's inbox.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..crypto.prf import Rng
from ..functionalities.base import AdversaryHandle, FunctionalityRegistry
from .adversary import Adversary, CorruptedParty, RoundInterface
from .messages import Inbox, Message
from .party import HonestRunner, OutputRecord


class ProtocolViolation(RuntimeError):
    """An honest machine failed to output by the protocol's round bound.

    Under the lossless network of DESIGN.md §4 a hung honest party is a
    protocol bug and must be loud.  The finished :class:`ExecutionResult`
    (with the party in :attr:`ExecutionResult.hung`) is attached to the
    exception as ``exc.result`` so batch runners can still classify the
    run as ``HONEST_HUNG`` instead of losing the whole chunk.
    """

    def __init__(self, message: str, result: "ExecutionResult" = None):
        super().__init__(message)
        self.result = result


@dataclass
class ExecutionResult:
    """Everything the analysis layer needs about one finished execution."""

    protocol_name: str
    n: int
    inputs: tuple
    outputs: Dict[int, OutputRecord]
    corrupted: Set[int]
    adversary_claim: Optional[object]
    rounds_used: int
    transcript: List[Message] = field(default_factory=list)
    adversary_log: List[object] = field(default_factory=list)
    hung: Set[int] = field(default_factory=set)

    @property
    def honest(self) -> Set[int]:
        return set(range(self.n)) - self.corrupted

    @property
    def honest_outputs(self) -> Dict[int, OutputRecord]:
        return {i: rec for i, rec in self.outputs.items() if i in self.honest}

    def all_honest_received(self) -> bool:
        """Did every honest party produce a non-⊥ output?

        A hung party (in :attr:`hung`, hence absent from ``outputs``) makes
        this ``False`` — it must not be silently skipped.
        """
        honest = self.honest
        if not honest:
            return False
        return all(
            i in self.outputs and not self.outputs[i].is_abort
            for i in honest
        )


class Execution:
    """One protocol execution against one adversary."""

    def __init__(
        self,
        protocol,
        inputs: Sequence,
        adversary: Adversary,
        rng: Rng,
    ):
        if len(inputs) != protocol.n_parties:
            raise ValueError(
                f"{protocol.name} needs {protocol.n_parties} inputs, "
                f"got {len(inputs)}"
            )
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self.adversary = adversary
        self.n = protocol.n_parties
        self.rng = rng

        self.functionalities = FunctionalityRegistry(
            protocol.build_functionalities(rng.fork("functionalities"))
        )
        machines = protocol.build_machines(rng.fork("machines"))
        if len(machines) != self.n:
            raise ValueError("protocol built wrong number of machines")
        self.runners: List[HonestRunner] = [
            HonestRunner(m, rng.fork(f"party-{i}"), protocol.max_rounds)
            for i, m in enumerate(machines)
        ]

        self.corrupted: Set[int] = set()
        self.adversary_claim: Optional[object] = None
        self.transcript: List[Message] = []
        self.adversary_log: List[object] = []

        # Per-round state the RoundInterface reads.
        self.current_inboxes: List[Inbox] = []
        self.pending_honest_messages: List[Message] = []

    # -- corruption ---------------------------------------------------------
    def corrupt_party(self, index: int) -> CorruptedParty:
        if not 0 <= index < self.n:
            raise ValueError(f"no such party: {index}")
        if index in self.corrupted:
            raise ValueError(f"party {index} is already corrupted")
        self.corrupted.add(index)
        runner = self.runners[index]
        party = CorruptedParty(index, runner.view, runner)
        self.adversary.on_corrupt(party)
        return party

    # -- main loop ----------------------------------------------------------
    def run(self) -> ExecutionResult:
        # Input distribution (the environment's move).
        for i, runner in enumerate(self.runners):
            runner.give_input(self.inputs[i])

        # Static corruptions: the adversary sees the corrupted inputs.
        for i in sorted(self.adversary.initial_corruptions(self.n)):
            self.corrupt_party(i)

        n = self.n
        parties = range(n)
        runners = self.runners
        adversary = self.adversary
        functionalities = self.functionalities
        rng = self.rng
        # Mutated in place, never rebound, so the locals stay current.
        corrupted = self.corrupted
        transcript_append = self.transcript.append
        log_append = self.adversary_log.append

        inboxes: List[Inbox] = [Inbox() for _ in parties]
        rounds_used = 0

        for round_no in range(self.protocol.max_rounds):
            self.current_inboxes = inboxes
            pending = self.pending_honest_messages = []
            func_inputs: Dict[str, Dict[int, object]] = {}

            # 1. Honest parties act on this round's inbox.
            for i, runner in enumerate(runners):
                if i in corrupted:
                    continue
                ctx = runner.step(round_no, inboxes[i])
                pending.extend(ctx.outgoing)
                for fname, payload in ctx.func_calls.items():
                    func_inputs.setdefault(fname, {})[i] = payload

            # 2. Rushing adversary observes and acts.
            iface = RoundInterface(self, round_no)
            adversary.on_round(iface)
            self._log_adversary_view()

            # 3. Hybrid functionality invocations, on the honest inputs
            #    with the adversary's merged in.
            next_inboxes: List[Inbox] = [Inbox() for _ in parties]
            for fname, per_party in iface.func_inputs.items():
                func_inputs.setdefault(fname, {}).update(per_party)
            for fname, submitted in func_inputs.items():
                functionality = functionalities.get(fname)
                handle = AdversaryHandle(adversary, fname, corrupted)
                responses = functionality.invoke(
                    submitted, handle, rng.fork(f"{fname}@{round_no}"), n
                )
                for i, payload in responses.items():
                    msg = Message(fname, i, payload, round_no)
                    next_inboxes[i].add(msg)
                    transcript_append(msg)
                    if i in corrupted:
                        log_append(("func-response", fname, payload))

            # 4. Message delivery over the lossless channels.
            for sent in (pending, iface.outgoing):
                for msg in sent:
                    transcript_append(msg)
                    if msg.broadcast:
                        sender = msg.sender
                        for i in parties:
                            if i != sender:
                                next_inboxes[i].add(msg)
                    else:
                        next_inboxes[msg.receiver].add(msg)

            inboxes = next_inboxes
            rounds_used = round_no + 1

            # 5. Early termination once every honest party has output and
            #    no functionality responses are still undelivered.  With
            #    every party corrupted there is no honest output to wait
            #    for, but ``all`` over the empty set would be vacuously True
            #    and end the execution at round 1 regardless of protocol
            #    logic — instead the adversary keeps its full round bound.
            honest_done = False
            for i, runner in enumerate(runners):
                if i in corrupted:
                    continue
                if runner.output is None:
                    honest_done = False
                    break
                honest_done = True
            if honest_done and not any(inboxes):
                break

        # Final adversary hook: it may read the last delivered inboxes
        # (e.g. the final reconstruction message addressed to a corrupted
        # party) and place its output claim.
        self.current_inboxes = inboxes
        self.pending_honest_messages = []
        self.adversary.finish(RoundInterface(self, rounds_used))

        outputs: Dict[int, OutputRecord] = {}
        missing = []
        for i, runner in enumerate(self.runners):
            if i in self.corrupted:
                continue
            if runner.output is not None:
                outputs[i] = runner.output
            else:
                missing.append(i)

        result = ExecutionResult(
            protocol_name=self.protocol.name,
            n=self.n,
            inputs=self.inputs,
            outputs=outputs,
            corrupted=set(self.corrupted),
            adversary_claim=self.adversary_claim,
            rounds_used=rounds_used,
            transcript=self.transcript,
            adversary_log=self.adversary_log,
            hung=set(missing),
        )
        if missing:
            raise ProtocolViolation(
                f"honest parties {missing} never produced an output "
                f"within {self.protocol.max_rounds} rounds of "
                f"{self.protocol.name}",
                result=result,
            )
        return result

    def _log_adversary_view(self) -> None:
        """Record what the adversary could see this round (privacy analysis):
        the messages :meth:`RoundInterface.rushing_messages` returns."""
        corrupted = self.corrupted
        log_append = self.adversary_log.append
        for m in self.pending_honest_messages:
            if m.broadcast or m.receiver in corrupted:
                log_append(("msg", m.sender, m.receiver, m.payload))


def run_execution(
    protocol,
    inputs,
    adversary,
    rng: Rng,
) -> ExecutionResult:
    """Convenience wrapper: build and run a single execution."""
    return Execution(protocol, inputs, adversary, rng).run()
