"""The synchronous execution scheduler.

Implements the model of DESIGN.md §4: synchronous rounds over secure
bilateral channels and a non-equivocating broadcast channel, a rushing
adversary with adaptive corruptions, and single-round hybrid functionality
invocations whose responses arrive with the next round's inbox.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set

from ..crypto.prf import Rng
from ..functionalities.base import AdversaryHandle, FunctionalityRegistry
from .adversary import Adversary, CorruptedParty, RoundInterface
from .faults import ANNOTATION_DROPPED, ANNOTATION_DUPLICATE, EngineFaults
from .messages import ABORT, Inbox, Message
from .party import HonestRunner, OutputRecord


class ProtocolViolation(RuntimeError):
    """An honest machine failed to output by the protocol's round bound.

    Raised only when no engine faults are active: under a lossless network
    a hung honest party is a protocol bug and must be loud.  When fault
    injection is enabled the engine instead records the party in
    :attr:`ExecutionResult.hung` (classified downstream as
    ``HONEST_HUNG``).  The finished :class:`ExecutionResult` is attached to
    the exception as ``exc.result`` so batch runners can still classify
    the run instead of losing the whole chunk.
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
    crashed: Set[int] = field(default_factory=set)
    hung: Set[int] = field(default_factory=set)
    fault_events: Dict[str, int] = field(default_factory=dict)

    @property
    def honest(self) -> Set[int]:
        return set(range(self.n)) - self.corrupted

    @property
    def surviving_honest(self) -> Set[int]:
        """Honest parties that did not crash-stop.

        Fairness is assessed over these, following the fail-stop
        convention: a crashed party is a casualty of the fault model, not a
        participant whose (missing) output the adversary exploited.
        """
        return self.honest - self.crashed

    @property
    def honest_outputs(self) -> Dict[int, OutputRecord]:
        return {i: rec for i, rec in self.outputs.items() if i in self.honest}

    def all_honest_received(self) -> bool:
        """Did every surviving honest party produce a non-⊥ output?

        A hung party (in :attr:`hung`, hence absent from ``outputs``) makes
        this ``False`` — it must not be silently skipped.
        """
        surviving = self.surviving_honest
        if not surviving:
            return False
        return all(
            i in self.outputs and not self.outputs[i].is_abort
            for i in surviving
        )


class Execution:
    """One protocol execution against one adversary."""

    def __init__(
        self,
        protocol,
        inputs: Sequence,
        adversary: Adversary,
        rng: Rng,
        faults: Optional[EngineFaults] = None,
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

        # Fault injection.  ``faults_active`` gates every new code path so
        # the zero-fault execution is bit-identical to the historical one.
        self.faults = faults if faults is not None else EngineFaults()
        self.faults_active = self.faults.active
        self._channel = self.faults.channel if self.faults_active else None
        if self._channel is not None and not self._channel.active:
            self._channel = None
        self.crashed: Set[int] = set()
        self._failed: Set[int] = set()
        self._crash_rounds: Dict[int, int] = {}
        if self.faults_active and self.faults.party is not None:
            for i in range(self.n):
                crash = self.faults.party.crash_round(i, protocol.max_rounds)
                if crash is not None:
                    self._crash_rounds[i] = crash
        # Delayed messages in flight: delivery-phase round → messages that
        # land in the inboxes built during that round.
        self._delayed: Dict[int, List[Message]] = {}
        self.fault_events: Dict[str, int] = {}

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
        crashed = self.crashed
        failed = self._failed
        crash_rounds = self._crash_rounds
        delayed = self._delayed
        faults_active = self.faults_active
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
                if (
                    crash_rounds
                    and i in crash_rounds
                    and round_no >= crash_rounds[i]
                ):
                    # Crash-stop: the party halts silently — no stepping,
                    # no messages, no functionality calls, ever again.
                    if i not in crashed:
                        crashed.add(i)
                        self._count_fault("crashes")
                    continue
                if failed and i in failed:
                    continue
                if faults_active:
                    # A machine stepping on a fault-mangled inbox may fail
                    # in ways the protocol author never had to consider
                    # (missing shares, malformed payloads).  Graceful
                    # degradation: treat the error as the party detecting a
                    # broken execution; it gets its fallback output at the
                    # round bound instead of killing the whole run.
                    try:
                        ctx = runner.step(round_no, inboxes[i])
                    except Exception:
                        failed.add(i)
                        self._count_fault("step_errors")
                        continue
                else:
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

            # 4. Message delivery.  Only party-originated traffic crosses
            #    the (possibly faulty) network; functionality responses in
            #    step 3 model ideal computation and are never faulted.
            if self._channel is None:
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
            else:
                self._deliver_faulty(round_no, next_inboxes, iface.outgoing)

            inboxes = next_inboxes
            rounds_used = round_no + 1

            # 5. Early termination once every surviving honest party has
            #    output and no functionality responses are still
            #    undelivered.  With every party corrupted there is no
            #    honest output to wait for, but ``all`` over the empty set
            #    would be vacuously True and end the execution at round 1
            #    regardless of protocol logic — instead the adversary keeps
            #    its full round bound.  A delayed message still in flight
            #    also blocks the exit until it lands or is dropped.
            honest_done = False
            for i, runner in enumerate(runners):
                if i in corrupted or i in crashed:
                    continue
                if runner.output is None:
                    honest_done = False
                    break
                honest_done = True
            if honest_done and not delayed and not any(inboxes):
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
            if (
                runner.output is None
                and self.faults_active
                and i not in self.crashed
            ):
                # Graceful degradation: the party detected at the round
                # bound that its prescribed flow stalled (an expected
                # message never arrived) and takes its protocol's
                # default-output path instead of hanging.
                try:
                    runner.finish_fallback()
                except Exception:
                    self._count_fault("fallback_errors")
            if runner.output is not None:
                outputs[i] = runner.output
            elif i not in self.crashed:
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
            crashed=set(self.crashed),
            hung=set(missing),
            fault_events=dict(self.fault_events),
        )
        if missing and not self.faults_active:
            # Under a lossless network this is a protocol bug: be loud.
            # With faults active the hung set is data, not an error — it
            # surfaces downstream as a classified HONEST_HUNG event.
            raise ProtocolViolation(
                f"honest parties {missing} never produced an output "
                f"within {self.protocol.max_rounds} rounds of "
                f"{self.protocol.name}",
                result=result,
            )
        return result

    # -- faulty delivery ----------------------------------------------------
    def _count_fault(self, kind: str) -> None:
        self.fault_events[kind] = self.fault_events.get(kind, 0) + 1

    def _deliver_faulty(
        self,
        round_no: int,
        next_inboxes: List[Inbox],
        adversary_outgoing: List[Message],
    ) -> None:
        """Step 4 under an active :class:`ChannelFaultModel`.

        Every delivery *attempt* gets exactly one transcript entry:
        delivered copies unannotated (or ``"duplicate"`` for the extra
        copy), lost ones ``"dropped"``, late ones ``"delayed+k"`` — so a
        trace replay sees each attempt once, with its fate.
        """
        channel = self._channel
        # Delayed messages landing this round were logged (annotated) when
        # the fault was rolled; they join the inboxes without a new entry.
        for msg in self._delayed.pop(round_no, []):
            next_inboxes[msg.receiver].add(msg)
        for msg_index, msg in enumerate(
            self.pending_honest_messages + adversary_outgoing
        ):
            if msg.broadcast:
                self._deliver_broadcast(round_no, msg, msg_index, next_inboxes)
                continue
            decision = channel.bilateral(
                round_no, msg.sender, msg.receiver, msg_index
            )
            if decision.action == "drop":
                self.transcript.append(
                    replace(msg, annotation=ANNOTATION_DROPPED)
                )
                self._count_fault("dropped")
            elif decision.action == "delay":
                land = round_no + decision.delay
                if land > self.protocol.max_rounds - 1:
                    # The delay overshoots the round bound — the message
                    # can never land, indistinguishable from a drop.
                    self.transcript.append(
                        replace(msg, annotation=ANNOTATION_DROPPED)
                    )
                    self._count_fault("dropped")
                else:
                    delayed = replace(
                        msg, annotation=f"delayed+{decision.delay}"
                    )
                    self.transcript.append(delayed)
                    self._delayed.setdefault(land, []).append(delayed)
                    self._count_fault("delayed")
            else:
                self.transcript.append(msg)
                next_inboxes[msg.receiver].add(msg)
                for _ in range(decision.copies - 1):
                    dup = replace(msg, annotation=ANNOTATION_DUPLICATE)
                    self.transcript.append(dup)
                    next_inboxes[msg.receiver].add(dup)
                    self._count_fault("duplicated")

    def _deliver_broadcast(
        self,
        round_no: int,
        msg: Message,
        msg_index: int,
        next_inboxes: List[Inbox],
    ) -> None:
        """Per-receiver broadcast attempts under an active channel model.

        The channel stays non-equivocating — every receiver that hears the
        broadcast hears the same payload — but individual receivers can
        miss it.  Each attempt is logged with its concrete receiver so a
        replay knows exactly who saw it.
        """
        for i in range(self.n):
            if i == msg.sender:
                continue
            decision = self._channel.broadcast(
                round_no, msg.sender, i, msg_index
            )
            attempt = replace(msg, receiver=i)
            if decision.action == "drop":
                self.transcript.append(
                    replace(attempt, annotation=ANNOTATION_DROPPED)
                )
                self._count_fault("broadcast_dropped")
            else:
                self.transcript.append(attempt)
                next_inboxes[i].add(attempt)

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
    faults: Optional[EngineFaults] = None,
) -> ExecutionResult:
    """Convenience wrapper: build and run a single execution."""
    return Execution(protocol, inputs, adversary, rng, faults=faults).run()
