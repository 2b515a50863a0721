"""Honest-party protocol machines and their execution context.

A protocol supplies one :class:`PartyMachine` per party.  The machine is a
state object driven round by round; it communicates exclusively through the
:class:`PartyContext` handed to :meth:`PartyMachine.on_round`.  Machines must
be deep-copyable: adaptive adversaries receive the live machine of a newly
corrupted party, and the generic lock-watching adversaries of the paper
(strategies A1/A2/Aī) clone machines to run "what if everyone else aborted
now?" simulations.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..crypto.prf import Rng
from .messages import ABORT, Inbox, Message

#: Output kinds an honest machine can report.
OUTPUT_REAL = "real"  # output produced by the prescribed protocol flow
OUTPUT_DEFAULT = "default"  # output re-computed locally with default inputs
OUTPUT_ABORT = "abort"  # the party output ⊥


@dataclass(frozen=True)
class OutputRecord:
    """An honest party's final output together with how it was obtained."""

    value: object
    kind: str

    def __post_init__(self):
        if self.kind not in (OUTPUT_REAL, OUTPUT_DEFAULT, OUTPUT_ABORT):
            raise ValueError(f"unknown output kind {self.kind!r}")

    @property
    def is_abort(self) -> bool:
        return self.kind == OUTPUT_ABORT


class PartyContext:
    """Mediates everything a machine may do during one round."""

    def __init__(self, index: int, n: int, round_no: int, rng: Rng):
        self.index = index
        self.n = n
        self.round = round_no
        self.rng = rng
        self.outgoing: List[Message] = []
        self.func_calls: Dict[str, object] = {}
        self._output: Optional[OutputRecord] = None

    def send(self, to: int, payload) -> None:
        """Send ``payload`` to party ``to`` over the secure channel."""
        if not 0 <= to < self.n:
            raise ValueError(f"no such party: {to}")
        if to == self.index:
            raise ValueError("parties do not message themselves")
        self.outgoing.append(
            Message(self.index, to, payload, self.round)
        )

    def broadcast(self, payload) -> None:
        """Broadcast ``payload`` to every party (non-equivocating channel)."""
        self.outgoing.append(
            Message(self.index, None, payload, self.round, broadcast=True)
        )

    def call(self, functionality: str, payload) -> None:
        """Submit input to hybrid functionality ``functionality``.

        The response arrives in next round's inbox, as a message whose
        sender is the functionality's name (or ``ABORT`` on abort).
        """
        if functionality in self.func_calls:
            raise ValueError(
                f"duplicate call to functionality {functionality!r} in one round"
            )
        self.func_calls[functionality] = payload

    def output(self, value, kind: str = OUTPUT_REAL) -> None:
        """Commit this party's final output."""
        if self._output is not None:
            raise RuntimeError("party already produced an output")
        self._output = OutputRecord(value, kind)

    def output_abort(self) -> None:
        """Output ⊥."""
        self.output(ABORT, OUTPUT_ABORT)

    @property
    def produced_output(self) -> Optional[OutputRecord]:
        return self._output


class PartyMachine(ABC):
    """Base class for per-party protocol state machines."""

    def __init__(self, index: int, n: int):
        self.index = index
        self.n = n

    def __deepcopy__(self, memo):
        # What the default deep copy does for a plain instance, minus the
        # pickle-protocol round trip (``__reduce_ex__``, copying the
        # attribute names): the coalition probe copies a machine per
        # corrupted party per round.
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update({
            name: copy.deepcopy(value, memo)
            for name, value in self.__dict__.items()
        })
        return clone

    def on_input(self, value) -> None:
        """Receive the private input from the environment (round -1)."""
        self.input = value

    @abstractmethod
    def on_round(self, round_no: int, inbox: Inbox, ctx: PartyContext) -> None:
        """Process one synchronous round."""


@dataclass
class PartyView:
    """The view handed to the adversary upon corrupting a party.

    Contains the party's input, all messages it received and sent, and the
    live machine (whose attributes encode the full internal state).
    """

    index: int
    input: object
    received: List[Message] = field(default_factory=list)
    sent: List[Message] = field(default_factory=list)
    machine: Optional[PartyMachine] = None


class HonestRunner:
    """Drives one honest party's machine and records its view.

    The runner is the engine's handle on a party; adversaries that corrupt
    the party receive the runner itself and may clone it to run
    counterfactual continuations (:meth:`clone`,
    :meth:`simulate_silent_completion`).
    """

    def __init__(self, machine: PartyMachine, rng: Rng, max_rounds: int):
        self.machine = machine
        self.rng = rng
        self.max_rounds = max_rounds
        self.output: Optional[OutputRecord] = None
        self.view = PartyView(index=machine.index, input=None)
        self.current_round = 0

    @property
    def index(self) -> int:
        return self.machine.index

    def give_input(self, value) -> None:
        self.machine.on_input(value)
        self.view.input = value

    def step(self, round_no: int, inbox: Inbox) -> PartyContext:
        """Run one round; returns the context with outgoing traffic."""
        ctx = PartyContext(
            self.machine.index, self.machine.n, round_no, self.rng
        )
        self.view.received.extend(inbox.messages)
        if self.output is None:
            self.machine.on_round(round_no, inbox, ctx)
            if ctx.produced_output is not None:
                self.output = ctx.produced_output
        self.view.sent.extend(ctx.outgoing)
        self.current_round = round_no + 1
        return ctx

    def clone(self) -> "HonestRunner":
        """Independent copy, for counterfactual simulation by an adversary.

        The machine and the RNG are deep-copied through one memo, so an
        RNG the machine also holds stays a single shared object in the
        copy.  The view's message lists are copied shallowly: messages
        are frozen and the view is append-only, so the copy's appends
        never reach the original.
        """
        memo: dict = {}
        sim = copy.copy(self)
        sim.machine = copy.deepcopy(self.machine, memo)
        sim.rng = copy.deepcopy(self.rng, memo)
        view = self.view
        sim.view = PartyView(
            index=view.index,
            input=view.input,
            received=list(view.received),
            sent=list(view.sent),
            machine=copy.deepcopy(view.machine, memo),
        )
        return sim

    def simulate_silent_completion(self) -> Optional[OutputRecord]:
        """Run the machine to completion assuming everyone else is silent.

        Empty inboxes are fed for every remaining round; hybrid calls
        are answered with ``ABORT``.  Returns the machine's final output
        (or ``None`` if it never outputs — a protocol bug).  Runs on a
        clone: this runner is left untouched.

        This is exactly the check the paper's strategies A1/A2/Aī perform:
        "simulate to a copy of pi that the others aborted the protocol and
        check whether the output is the default output".
        """
        return self.clone()._complete_silently()

    def _complete_silently(self) -> Optional[OutputRecord]:
        """:meth:`simulate_silent_completion` on this runner itself.

        For a runner that is already a throwaway copy (the coalition
        probe's), which needs no second clone.
        """
        pending_func_aborts: List[str] = []
        for r in range(self.current_round, self.max_rounds):
            inbox = Inbox()
            for fname in pending_func_aborts:
                inbox.add(Message(fname, self.index, ABORT, r))
            ctx = self.step(r, inbox)
            pending_func_aborts = list(ctx.func_calls.keys())
            if self.output is not None:
                return self.output
        return self.output
