"""Deterministic engine-level fault injection: unreliable channels and
crash-stop parties.

The paper proves its utility bounds in a synchronous model with perfectly
reliable channels, where a missing message can only be a deliberate
adversarial abort.  This module lets the engine ask the natural follow-up
question studied by the fail-stop fairness literature (Cohen–Haitner–Omri–
Rotem; Beimel–Omri–Orlov): what happens to the fairness-event distribution
and the adversarial utility when the *network* or a *party* is faulty, with
no adversary involved?

Two orthogonal models, bundled by :class:`EngineFaults`:

* :class:`ChannelFaultModel` — per-delivery-attempt faults on the bilateral
  channels (drop, delay by ``k`` rounds, duplicate) plus an independently
  configurable per-receiver broadcast reliability.  Hybrid-functionality
  responses are never faulted: they model ideal/local computation, not
  network traffic.
* :class:`PartyFaultModel` — crash-stop faults: an *honest* party halts
  silently at a scheduled or sampled round and never speaks again.  This is
  distinct from adversarial corruption: a crashed party is not controlled
  by anyone, sends nothing, and is excluded from the honest-learned
  predicate (fairness is assessed over the surviving honest parties, as in
  the fail-stop model).

Determinism contract
--------------------
Every fault decision is a pure function of the model's ``seed`` and the
delivery coordinates ``(round, sender, receiver, msg_index)`` (or the party
index, for crashes).  Monte-Carlo batches vary the pattern *per run* by
re-salting the seed through :meth:`EngineFaults.seeded` with material drawn
from the run's own RNG stream (``Rng(seed).fork(f"run-{k}")``), so any
``(task, start, stop)`` chunk stays bit-identically replayable under the
runtime's retry machinery, and serial vs. process-pool backends agree.

The zero-rate models are strict no-ops: :attr:`EngineFaults.active` is
``False`` and the engine takes the historical delivery path untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional

from ..crypto.prf import Rng

#: Transcript annotations the engine attaches to per-attempt log entries.
ANNOTATION_DROPPED = "dropped"
ANNOTATION_DUPLICATE = "duplicate"


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ChannelDecision:
    """Outcome of one delivery attempt.

    ``action`` is ``"deliver"``, ``"drop"``, or ``"delay"``; ``delay`` is
    the number of extra rounds a delayed message spends in flight; and
    ``copies`` is the total number of delivered copies (2 = duplicated).
    """

    action: str = "deliver"
    delay: int = 0
    copies: int = 1


_DELIVER = ChannelDecision()
_DROP = ChannelDecision(action="drop")


@dataclass(frozen=True)
class ChannelFaultModel:
    """Unreliable bilateral channels + lossy broadcast, deterministically.

    ``loss``/``delay``/``duplicate`` are per-delivery-attempt probabilities
    on the bilateral channels (mutually exclusive, checked in that order);
    a delayed message spends ``k`` extra rounds in flight with ``k`` drawn
    uniformly from ``1..max_delay``.  ``broadcast_loss`` is the
    *per-receiver* drop probability of the broadcast channel — the channel
    stays non-equivocating (no receiver ever sees a different payload),
    some receivers just miss it.
    """

    loss: float = 0.0
    delay: float = 0.0
    max_delay: int = 2
    duplicate: float = 0.0
    broadcast_loss: float = 0.0
    seed: object = 0

    def __post_init__(self):
        _check_rate("loss", self.loss)
        _check_rate("delay", self.delay)
        _check_rate("duplicate", self.duplicate)
        _check_rate("broadcast_loss", self.broadcast_loss)
        if self.max_delay < 1:
            raise ValueError("max_delay must be at least one round")

    @property
    def active(self) -> bool:
        return (
            self.loss > 0
            or self.delay > 0
            or self.duplicate > 0
            or self.broadcast_loss > 0
        )

    def bilateral(
        self, round_no: int, sender, receiver, msg_index: int
    ) -> ChannelDecision:
        """Fault decision for one bilateral delivery attempt.

        A pure function of ``(seed, round, sender, receiver, msg_index)``.
        """
        if not (self.loss or self.delay or self.duplicate):
            return _DELIVER
        rng = Rng((self.seed, "chan", round_no, sender, receiver, msg_index))
        if self.loss and rng.random() < self.loss:
            return _DROP
        if self.delay and rng.random() < self.delay:
            return ChannelDecision(
                action="delay", delay=rng.randint(1, self.max_delay)
            )
        if self.duplicate and rng.random() < self.duplicate:
            return ChannelDecision(copies=2)
        return _DELIVER

    def broadcast(
        self, round_no: int, sender, receiver, msg_index: int
    ) -> ChannelDecision:
        """Per-receiver fault decision for one broadcast delivery attempt."""
        if not self.broadcast_loss:
            return _DELIVER
        rng = Rng((self.seed, "bcast", round_no, sender, receiver, msg_index))
        if rng.random() < self.broadcast_loss:
            return _DROP
        return _DELIVER


@dataclass(frozen=True)
class PartyFaultModel:
    """Crash-stop faults for honest parties.

    A crashed party halts *silently*: from its crash round on it neither
    steps its machine, sends messages, nor calls functionalities — it is
    not corrupted and not controlled by the adversary.  ``scheduled`` pins
    explicit ``party → round`` crashes; otherwise each party independently
    crashes with probability ``crash_rate`` at a round sampled uniformly
    from the protocol's round range, as a pure function of
    ``(seed, party)``.
    """

    crash_rate: float = 0.0
    scheduled: Optional[Mapping[int, int]] = None
    seed: object = 0

    def __post_init__(self):
        _check_rate("crash_rate", self.crash_rate)

    @property
    def active(self) -> bool:
        return self.crash_rate > 0 or bool(self.scheduled)

    def crash_round(self, party: int, max_rounds: int) -> Optional[int]:
        """The round at which ``party`` halts, or ``None`` (never crashes)."""
        if self.scheduled is not None and party in self.scheduled:
            return self.scheduled[party]
        if self.crash_rate <= 0:
            return None
        rng = Rng((self.seed, "crash", party))
        if rng.random() < self.crash_rate:
            return rng.randrange(max_rounds)
        return None


@dataclass(frozen=True)
class EngineFaults:
    """The bundle one execution runs under: channel + party fault models."""

    channel: Optional[ChannelFaultModel] = None
    party: Optional[PartyFaultModel] = None

    @property
    def active(self) -> bool:
        return bool(
            (self.channel is not None and self.channel.active)
            or (self.party is not None and self.party.active)
        )

    def seeded(self, salt) -> "EngineFaults":
        """A copy whose fault seeds are re-salted with per-run material.

        ``ExecutionTask.run_chunk`` derives ``salt`` from the run's own RNG
        stream, so the pattern varies across Monte-Carlo runs while any
        single run stays a pure function of ``(task seed, k)``.
        """
        channel = self.channel
        if channel is not None:
            channel = replace(channel, seed=(channel.seed, "run", salt))
        party = self.party
        if party is not None:
            party = replace(party, seed=(party.seed, "run", salt))
        return EngineFaults(channel=channel, party=party)

    def to_dict(self) -> dict:
        """Plain-dict form recorded in ``analysis.export`` artefacts."""
        out: Dict[str, object] = {}
        if self.channel is not None:
            out["channel"] = {
                "loss": self.channel.loss,
                "delay": self.channel.delay,
                "max_delay": self.channel.max_delay,
                "duplicate": self.channel.duplicate,
                "broadcast_loss": self.channel.broadcast_loss,
                "seed": repr(self.channel.seed),
            }
        if self.party is not None:
            out["party"] = {
                "crash_rate": self.party.crash_rate,
                "scheduled": dict(self.party.scheduled or {}),
                "seed": repr(self.party.seed),
            }
        return out


#: Explicitly disable engine fault injection (a strict no-op config).
NO_ENGINE_FAULTS = EngineFaults()
