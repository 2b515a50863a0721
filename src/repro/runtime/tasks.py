"""Batch tasks: the unit of work a runner fans out and folds back.

A *task* is anything with an ``n_runs`` attribute and a
``run_chunk(start, stop)`` method returning a **mergeable partial** — a
value that can be combined with another chunk's partial via
:func:`merge_partials` (``EventCounts``, ``collections.Counter``, plain
ints, or tuples of those).  Runners split ``range(n_runs)`` into chunks,
execute the chunks (serially or across worker processes) and merge the
partials in ascending chunk order, so the folded result never depends on
which backend ran the chunks.

:class:`ExecutionTask` is the standard task: the estimator's
protocol-vs-adversary Monte-Carlo loop.  Its seed derivation is the
contract that makes parallelism invisible: run ``k`` *always* draws from
``Rng(seed).fork(f"run-{k}")``, exactly as the original serial loop did,
so any partition of ``range(n_runs)`` into chunks replays bit-identical
executions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .. import metrics
from ..core.events import FairnessEvent, classify
from ..core.utility import EventCounts
from ..crypto.prf import Rng
from ..engine.execution import ProtocolViolation, run_execution


def default_chunk_size(n_runs: int) -> int:
    """Chunk size used when none is given: a pure function of ``n_runs``.

    Deliberately independent of the worker count so that early-stopping
    decisions (taken at chunk boundaries) land on the same run index no
    matter which backend executes the batch.
    """
    return max(16, math.ceil(n_runs / 32))


def plan_chunks(
    n_runs: int, chunk_size: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Partition ``range(n_runs)`` into contiguous ``(start, stop)`` spans.

    Every chunk but the last has ``chunk_size`` runs (or
    :func:`default_chunk_size` when none is given).  The plan is a pure
    deterministic function of the arguments: same task, same knobs →
    byte-identical spans, on every venue.
    """
    if n_runs <= 0:
        raise ValueError("need at least one run")
    if chunk_size is not None and chunk_size <= 0:
        raise ValueError("chunk size must be positive")
    size = chunk_size if chunk_size is not None else default_chunk_size(n_runs)
    return [(lo, min(lo + size, n_runs)) for lo in range(0, n_runs, size)]


def merge_partials(a, b):
    """Fold two chunk partials into one (tuples merge element-wise)."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            raise ValueError("cannot merge tuples of different arity")
        return tuple(merge_partials(x, y) for x, y in zip(a, b))
    return a + b


@dataclass
class ExecutionTask:
    """One protocol-vs-strategy Monte-Carlo batch.

    ``run_chunk`` reproduces the estimator's historical serial loop
    verbatim: per-run RNGs are ``Rng(seed).fork(f"run-{k}")``, with
    ``inputs``/``adversary``/``exec`` sub-streams, so chunked execution is
    bit-identical to a single serial sweep over ``range(n_runs)``.
    """

    protocol: object
    factory: Callable[[Rng], object]
    n_runs: int
    seed: object = 0
    input_sampler: Optional[Callable[[Rng], tuple]] = None

    @property
    def label(self) -> str:
        return getattr(self.factory, "name", "adversary")

    def cache_material(self):
        """Canonical content description for chunk-cache fingerprints:
        the protocol's ``cache_key``, the strategy name, the input
        sampler's token and the master seed.

        Returns ``None`` — meaning "never cache me" — when any component
        lacks a stable identity: a protocol without a ``cache_key``, an
        anonymous adversary factory, or a custom input sampler without a
        ``cache_token`` attribute.  The material deliberately excludes
        ``n_runs`` (chunks are keyed by their span, so a 400-run and an
        800-run sweep share their common prefix) and anything
        payoff-related (chunk partials are raw event counts, folded with
        γ only downstream).
        """
        protocol_key = getattr(self.protocol, "cache_key", None)
        factory_name = getattr(self.factory, "name", None)
        if protocol_key is None or factory_name is None:
            return None
        if self.input_sampler is None:
            sampler_token = ""
        else:
            sampler_token = getattr(self.input_sampler, "cache_token", None)
            if sampler_token is None:
                return None
        return (
            "execution-task",
            protocol_key,
            factory_name,
            sampler_token,
            self.seed,
        )

    def run_chunk(self, start: int, stop: int) -> EventCounts:
        master = Rng(self.seed)
        counts = EventCounts()
        phases = [0.0, 0.0, 0.0]
        try:
            for k in range(start, stop):
                counts.record(*self.run_one(master.fork(f"run-{k}"), phases))
        finally:
            metrics.add("setup_s", phases[0])
            metrics.add("execute_s", phases[1])
            metrics.add("classify_s", phases[2])
        return counts

    def run_one(
        self, rng: Rng, phases: Optional[List[float]] = None
    ) -> Tuple[FairnessEvent, frozenset]:
        """One run from its stream ``run-{k}``: ``(event, corrupted)``,
        adding its setup, execution and classification seconds to
        ``phases`` when given.  Kernels pass their own ``Rng`` (a
        recording one to calibrate), so nothing is patched to watch a
        run's draws."""
        phases = [0.0, 0.0, 0.0] if phases is None else phases
        sampler = self.input_sampler or self.protocol.func.sample_inputs
        clock = time.perf_counter
        t0 = clock()
        inputs = sampler(rng.fork("inputs"))
        adversary = self.factory(rng.fork("adversary"))
        t1 = clock()
        try:
            result = run_execution(
                self.protocol, inputs, adversary, rng.fork("exec")
            )
        except ProtocolViolation as exc:
            # An honest party never output: a protocol bug, but the
            # batch degrades to a classified event instead of dying.
            # The attached result carries the hung set.
            t2 = clock()
            event, corrupted = FairnessEvent.HONEST_HUNG, exc.result.corrupted
        else:
            t2 = clock()
            event = self.protocol.classify_result(result)
            if event is None:
                event = classify(result, self.protocol.func)
            corrupted = result.corrupted
        phases[0] += t1 - t0
        phases[1] += t2 - t1
        phases[2] += clock() - t2
        return event, frozenset(corrupted)
