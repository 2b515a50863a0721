"""Per-batch and per-chunk execution statistics.

Every :class:`~repro.runtime.runner.BatchRunner` records a :class:`RunStats`
for its most recent batch: which backend actually ran, how much work was
requested vs. executed (the two differ when adaptive early stopping fires),
the realised throughput, and — since the runtime grew failure semantics —
what the recovery machinery had to do: failed attempts, in-pool retries,
chunk deadline misses, and degradations to trusted serial replay.  Each
completed chunk leaves a :class:`ChunkStats` record so a biased or slow
sweep can be traced to the exact ``(task, start, stop)`` span that
misbehaved.  The structs are exported through ``analysis.export`` so
benchmark trajectories can track executions/sec and failure counts
alongside the measurements themselves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.utility import EventCounts
from ..metrics import with_defaults

#: Valid ``ChunkStats.outcome`` values.
CHUNK_OUTCOMES = ("ok", "retried", "replayed", "cancelled", "journaled")

#: The ``RunStats`` counter a chunk of each of these outcomes adds one to.
_OUTCOME_COUNTERS = {
    "cancelled": "cancelled_chunks",
    "replayed": "serial_replays",
    "journaled": "journal_replayed_chunks",
}


@dataclass(frozen=True)
class ChunkStats:
    """One chunk's journey through the runner.

    ``attempts`` counts every execution attempt including the successful
    one (1 = clean first try).  ``outcome`` is ``"ok"`` for a clean first
    attempt, ``"retried"`` when at least one retry was needed,
    ``"replayed"`` when the chunk exhausted its retries and completed via
    trusted in-process serial replay, ``"cancelled"`` when adaptive
    early stopping dropped the chunk before it was consumed, and
    ``"journaled"`` when the batch replayed the partial from the
    crash-safe run ledger instead of recomputing it.
    ``wall_clock_s`` is parent-observed (for pool chunks it runs from
    the chunk's first dispatch to a worker, so it includes any wait in
    that worker's pipe and retry backoff).

    ``setup_s``/``execute_s``/``classify_s`` split the chunk's in-task
    time into the per-run phases (input sampling + adversary
    construction, protocol execution, event classification), measured in
    whichever process actually ran the chunk.  ``cache`` records the
    chunk's journey through the persistent chunk cache: ``"hit"`` —
    served from disk, ``"stored"`` — computed and persisted, ``""`` — no
    cache involved.

    ``backend`` names the *venue* (``"serial"``/``"process-pool"``);
    ``engine`` names the execution engine that computed the partial —
    ``"reference"`` for the state machine, ``"vectorized"`` for a chunk
    kernel, ``"cache"`` when the partial was served from disk,
    ``"journal"`` when it was replayed from the run ledger, and in
    both of those cases no engine ran at all.
    """

    task_index: int
    start: int
    stop: int
    attempts: int
    outcome: str
    backend: str
    wall_clock_s: float
    setup_s: float = 0.0
    execute_s: float = 0.0
    classify_s: float = 0.0
    cache: str = ""
    engine: str = "reference"

    @property
    def n_runs(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class RunStats:
    """Wall-clock and failure accounting for one runner batch.

    The fields name the batch: its venue, size and what it executed.
    ``backend`` is the runner *venue* (``"serial"``/``"process-pool"``);
    ``execution_backend`` records which engine computed the events:
    ``"reference"``, ``"vectorized"``, or ``"mixed"`` when a batch split
    between them (e.g. some tasks had kernels and others fell back).

    ``metrics`` holds every counter of the batch by its export name (see
    :mod:`repro.metrics`), read as attributes too (``stats.cache_hits``):
    the recovery machinery's ``failed_attempts``/``retries``/``timeouts``/
    ``serial_replays``/``cancelled_chunks``; the run ledger's
    ``journal_replayed_chunks``/``journal_appended_chunks``/
    ``journal_corrupt_records``; the chunk cache's ``cache_*``; the summed
    per-phase seconds of its chunks (``setup_s``/``execute_s``/
    ``classify_s``, measured in whichever process ran them); the field
    setup memos' ``memo_hits``/``memo_misses`` (validated moduli,
    interned fields, Lagrange bases); ``vectorized_runs`` (executions
    handled by chunk kernels) and ``calibration_runs`` (engine runs those
    kernels stepped while being built, see
    ``vectorized.kernels.calibrated``).  ``service_dedup_hits``/
    ``service_rate_limited`` are stamped onto a service job's last batch
    export by ``service.jobs.JobPool``.  Every name in
    :data:`repro.metrics.EXPORTED` is present; any other name the batch
    counted rides beside them (``circuit_memo_hits`` in a batch that
    compiles a circuit, say).
    """

    backend: str
    jobs: int
    n_tasks: int
    n_chunks: int
    requested: int
    executions: int
    wall_clock_s: float
    stopped_early: bool = False
    execution_backend: str = "reference"
    metrics: Dict[str, float] = field(default_factory=dict)
    chunks: Tuple[ChunkStats, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "metrics", with_defaults(self.metrics))

    def __getattr__(self, name: str):
        try:
            return self.__dict__["metrics"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def executions_per_sec(self) -> float:
        if self.wall_clock_s <= 0:
            return float("inf") if self.executions else 0.0
        return self.executions / self.wall_clock_s

    @property
    def degraded(self) -> bool:
        """Did any chunk fall off the pool onto the serial-replay rung?"""
        return self.serial_replays > 0

    @property
    def chunk_spans(self) -> Tuple[Tuple[int, int, int], ...]:
        """The ``(task_index, start, stop)`` spans this batch executed.

        Each span identifies a deterministic slice of a task's run
        indices; together with the task seed they are all a replay needs
        to reproduce the batch bit-identically (``ExecutionTask.run_chunk``
        derives every per-run RNG from ``fork(f"run-{k}")``).  Cancelled
        chunks are excluded — they contributed no events.
        """
        return tuple(
            (c.task_index, c.start, c.stop)
            for c in self.chunks
            if c.outcome != "cancelled"
        )

    def __str__(self) -> str:
        text = (
            f"{self.backend}(jobs={self.jobs}): {self.executions}/"
            f"{self.requested} executions in {self.wall_clock_s:.3f}s "
            f"({self.executions_per_sec:.0f}/s)"
        )
        if self.failed_attempts:
            text += (
                f" [{self.failed_attempts} failed attempts, "
                f"{self.retries} retries, {self.timeouts} timeouts, "
                f"{self.serial_replays} serial replays]"
            )
        if self.cache_hits or self.cache_misses:
            text += (
                f" [chunk cache: {self.cache_hits} hits, "
                f"{self.cache_misses} misses]"
            )
        if self.journal_replayed_chunks or self.journal_corrupt_records:
            text += (
                f" [journal: {self.journal_replayed_chunks} replayed, "
                f"{self.journal_corrupt_records} corrupt]"
            )
        return text


class BatchLog:
    """Mutable accumulator the runners fill in as chunks resolve.

    Folded into an immutable :class:`RunStats` by
    ``BatchRunner._record`` — kept separate so the stats can be recorded
    in a ``finally`` even when a chunk ultimately raises.

    ``observer``, when set, is called with each :class:`ChunkStats` the
    moment it is appended — the hook the service venue uses to stream
    chunk-granularity partials to clients while the batch is still
    running.  Observer exceptions are swallowed: a slow or broken
    subscriber must never fail the batch.
    """

    def __init__(self, observer=None):
        self.observer = observer
        self.stopped_early = False
        self.chunks: List[ChunkStats] = []
        #: The batch's counters by export name: the runner's own
        #: bookkeeping, the deltas pool workers ship with their spans and,
        #: when the batch ends, the delta of the runner's own process.
        self.counts: Counter = Counter()

    def chunk(
        self,
        task_index: int,
        start: int,
        stop: int,
        attempts: int,
        outcome: str,
        backend: str,
        wall_clock_s: float,
        inst: Optional[dict] = None,
    ) -> None:
        """Record one resolved chunk.

        ``inst`` is the :func:`repro.metrics.delta` measured around the
        chunk (for pool chunks, the one its worker shipped back); it
        fills the chunk's phase seconds, cache state and engine.
        """
        inst = inst or {}
        record = self._build_chunk(
            task_index, start, stop, attempts, outcome, backend,
            wall_clock_s, inst,
        )
        self.chunks.append(record)
        if self.observer is not None:
            try:
                self.observer(record)
            except Exception:
                pass
        if outcome in _OUTCOME_COUNTERS:
            self.counts[_OUTCOME_COUNTERS[outcome]] += 1

    def _build_chunk(
        self,
        task_index: int,
        start: int,
        stop: int,
        attempts: int,
        outcome: str,
        backend: str,
        wall_clock_s: float,
        inst: dict,
    ) -> ChunkStats:
        cache_state = ""
        if inst.get("cache_hits"):
            cache_state = "hit"
        elif inst.get("cache_stores"):
            cache_state = "stored"
        if outcome == "journaled":
            engine = "journal"
        elif cache_state == "hit":
            engine = "cache"
        elif inst.get("vectorized_runs"):
            engine = "vectorized"
        else:
            engine = "reference"
        return ChunkStats(
            task_index,
            start,
            stop,
            attempts,
            outcome,
            backend,
            wall_clock_s,
            setup_s=inst.get("setup_s", 0.0),
            execute_s=inst.get("execute_s", 0.0),
            classify_s=inst.get("classify_s", 0.0),
            cache=cache_state,
            engine=engine,
        )


class MeasuredCounts(EventCounts):
    """Event counts plus the :class:`RunStats` of the batch that made them.

    ``run_batch`` returns this instead of monkey-patching a ``run_stats``
    attribute onto a plain :class:`EventCounts` (which merge/``+`` and
    pickling silently dropped).  The stats ride along as an explicit,
    declared attribute; merging still folds into plain ``EventCounts``
    partials, so ``run_stats`` deliberately does not survive ``merge``/``+``
    — it describes one finished batch, not a combination of them.
    """

    def __init__(self, counts: EventCounts, run_stats: Optional[RunStats]):
        super().__init__(
            counts=dict(counts.counts),
            corruption_counts=dict(counts.corruption_counts),
        )
        self.run_stats = run_stats

    def __eq__(self, other):
        # Equality is by event counts alone (symmetric with EventCounts);
        # two identical measurements with different wall clocks are equal.
        if isinstance(other, EventCounts):
            return (self.counts, self.corruption_counts) == (
                other.counts,
                other.corruption_counts,
            )
        return NotImplemented

    __hash__ = None
