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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.utility import EventCounts

#: Valid ``ChunkStats.outcome`` values.
CHUNK_OUTCOMES = ("ok", "retried", "replayed", "cancelled", "journaled")


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

    Since the hot-path optimization layer, a batch also carries the
    summed per-phase times of its chunks (``setup_s``/``execute_s``/
    ``classify_s`` — worker processes ship their increments back inside
    chunk results, so pool batches aggregate correctly) and the cache
    traffic it generated: ``memo_*`` counts the process-local setup
    memos (validated primes, interned fields, Lagrange bases, compiled
    circuits), ``cache_*`` the persistent chunk-result cache.

    ``backend`` is the runner *venue* (``"serial"``/``"process-pool"``);
    ``execution_backend`` records which engine computed the events:
    ``"reference"``, ``"vectorized"``, or ``"mixed"`` when a batch split
    between them (e.g. some tasks had kernels and others fell back).
    ``vectorized_runs`` counts the executions handled by chunk kernels,
    ``calibration_runs`` the engine runs those kernels stepped while
    being built (see ``vectorized.kernels.calibrated``).
    """

    backend: str
    jobs: int
    n_tasks: int
    n_chunks: int
    requested: int
    executions: int
    wall_clock_s: float
    stopped_early: bool = False
    failed_attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    serial_replays: int = 0
    cancelled_chunks: int = 0
    #: Run-ledger traffic (see ``runtime.journal``): spans replayed,
    #: spans stored (a process crash loses none; a machine crash may cost
    #: recomputation, never a wrong answer) and entries quarantined as
    #: corrupt (torn, bad checksum, misfiled or undecodable).
    journal_replayed_chunks: int = 0
    journal_appended_chunks: int = 0
    journal_corrupt_records: int = 0
    #: Chunk-cache integrity: entries quarantined on checksum mismatch
    #: (each also counts as a miss) and store attempts that failed.
    cache_corrupt_entries: int = 0
    cache_write_errors: int = 0
    setup_s: float = 0.0
    execute_s: float = 0.0
    classify_s: float = 0.0
    memo_hits: int = 0
    memo_misses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    execution_backend: str = "reference"
    vectorized_runs: int = 0
    calibration_runs: int = 0
    #: Service venue only (``repro serve``): snapshots of the job pool's
    #: dedupe and rate-limit counters, stamped onto the batch by
    #: ``service.jobs.JobPool`` when the job completes.  Zero for every
    #: batch that did not run under the service.
    service_dedup_hits: int = 0
    service_rate_limited: int = 0
    chunks: Tuple[ChunkStats, ...] = ()

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
        self.n_chunks = 0
        self.executions = 0
        self.failed_attempts = 0
        self.retries = 0
        self.timeouts = 0
        self.serial_replays = 0
        self.cancelled = 0
        self.journal_replayed = 0
        self.journal_appends = 0
        self.journal_corrupt = 0
        self.cache_corrupt = 0
        self.cache_write_errors = 0
        self.setup_s = 0.0
        self.execute_s = 0.0
        self.classify_s = 0.0
        self.memo_hits = 0
        self.memo_misses = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stores = 0
        self.vectorized_runs = 0
        self.calibration_runs = 0
        self.stopped_early = False
        self.chunks: List[ChunkStats] = []

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

        ``inst`` is the instrumentation delta measured around the chunk
        (phase seconds plus memo/cache counter increments — see
        ``runtime.cache.instrumentation_delta``); for pool chunks it is
        the delta the worker shipped back with the partial.
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
        self.add(inst)
        if outcome == "cancelled":
            self.cancelled += 1
        else:
            self.n_chunks += 1
            self.executions += stop - start
            if outcome == "replayed":
                self.serial_replays += 1
            elif outcome == "journaled":
                self.journal_replayed += 1

    def add(self, inst: dict) -> None:
        """Fold an instrumentation delta into the batch totals."""
        self.setup_s += inst.get("setup_s", 0.0)
        self.execute_s += inst.get("execute_s", 0.0)
        self.classify_s += inst.get("classify_s", 0.0)
        self.memo_hits += inst.get("memo_hits", 0)
        self.memo_misses += inst.get("memo_misses", 0)
        self.cache_hits += inst.get("cache_hits", 0)
        self.cache_misses += inst.get("cache_misses", 0)
        self.cache_stores += inst.get("cache_stores", 0)
        self.cache_corrupt += inst.get("cache_corrupt", 0)
        self.cache_write_errors += inst.get("cache_write_errors", 0)
        self.vectorized_runs += inst.get("vectorized_runs", 0)
        self.calibration_runs += inst.get("calibration_runs", 0)

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
