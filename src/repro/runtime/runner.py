"""Batch runners: serial and process-pool Monte-Carlo execution.

The measurement layer hands a runner a list of tasks (see
``runtime.tasks``); the runner splits each task's run range into chunks,
executes the chunks, and folds the partials back in ascending chunk order.
Two interchangeable backends:

* :class:`SerialRunner` — the historical in-process loop; default, and
  always used for tiny batches where worker startup would dominate.
* :class:`ProcessPoolRunner` — fans all chunks of all tasks out over a
  ``concurrent.futures`` process pool (``fork`` start method: workers
  inherit the live task objects, so strategy factories built from closures
  need no pickling; submitted work items are just ``(task, start, stop)``
  index triples, and results come back as picklable partials).

Determinism contract: per-run randomness depends only on ``(seed, k)``
via ``Rng(seed).fork(f"run-{k}")`` inside the task, and partials are
merged in ascending chunk order, so both backends produce bit-identical
results for the same seed.

Failure semantics (see ``runtime.retry`` and docs/architecture.md): a
chunk attempt that raises, breaks its worker, or misses its deadline is
retried — in-pool with bounded backoff first, then on the final rung of
the degradation ladder via trusted in-process serial replay with fault
injection disabled — so a worker crash can delay a batch but never bias
or lose it.  Every chunk leaves a :class:`~repro.runtime.stats.ChunkStats`
record, and the batch-wide :class:`~repro.runtime.stats.RunStats` is
recorded in a ``finally`` so ``last_stats`` survives even a failing batch.

Backend selection: an explicit ``runner=`` argument wins; otherwise
``jobs`` (CLI ``--jobs`` / keyword) is consulted, falling back to the
``REPRO_JOBS`` knob (``runtime.config``), falling back to serial.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import CancelledError as FuturesCancelled
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Sequence

from .cache import (
    ChunkCache,
    instrumentation_delta,
    instrumentation_snapshot,
    resolve_cache,
)
from .config import knob, positive
from .early_stop import EarlyStopRule
from .journal import RunJournal, resolve_journal
from .retry import ChunkTimeout, FaultSpec, RetryPolicy, run_task_chunk
from .stats import BatchLog, RunStats
from .tasks import merge_partials, plan_chunks
from .vectorized import BackendError, kernel_for, resolve_backend

#: Batches smaller than this run serially even when a pool was requested.
SMALL_BATCH_THRESHOLD = 64

#: How many chunk deadlines a still-queued future may sit out before the
#: wait itself is treated as a timeout (guards against a pool whose every
#: worker is wedged on someone else's chunk).
_QUEUE_WAIT_DEADLINES = 20

#: Liveness backstop for pools run *without* a chunk deadline.  Executor
#: churn (one pool per batch) can very rarely starve a fresh pool: the
#: work-item handoff is lost inside the executor machinery, its workers
#: sit forever in ``call_queue.get()`` and ``future.result()`` would
#: block indefinitely.  If the awaited future has not even *started*
#: after this many seconds without any chunk resolving batch-wide, the
#: pool is declared wedged and respawned.  A chunk that is actually
#: running is never interrupted by this path.
_STARVATION_POLL_S = 15.0
_STARVATION_GRACE_S = 120.0


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    exposes one, else the machine's CPU count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit arg > ``REPRO_JOBS`` > 1.

    ``0`` (spelled ``auto`` too) means "use every CPU this process may
    run on" (:func:`usable_cpus`).
    """
    return knob("REPRO_JOBS", jobs, "jobs") or usable_cpus()


def resolve_chunk_size(chunk_size: Optional[int] = None) -> Optional[int]:
    """Validated chunk size; ``None`` means "derive from ``n_runs``" (see
    ``default_chunk_size``)."""
    return positive(chunk_size, "chunk_size")


def resolve_runner(
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    fault: Optional[FaultSpec] = None,
    cache: Optional[ChunkCache] = None,
    backend: Optional[str] = None,
    journal: Optional[RunJournal] = None,
) -> "BatchRunner":
    """Build the runner implied by ``jobs``/``REPRO_JOBS``: the process
    pool above one job, serial otherwise.

    ``retry``/``fault`` default to the ``REPRO_MAX_RETRIES`` /
    ``REPRO_FAULT_*`` knobs (as for any runner), ``cache``/``journal``
    to ``REPRO_CACHE_DIR`` / ``REPRO_JOURNAL_DIR``.  This is the one
    place the store directories are read from the environment: a runner
    built directly has exactly the stores it is given.
    """
    n = resolve_jobs(jobs)
    cache = cache if cache is not None else resolve_cache()
    journal = journal if journal is not None else resolve_journal()
    if n <= 1:
        return SerialRunner(
            chunk_size=chunk_size, retry=retry, fault=fault, cache=cache,
            backend=backend, journal=journal,
        )
    return ProcessPoolRunner(
        n, chunk_size=chunk_size, retry=retry, fault=fault, cache=cache,
        backend=backend, journal=journal,
    )


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class BatchRunner:
    """Common chunking/merging/retry/stats machinery for both backends."""

    backend = "abstract"

    def __init__(
        self,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault: Optional[FaultSpec] = None,
        cache: Optional[ChunkCache] = None,
        backend: Optional[str] = None,
        journal: Optional[RunJournal] = None,
    ):
        self.chunk_size = resolve_chunk_size(chunk_size)
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=knob("REPRO_MAX_RETRIES")
        )
        if fault is None:
            fault = FaultSpec(
                rate=knob("REPRO_FAULT_RATE"),
                kind=knob("REPRO_FAULT_KIND"),
                seed=knob("REPRO_FAULT_SEED"),
            )
        self.fault = fault if fault.active else None
        #: Persistent chunk-result cache, or ``None`` for no cache.
        self.cache = cache
        #: Crash-safe run ledger (see ``runtime.journal``), or ``None``:
        #: journaled spans are replayed, computed ones recorded.
        self.journal = journal
        #: Execution engine policy (``auto``/``reference``/``vectorized``)
        #: — distinct from the venue (``self.backend``): the venue says
        #: *where* chunks run, the execution backend says *what* computes
        #: them.  Explicit argument > ``auto``.
        self.exec_backend = resolve_backend(backend)
        self.last_stats: Optional[RunStats] = None
        #: Every batch's RunStats, oldest first (the CLI ``--stats`` dump).
        self.stats_history: List[RunStats] = []
        #: Optional callable invoked with each :class:`ChunkStats` as it
        #: resolves, mid-batch (see ``BatchLog.observer``).  The service
        #: venue sets this to stream chunk-granularity partials to
        #: clients; ``None`` (the default) costs nothing.
        self.chunk_observer = None

    def history_mark(self) -> int:
        """Bookmark the stats history before a multi-batch measurement."""
        return len(self.stats_history)

    def stats_since(self, mark: int) -> List[RunStats]:
        """Every batch recorded since :meth:`history_mark` returned
        ``mark`` — the verdict plumbing used by ``verify.checker`` to
        attribute chunk spans to the claim that spawned them."""
        return self.stats_history[mark:]

    def run(self, tasks: Sequence, early_stop: Optional[EarlyStopRule] = None) -> List:
        """Run every task to completion; return one merged value per task.

        Also records a batch-wide :class:`RunStats` in ``self.last_stats``
        (even when the batch ultimately raises).
        """
        raise NotImplementedError

    def run_one(self, task, early_stop: Optional[EarlyStopRule] = None):
        """Convenience wrapper for single-task batches."""
        return self.run([task], early_stop=early_stop)[0]

    def _plan(self, task) -> List[tuple]:
        # With no early stopping there is no reason to pay per-chunk
        # overhead in the serial backend, but the plan must stay a pure
        # function of (n_runs, chunk_size) so every backend checks a stop
        # rule at identical run indices and journal fingerprints replay
        # across venues.
        return plan_chunks(task.n_runs, self.chunk_size)

    def _record(self, n_tasks, requested, t0, stopped, log: BatchLog) -> None:
        engines = {
            c.engine
            for c in log.chunks
            if c.outcome != "cancelled" and c.engine not in ("cache", "journal")
        }
        if not log.vectorized_runs:
            execution_backend = "reference"
        elif engines == {"vectorized"}:
            execution_backend = "vectorized"
        else:
            execution_backend = "mixed"
        self.last_stats = RunStats(
            backend=self.backend,
            jobs=getattr(self, "jobs", 1),
            n_tasks=n_tasks,
            n_chunks=log.n_chunks,
            requested=requested,
            executions=log.executions,
            wall_clock_s=time.perf_counter() - t0,
            stopped_early=stopped,
            failed_attempts=log.failed_attempts,
            retries=log.retries,
            timeouts=log.timeouts,
            serial_replays=log.serial_replays,
            cancelled_chunks=log.cancelled,
            journal_replayed_chunks=log.journal_replayed,
            journal_appended_chunks=log.journal_appends,
            journal_corrupt_records=log.journal_corrupt,
            cache_corrupt_entries=log.cache_corrupt,
            cache_write_errors=log.cache_write_errors,
            setup_s=log.setup_s,
            execute_s=log.execute_s,
            classify_s=log.classify_s,
            memo_hits=log.memo_hits,
            memo_misses=log.memo_misses,
            cache_hits=log.cache_hits,
            cache_misses=log.cache_misses,
            cache_stores=log.cache_stores,
            execution_backend=execution_backend,
            vectorized_runs=log.vectorized_runs,
            chunks=tuple(log.chunks),
        )
        self.stats_history.append(self.last_stats)

    def _journal_fetch(self, task, start, stop, log: BatchLog):
        """Look one span up in the run ledger; count quarantined entries.

        Does *not* log a chunk record — the caller logs the span as
        ``"journaled"`` only when it actually consumes the partial, so
        spans dropped by early stopping or an interrupt are accounted
        identically whether or not a journal record existed for them.
        """
        if self.journal is None:
            return False, None
        corrupt = self.journal.corrupt
        hit, part = self.journal.fetch(task, start, stop)
        log.journal_corrupt += self.journal.corrupt - corrupt
        return hit, part

    def _journal_record(self, task, start, stop, part, log: BatchLog) -> None:
        """Durably store one computed span in the run ledger."""
        if self.journal is None:
            return
        if self.journal.record(task, start, stop, part):
            log.journal_appends += 1

    def _serial_chunk(self, task, ti, start, stop, log: BatchLog):
        """In-process chunk execution with the full retry ladder.

        Injected faults are retried up to ``max_retries`` times and then
        bypassed entirely on the trusted replay rung; a genuine task bug
        raises again there and propagates (after the stats are logged by
        the caller's ``finally``).
        """
        t0 = time.perf_counter()
        before = instrumentation_snapshot()
        policy = self.retry
        for attempt in range(policy.max_retries + 1):
            try:
                part = run_task_chunk(
                    task, ti, start, stop, attempt, self.fault,
                    in_worker=False, cache=self.cache,
                    backend=self.exec_backend,
                )
                outcome = "ok" if attempt == 0 else "retried"
                log.chunk(
                    ti, start, stop, attempt + 1, outcome, "serial",
                    time.perf_counter() - t0,
                    inst=instrumentation_delta(before),
                )
                return part
            except BackendError:
                # A forced-``vectorized`` task with no kernel is a
                # configuration error, not a transient failure: retrying
                # (or degrading to the reference replay rung) would
                # silently void the caller's backend assertion.
                raise
            except Exception:
                log.failed_attempts += 1
                if attempt < policy.max_retries:
                    log.retries += 1
                    time.sleep(policy.backoff_for(attempt + 1))
        # Retries exhausted: trusted replay, fault injection disabled
        # (and cache bypassed — the replay rung must recompute).
        part = task.run_chunk(start, stop)
        log.chunk(
            ti, start, stop, policy.max_retries + 2, "replayed", "serial",
            time.perf_counter() - t0,
            inst=instrumentation_delta(before),
        )
        return part


class SerialRunner(BatchRunner):
    """In-process execution; chunked only to honour early-stop cadence."""

    backend = "serial"
    jobs = 1

    def _spans_for(self, task, early_stop) -> List[tuple]:
        if (
            early_stop is None
            and self.cache is None
            and self.journal is None
            and self.chunk_size is None
        ):
            # Single sweep: identical result, no merge overhead.  (A
            # cache forces planned chunks so serial and pool batches
            # store/fetch identical chunk spans; a journal does too —
            # a rerun must find the exact spans an interrupted run
            # recorded, whichever venue wrote them; an explicit
            # chunk_size likewise, so the venues account interrupts over
            # the same span set.)
            return [(0, task.n_runs)]
        return self._plan(task)

    def run(self, tasks: Sequence, early_stop: Optional[EarlyStopRule] = None) -> List:
        tasks = list(tasks)
        t0 = time.perf_counter()
        log = BatchLog(observer=self.chunk_observer)
        values: List = []
        stopped_any = False
        interrupted: Optional[BaseException] = None
        requested = sum(t.n_runs for t in tasks)
        handled: set = set()
        try:
            for ti, task in enumerate(tasks):
                value = None
                stopped = False
                for start, stop in self._spans_for(task, early_stop):
                    if stopped:
                        # Mirror the pool venue: spans dropped by early
                        # stopping are accounted as cancelled.
                        log.chunk(ti, start, stop, 0, "cancelled", "serial", 0.0)
                        handled.add((ti, start, stop))
                        continue
                    hit, part = self._journal_fetch(task, start, stop, log)
                    if hit:
                        log.chunk(ti, start, stop, 0, "journaled", "serial", 0.0)
                    else:
                        part = self._serial_chunk(task, ti, start, stop, log)
                        self._journal_record(task, start, stop, part, log)
                    handled.add((ti, start, stop))
                    value = part if value is None else merge_partials(value, part)
                    if early_stop is not None and early_stop.should_stop(value):
                        stopped = stopped_any = True
                values.append(value)
        except KeyboardInterrupt as exc:
            interrupted = exc
            raise
        finally:
            if interrupted is not None:
                # Ctrl-C: account every planned-but-unprocessed span as
                # cancelled — the same accounting the pool venue gives
                # its outstanding futures — so partial RunStats never
                # overstate serial coverage.
                for ti, task in enumerate(tasks):
                    for start, stop in self._spans_for(task, early_stop):
                        if (ti, start, stop) not in handled:
                            log.chunk(
                                ti, start, stop, 0, "cancelled", "serial", 0.0
                            )
            self._record(len(tasks), requested, t0, stopped_any, log)
            if interrupted is not None:
                # The re-raised interrupt carries the partial accounting
                # of everything that did complete.
                interrupted.run_stats = self.last_stats
        return values


# -- process-pool worker side ------------------------------------------------
# Workers are forked, so they see the parent's task list through this
# module-level slot; submitted work items carry only index triples (plus
# the attempt number and fault spec, both picklable).

_WORKER_TASKS: Sequence = ()
_WORKER_CACHE: Optional[ChunkCache] = None
_WORKER_BACKEND: str = "auto"


def _worker_init(
    tasks: Sequence,
    cache: Optional[ChunkCache] = None,
    backend: str = "auto",
) -> None:
    global _WORKER_TASKS, _WORKER_CACHE, _WORKER_BACKEND
    _WORKER_TASKS = tasks
    _WORKER_CACHE = cache
    _WORKER_BACKEND = backend


def _worker_run_chunk(
    task_index: int,
    start: int,
    stop: int,
    attempt: int = 0,
    fault: Optional[FaultSpec] = None,
):
    """Worker-side chunk execution.

    Returns ``(partial, inst)`` — the instrumentation delta (phase
    seconds, memo/cache counter increments, vectorized-run counts)
    measured in *this* worker is shipped back with the result so the
    parent's batch totals aggregate across processes.
    """
    task = _WORKER_TASKS[task_index]
    before = instrumentation_snapshot()
    part = run_task_chunk(
        task, task_index, start, stop, attempt, fault,
        in_worker=True, cache=_WORKER_CACHE, backend=_WORKER_BACKEND,
    )
    return part, instrumentation_delta(before)


class ProcessPoolRunner(BatchRunner):
    """Chunked fan-out over a forked process pool.

    All chunks of all tasks are submitted together (a strategy sweep
    parallelises across strategies *and* within each strategy's run
    range).  Falls back to :class:`SerialRunner` when the batch is tiny,
    only one worker is available, or the platform cannot fork.

    Failure handling per chunk, in order: bounded in-pool retries with
    backoff (fresh future, incremented attempt number), then — on retry
    exhaustion, a broken pool, or a pool that refuses submissions —
    trusted in-process serial replay with fault injection disabled.  The
    replay is sound because ``run_chunk(start, stop)`` is a pure function
    of ``(task, seed, span)``.
    """

    backend = "process-pool"

    def __init__(
        self,
        jobs: int,
        chunk_size: Optional[int] = None,
        min_parallel_runs: int = SMALL_BATCH_THRESHOLD,
        retry: Optional[RetryPolicy] = None,
        fault: Optional[FaultSpec] = None,
        cache: Optional[ChunkCache] = None,
        backend: Optional[str] = None,
        journal: Optional[RunJournal] = None,
    ):
        super().__init__(
            chunk_size=chunk_size, retry=retry, fault=fault, cache=cache,
            backend=backend, journal=journal,
        )
        if jobs < 1:
            raise ValueError("ProcessPoolRunner needs at least one worker")
        self.jobs = jobs
        self.min_parallel_runs = min_parallel_runs

    def run(self, tasks: Sequence, early_stop: Optional[EarlyStopRule] = None) -> List:
        tasks = list(tasks)
        requested = sum(t.n_runs for t in tasks)
        if (
            self.jobs <= 1
            or requested < self.min_parallel_runs
            or not _fork_available()
        ):
            serial = SerialRunner(
                chunk_size=self.chunk_size, retry=self.retry,
                fault=self.fault, cache=self.cache,
                backend=self.exec_backend, journal=self.journal,
            )
            serial.chunk_observer = self.chunk_observer
            try:
                return serial.run(tasks, early_stop=early_stop)
            finally:
                if serial.last_stats is not None:
                    self.last_stats = serial.last_stats
                    self.stats_history.append(serial.last_stats)

        t0 = time.perf_counter()
        plans = [self._plan(task) for task in tasks]
        values: List = [None] * len(tasks)
        log = BatchLog(observer=self.chunk_observer)
        stopped_any = False
        interrupted: Optional[BaseException] = None
        self._pool_broken = False
        ctx = multiprocessing.get_context("fork")
        self._pool_args = dict(
            max_workers=self.jobs,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(tasks, self.cache, self.exec_backend),
        )
        pool = self._pool = ProcessPoolExecutor(**self._pool_args)
        self._retired_pools: List[ProcessPoolExecutor] = []
        self._last_progress = time.monotonic()
        submitted: List[List[tuple]] = []
        handled: set = set()
        try:
            # Journaled spans are resolved parent-side before anything is
            # submitted: a replayed span never occupies a pool slot, and
            # every remaining span enters the pool exactly as before.
            journaled: dict = {}
            if self.journal is not None:
                for ti, plan in enumerate(plans):
                    for start, stop in plan:
                        hit, part = self._journal_fetch(
                            tasks[ti], start, stop, log
                        )
                        if hit:
                            journaled[(ti, start, stop)] = part
            if self.exec_backend != "reference":
                # Resolve kernels before the first submit forks the
                # workers: each inherits the memo instead of re-running
                # the matchers (and their calibration runs) per batch.
                # A task the journal replays in full needs no kernel.
                for ti, plan in enumerate(plans):
                    if all((ti, *span) in journaled for span in plan):
                        continue
                    try:
                        kernel_for(tasks[ti])
                    except Exception:
                        pass  # the workers meet it again in the retry ladder
            futures = {
                (ti, start, stop): pool.submit(
                    _worker_run_chunk, ti, start, stop, 0, self.fault
                )
                for ti, plan in enumerate(plans)
                for start, stop in plan
                if (ti, start, stop) not in journaled
            }
            submitted = [
                [
                    (span, futures.get((ti, span[0], span[1])))
                    for span in plan
                ]
                for ti, plan in enumerate(plans)
            ]
            for ti, chunk_futures in enumerate(submitted):
                value = None
                stopped = False
                for (start, stop), future in chunk_futures:
                    if stopped:
                        if future is not None:
                            future.cancel()
                        log.chunk(ti, start, stop, 0, "cancelled", "pool", 0.0)
                        handled.add((ti, start, stop))
                        continue
                    if future is None:
                        # Replayed from the ledger; logged at consumption
                        # time so early-stop/interrupt accounting matches
                        # the serial venue span for span.
                        part = journaled[(ti, start, stop)]
                        log.chunk(ti, start, stop, 0, "journaled", "pool", 0.0)
                    else:
                        part = self._chunk_result(
                            tasks[ti], ti, start, stop, future, log
                        )
                        self._journal_record(tasks[ti], start, stop, part, log)
                    handled.add((ti, start, stop))
                    value = part if value is None else merge_partials(value, part)
                    if early_stop is not None and early_stop.should_stop(value):
                        stopped = stopped_any = True
                values[ti] = value
        except KeyboardInterrupt as exc:
            # Ctrl-C: fall through to the finally, which cancels every
            # outstanding future and shuts the pool down (no leaked
            # workers), then re-raise with the partial RunStats attached.
            interrupted = exc
            raise
        finally:
            # Satellite of the retry tentpole: a failing chunk must not
            # orphan sibling futures or leave last_stats unset.
            for ti, chunk_futures in enumerate(submitted):
                for (start, stop), future in chunk_futures:
                    if future is not None:
                        future.cancel()
                    if (
                        interrupted is not None
                        and (ti, start, stop) not in handled
                    ):
                        # Outstanding work the interrupt dropped on the
                        # floor — account for it so the partial stats are
                        # honest about missing coverage.
                        log.chunk(
                            ti, start, stop, 0, "cancelled", "pool", 0.0
                        )
            # Shut down the live pool and every executor retired by a
            # wedged-chunk respawn.
            for retired in (*self._retired_pools, self._pool):
                self._dispose_pool(retired)
            self._record(len(tasks), requested, t0, stopped_any, log)
            if interrupted is not None:
                interrupted.run_stats = self.last_stats
        return values

    # -- per-chunk recovery --------------------------------------------------

    def _chunk_result(self, task, ti, start, stop, future, log: BatchLog):
        """Resolve one chunk through the degradation ladder."""
        policy = self.retry
        t0 = time.perf_counter()
        attempt = 0
        while True:
            try:
                part, inst = self._await(future)
                self._last_progress = time.monotonic()
                log.chunk(
                    ti, start, stop, attempt + 1,
                    "ok" if attempt == 0 else "retried", "pool",
                    time.perf_counter() - t0,
                    inst=inst,
                )
                return part
            except BackendError:
                # Propagate backend assertions (see _serial_chunk).
                raise
            except ChunkTimeout as exc:
                log.failed_attempts += 1
                log.timeouts += 1
                if getattr(exc, "wedged", False):
                    # The chunk is *running* past its deadline, and
                    # cancel() cannot free a running future: without
                    # intervention the slot stays occupied and the
                    # retry queues behind the very chunk it replaces.
                    # Retire the executor and respawn a fresh one.
                    self._respawn_pool()
            except FuturesCancelled:
                # A sibling future cancelled by a pool respawn (it is a
                # BaseException since 3.8, so the clause below does not
                # see it): an ordinary failed attempt.
                log.failed_attempts += 1
            except BrokenProcessPool:
                log.failed_attempts += 1
                self._pool_broken = True
            except Exception:
                log.failed_attempts += 1
            attempt += 1
            if self._pool_broken or attempt > policy.max_retries:
                break
            log.retries += 1
            time.sleep(policy.backoff_for(attempt))
            try:
                future = self._pool.submit(
                    _worker_run_chunk, ti, start, stop, attempt, self.fault
                )
            except RuntimeError:  # pool broken or already shutting down
                self._pool_broken = True
                break
        # Final rung: trusted in-process replay, fault injection disabled
        # and the chunk cache bypassed.  A genuine task bug raises here
        # and propagates (stats are still recorded by run()'s finally).
        before = instrumentation_snapshot()
        part = task.run_chunk(start, stop)
        log.chunk(
            ti, start, stop, attempt + 1, "replayed", "serial",
            time.perf_counter() - t0,
            inst=instrumentation_delta(before),
        )
        return part

    @staticmethod
    def _dispose_pool(pool) -> None:
        """Discard an executor whose results are no longer wanted.

        ``shutdown(wait=False)`` alone is not enough for a pool that
        still has a *running* chunk (a wedged straggler in a retired
        executor, or abandoned work after an early stop/interrupt): the
        executor's manager thread keeps waiting for that result, and at
        interpreter exit ``concurrent.futures``' atexit hook joins the
        manager thread — deadlocking shutdown.

        Disposal is therefore two-phase.  First a short graceful
        window: an idle pool's manager exits in milliseconds, and even
        a stuck one processes the shutdown flag — dropping cancelled
        work items, so the forced path below cannot race it into
        ``set_exception`` on an already-cancelled future.  If the
        manager is still alive after the grace period, the worker
        processes are killed — a wakeup the manager thread is
        guaranteed to see (it waits on the process sentinels and joins
        workers on exit) — and the manager reaped with a bounded join.
        Results were already consumed or abandoned by the caller, and
        chunk-cache writes are atomic (write-to-temp + rename), so the
        kill cannot lose or corrupt state.
        """
        # Snapshot the worker list *before* shutdown: the manager thread
        # may clear its process table while tearing down, and a worker
        # that never receives its shutdown sentinel must still be killed.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        if manager is not None:
            manager.join(timeout=0.25)
            if not manager.is_alive():
                return
        for proc in processes:
            try:
                proc.kill()
            except Exception:
                pass
        if manager is not None:
            manager.join(timeout=5.0)

    def _respawn_pool(self) -> None:
        """Replace the executor after a running chunk wedged its slot.

        ``Future.cancel()`` is a no-op once a worker has started the
        chunk, so a wedged (e.g. sleep-faulted) execution permanently
        occupies a slot in the old pool.  A fresh executor restores full
        capacity immediately; the old one is retired without waiting —
        its queued futures are cancelled (surfacing as
        ``CancelledError`` failed attempts that resubmit here), its
        running ones finish in orphaned processes and are consumed
        normally.
        """
        retired = self._pool
        self._retired_pools.append(retired)
        self._pool = ProcessPoolExecutor(**self._pool_args)
        retired.shutdown(wait=False, cancel_futures=True)

    def _await(self, future):
        """``future.result()`` under the policy's per-chunk deadline.

        The deadline clock only runs against a chunk that has actually
        started: a future still sitting in the queue gets its wait
        extended (the pool is busy, not hung) — but only for a bounded
        number of deadlines, so a pool whose every worker is wedged still
        degrades instead of blocking forever.

        A timeout on a *running* future marks the raised
        :class:`ChunkTimeout` as ``wedged``: cancellation cannot reclaim
        that slot, so the caller respawns the executor.
        """
        timeout = self.retry.chunk_timeout_s
        if timeout is None:
            # No per-chunk deadline — but never trust a *pending* future
            # unconditionally: a starved pool (see _STARVATION_GRACE_S)
            # would block this wait forever.  A future that is running is
            # waited on indefinitely, exactly as before; a future that
            # has not started while the whole batch made no progress for
            # the grace period marks the pool wedged so the caller
            # respawns it.
            while True:
                try:
                    return future.result(timeout=_STARVATION_POLL_S)
                except FuturesTimeout:
                    if future.running():
                        continue
                    stalled = time.monotonic() - self._last_progress
                    if stalled <= _STARVATION_GRACE_S:
                        continue
                    future.cancel()
                    exc = ChunkTimeout(
                        f"pool made no progress for {stalled:.0f}s with "
                        "this chunk still queued — executor starved"
                    )
                    exc.wedged = True
                    raise exc from None
                except BaseException:
                    # A delivered failure is still delivery: the pool is
                    # feeding results, so reset the starvation clock.
                    self._last_progress = time.monotonic()
                    raise
        deadlines_waited = 0
        while True:
            try:
                return future.result(timeout=timeout)
            except FuturesTimeout:
                deadlines_waited += 1
                if future.running() or deadlines_waited >= _QUEUE_WAIT_DEADLINES:
                    wedged = future.running()
                    future.cancel()
                    exc = ChunkTimeout(
                        f"chunk missed its {timeout:.3f}s deadline"
                    )
                    exc.wedged = wedged
                    raise exc from None
