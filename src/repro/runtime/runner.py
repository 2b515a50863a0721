"""Batch runners: serial and process-pool Monte-Carlo execution.

The measurement layer hands a runner a list of tasks (see
``runtime.tasks``); the runner splits each task's run range into chunks,
executes the chunks, and folds the partials back in ascending chunk order.
Two interchangeable backends:

* :class:`SerialRunner` — the historical in-process loop; default, and
  always used for tiny batches where worker startup would dominate.
* :class:`ProcessPoolRunner` — fans all chunks of all tasks out over
  forked workers (``runtime.workers``), each holding at most two spans
  in its own pipe.  Workers inherit the live task objects at fork, so
  strategy factories built from closures need no pickling: a request is
  ``(task index, start, stop, attempt, fault)``, and the reply a
  picklable partial plus the worker's metrics delta.

Determinism contract: per-run randomness depends only on ``(seed, k)``
via ``Rng(seed).fork(f"run-{k}")`` inside the task, and partials are
merged in ascending chunk order, so both backends produce bit-identical
results for the same seed.

Failure semantics (see ``runtime.retry`` and docs/architecture.md): a
chunk attempt that raises, kills its worker, or misses its deadline is
one failed attempt of that chunk alone — a dead or late worker is killed
and replaced — and is retried on a worker with bounded backoff first,
then on the final rung of the degradation ladder via trusted in-process
serial replay with fault injection disabled, so a worker crash can delay
a batch but never bias or lose it.  Every chunk leaves a
:class:`~repro.runtime.stats.ChunkStats` record, and the batch-wide
:class:`~repro.runtime.stats.RunStats` is recorded in a ``finally`` so
``last_stats`` survives even a failing batch.

Backend selection: an explicit ``runner=`` argument wins; otherwise
``jobs`` (CLI ``--jobs`` / keyword) is consulted, falling back to the
``REPRO_JOBS`` knob (``runtime.config``), falling back to serial.
"""

from __future__ import annotations

import collections
import contextlib
import heapq
import multiprocessing
import os
import time
from multiprocessing.connection import wait
from typing import List, Optional, Sequence

from .. import metrics
from .cache import ChunkCache, resolve_cache
from .config import knob, positive
from .early_stop import EarlyStopRule
from .journal import RunJournal, resolve_journal
from .retry import FaultSpec, RetryPolicy, run_task_chunk
from .stats import BatchLog, RunStats
from .tasks import merge_partials, plan_chunks
from .kernels import BackendError, kernel_for, resolve_backend
from .workers import LIVENESS_POLL_S, Worker

#: Batches smaller than this run serially even when a pool was requested.
SMALL_BATCH_THRESHOLD = 64

#: Spans a pool worker holds at once.  The second waits in its pipe, so
#: the worker goes on computing while the parent creates a journal
#: entry's file and merges (store-replay ``wall_s`` 0.689 s against
#: 0.723 s at depth 1, medians of 8 pairs on a 2-vCPU host).
PIPELINE_DEPTH = 2


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

    @contextlib.contextmanager
    def _batch(self, tasks):
        """A fresh :class:`BatchLog` for one batch.  The batch's
        :class:`RunStats` is recorded on the way out even when the batch
        raises, and a re-raised Ctrl-C carries it as ``run_stats``.
        Everything this process counted in :mod:`repro.metrics` meanwhile
        is the batch's: its chunks, replays and store traffic."""
        t0 = time.perf_counter()
        before = metrics.snapshot()
        log = BatchLog(observer=self.chunk_observer)
        interrupt = None
        try:
            yield log
        except KeyboardInterrupt as exc:
            interrupt = exc
            raise
        finally:
            log.counts.update(metrics.delta(before))
            self._record(tasks, t0, log)
            if interrupt is not None:
                interrupt.run_stats = self.last_stats

    def _fold(self, tasks, plans, log, early_stop, venue, lookup, compute,
              drop=None) -> List:
        """Fold each task's planned spans, in plan order, into one value
        per task.

        ``lookup(ti, start, stop)`` is ``(hit, partial)`` from the run
        journal; a miss is computed by ``compute(ti, start, stop)`` and
        journaled.  Once ``early_stop`` fires, the task's remaining spans
        are logged as cancelled (and handed to ``drop``), at the same run
        index on every venue.  On Ctrl-C every span not yet handled is
        logged as cancelled too, so partial stats never overstate
        coverage.
        """
        values: List = []
        handled: set = set()
        try:
            for ti, plan in enumerate(plans):
                value = None
                stopped = False
                for start, stop in plan:
                    if stopped:
                        if drop is not None:
                            drop((ti, start, stop))
                        log.chunk(ti, start, stop, 0, "cancelled", venue, 0.0)
                        handled.add((ti, start, stop))
                        continue
                    hit, part = lookup(ti, start, stop)
                    if hit:
                        log.chunk(ti, start, stop, 0, "journaled", venue, 0.0)
                    else:
                        part = compute(ti, start, stop)
                        if self.journal is not None:
                            self.journal.record(tasks[ti], start, stop, part)
                    handled.add((ti, start, stop))
                    value = part if value is None else merge_partials(value, part)
                    if early_stop is not None and early_stop.should_stop(value):
                        stopped = log.stopped_early = True
                values.append(value)
        except KeyboardInterrupt:
            for ti, plan in enumerate(plans):
                for start, stop in plan:
                    if (ti, start, stop) not in handled:
                        log.chunk(ti, start, stop, 0, "cancelled", venue, 0.0)
            raise
        return values

    def _record(self, tasks, t0, log: BatchLog) -> None:
        done = [c for c in log.chunks if c.outcome != "cancelled"]
        engines = {c.engine for c in done} - {"cache", "journal"}
        if not log.counts["vectorized_runs"]:
            execution_backend = "reference"
        elif engines == {"vectorized"}:
            execution_backend = "vectorized"
        else:
            execution_backend = "mixed"
        self.last_stats = RunStats(
            backend=self.backend,
            jobs=getattr(self, "jobs", 1),
            n_tasks=len(tasks),
            n_chunks=len(done),
            requested=sum(t.n_runs for t in tasks),
            executions=sum(c.n_runs for c in done),
            wall_clock_s=time.perf_counter() - t0,
            stopped_early=log.stopped_early,
            execution_backend=execution_backend,
            metrics=log.counts,
            chunks=tuple(log.chunks),
        )
        self.stats_history.append(self.last_stats)

    def _journal_fetch(self, task, start, stop):
        """Look one span up in the run ledger.

        Does *not* log a chunk record — the caller logs the span as
        ``"journaled"`` only when it actually consumes the partial, so
        spans dropped by early stopping or an interrupt are accounted
        identically whether or not a journal record existed for them.
        """
        if self.journal is None:
            return False, None
        return self.journal.fetch(task, start, stop)

    def _serial_chunk(self, task, ti, start, stop, log: BatchLog):
        """In-process chunk execution with the full retry ladder.

        Injected faults are retried up to ``max_retries`` times and then
        bypassed entirely on the trusted replay rung; a genuine task bug
        raises again there and propagates (after the stats are logged by
        the caller's ``finally``).
        """
        t0 = time.perf_counter()
        before = metrics.snapshot()
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
                    inst=metrics.delta(before),
                )
                return part
            except BackendError:
                # A forced-``vectorized`` task with no kernel is a
                # configuration error, not a transient failure: retrying
                # (or degrading to the reference replay rung) would
                # silently void the caller's backend assertion.
                raise
            except Exception:
                log.counts["failed_attempts"] += 1
                if attempt < policy.max_retries:
                    log.counts["retries"] += 1
                    time.sleep(policy.backoff_for(attempt + 1))
        # Retries exhausted: trusted replay, fault injection disabled
        # (and cache bypassed — the replay rung must recompute).
        part = task.run_chunk(start, stop)
        log.chunk(
            ti, start, stop, policy.max_retries + 2, "replayed", "serial",
            time.perf_counter() - t0,
            inst=metrics.delta(before),
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
        plans = [self._spans_for(task, early_stop) for task in tasks]
        with self._batch(tasks) as log:
            return self._fold(
                tasks, plans, log, early_stop, "serial",
                lambda ti, *span: self._journal_fetch(tasks[ti], *span),
                lambda ti, *span: self._serial_chunk(tasks[ti], ti, *span, log),
            )


# -- process pool ------------------------------------------------------------


def _serve_chunks(conn, tasks, cache, backend) -> None:
    """A pool worker: answer ``(task_index, start, stop, attempt, fault)``
    requests with ``(partial, error, inst)`` until end-of-file.

    ``tasks`` are the batch's live task objects, inherited at fork.  Any
    exception the attempt raises is shipped back for the parent to judge,
    and every reply carries the :func:`repro.metrics.delta` of the
    attempt, so the parent's batch totals aggregate across processes.
    """
    while True:
        try:
            ti, start, stop, attempt, fault = conn.recv()
        except EOFError:
            return
        before = metrics.snapshot()
        part = error = None
        try:
            part = run_task_chunk(
                tasks[ti], ti, start, stop, attempt, fault,
                in_worker=True, cache=cache, backend=backend,
            )
        except BaseException as exc:
            # Shipped whole: the parent re-raises an interrupt or an exit
            # where the span is consumed, and retries anything else.
            error = exc
        inst = metrics.delta(before)
        try:
            conn.send((part, error, inst))
        except OSError:  # the parent abandoned this worker
            return
        except Exception as exc:  # a partial or error that cannot pickle
            conn.send((None, RuntimeError(f"chunk reply: {exc!r}"), inst))


class ProcessPoolExecutor:
    """The forked workers of one pool batch and the spans they owe it.

    ``min(jobs, spans)`` workers are forked up front, none for a batch
    with nothing to compute.  Spans go out in plan order, a retry whose
    backoff has passed first, up to ``PIPELINE_DEPTH`` to a worker; each
    result waits in ``done`` until :meth:`result` consumes it in plan
    order.  A worker that dies or misses the deadline of the span it is
    running is killed alone and replaced: that span loses one attempt,
    and the span queued behind it goes back as it was.

    Not the standard library's executor: the name is the one the
    benchmark tracer (``perfbench/tracer.py``, ``runtime.pool_spawn``)
    counts, one instance per pool batch.
    """

    def __init__(self, runner: "ProcessPoolRunner", tasks, spans, log):
        self.runner = runner
        self.tasks = tasks
        self.log = log
        self.fresh = collections.deque(spans)
        self.retries: List[tuple] = []  # heap of (ready_at, span, attempt)
        self.sent: dict = {}  # span -> time of its first dispatch
        self.done: dict = {}  # span -> (status, value, attempts)
        self.dropped: set = set()  # spans early stopping cancelled
        #: span -> the summed metrics deltas of its attempts
        self.inst = collections.defaultdict(collections.Counter)
        #: worker -> its spans in flight as ``[span, attempt, deadline]``;
        #: only the first, the one it is running, has a deadline
        self.flights: dict = {}
        for _ in range(min(runner.jobs, len(spans))):
            self._spawn()

    def result(self, span):
        """``span``'s partial, after the rest of its retry ladder."""
        # Take the replies already waiting first: workers are refilled on
        # every consumption, not only when the parent has to wait.
        self._step(block=False)
        while span not in self.done:
            self._step()
        status, value, attempts = self.done.pop(span)
        if status == "raised":
            raise value
        ti, start, stop = span
        inst = self.inst.pop(span, collections.Counter())
        venue = "pool"
        if status == "replay":
            # Final rung: trusted in-process replay, fault injection
            # disabled and the chunk cache bypassed.  A genuine task bug
            # raises here and propagates (run()'s finally still records
            # the stats).
            before = metrics.snapshot()
            value = self.tasks[ti].run_chunk(start, stop)
            inst.update(metrics.delta(before))
            attempts, status, venue = attempts + 1, "replayed", "serial"
        elif attempts > 1:
            status = "retried"
        self.log.chunk(
            ti, start, stop, attempts, status, venue,
            time.perf_counter() - self.sent[span], inst=inst,
        )
        return value

    def close(self) -> None:
        """Stop every worker; one with spans in flight is killed, since
        nothing wants them any more."""
        for worker, flight in self.flights.items():
            (worker.kill if flight else worker.stop)()
        self.inst.clear()  # spans dropped after they replied

    def _step(self, block: bool = True) -> None:
        """Dispatch what is ready, then handle the replies, deaths and
        deadline misses of one wait (of zero seconds unless ``block``)."""
        self._fill()
        busy = [worker for worker, flight in self.flights.items() if flight]
        now = time.monotonic()
        timeout = LIVENESS_POLL_S if block else 0.0
        for worker in busy:
            deadline = self.flights[worker][0][2]
            if deadline is not None:
                timeout = min(timeout, deadline - now)
        if self.retries and self._room() is not None:
            timeout = min(timeout, self.retries[0][0] - now)
        timeout = max(timeout, 0.0)
        if not busy:
            time.sleep(timeout)  # every open span waits out a backoff
            return
        by_conn = {worker.conn: worker for worker in busy}
        ready = wait(list(by_conn), timeout)
        for conn in ready:
            # A send in an earlier reply's refill can have lost this worker.
            if by_conn[conn] in self.flights:
                self._reply(by_conn[conn])
        now = time.monotonic()
        for worker, flight in list(self.flights.items()):
            if flight and flight[0][2] is not None and now >= flight[0][2]:
                self.log.counts["timeouts"] += 1
                self._lost(worker)
            elif flight and not ready and not worker.process.is_alive():
                self._lost(worker)

    def _room(self) -> Optional[Worker]:
        """The worker for the next span: an idle one, else one with room
        in its pipe while enough spans remain to keep every worker busy."""
        worker = min(self.flights, key=lambda w: len(self.flights[w]))
        depth = len(self.flights[worker])
        if depth == 0 or (
            depth < PIPELINE_DEPTH and len(self.fresh) >= len(self.flights)
        ):
            return worker
        return None

    def _fill(self) -> None:
        """Hand ready spans to workers while one has room."""
        timeout = self.runner.retry.chunk_timeout_s
        while (worker := self._room()) is not None:
            now = time.monotonic()
            if self.retries and self.retries[0][0] <= now:
                _, span, attempt = heapq.heappop(self.retries)
            elif self.fresh:
                span, attempt = self.fresh.popleft(), 0
            else:
                return
            if span in self.dropped:
                continue
            flight = self.flights[worker]
            idle = timeout is None or flight
            flight.append([span, attempt, None if idle else now + timeout])
            self.sent.setdefault(span, time.perf_counter())
            try:
                worker.conn.send((*span, attempt, self.runner.fault))
            except OSError:  # it died
                self._lost(worker)

    def _spawn(self) -> None:
        worker = Worker(_serve_chunks, self.tasks, self.runner.cache,
                        self.runner.exec_backend, name="repro-pool-worker")
        self.flights[worker] = collections.deque()

    def _reply(self, worker: Worker) -> None:
        try:
            part, error, inst = worker.conn.recv()
        except (EOFError, OSError):
            self._lost(worker)
            return
        except Exception as exc:  # a reply that does not unpickle
            part, error, inst = None, exc, {}
        flight = self.flights[worker]
        span, attempt, _ = flight.popleft()
        timeout = self.runner.retry.chunk_timeout_s
        if flight and timeout is not None:
            flight[0][2] = time.monotonic() + timeout  # it starts now
        self._fill()  # the worker's next span goes out first
        # Every reply's counts, a dropped span's too; the batch takes this
        # process's at its end.
        self.log.counts.update(inst)
        if span in self.dropped:
            return
        self.inst[span].update(inst)
        if error is None:
            self.done[span] = ("ok", part, attempt + 1)
        elif isinstance(error, BackendError) or not isinstance(error, Exception):
            # A backend assertion (see _serial_chunk) or an interrupt:
            # raised where the span is consumed, never retried.
            self.done[span] = ("raised", error, attempt + 1)
        else:
            self.log.counts["failed_attempts"] += 1
            self._retry(span, attempt)

    def _lost(self, worker: Worker) -> None:
        """Kill a dead or late worker and fork its replacement: the span
        it was running loses one attempt, the one queued behind it goes
        back as it was."""
        flight = self.flights.pop(worker)
        worker.kill()
        self._spawn()
        span, attempt, _ = flight.popleft()
        self.log.counts["failed_attempts"] += 1
        if span not in self.dropped:
            self._retry(span, attempt)
        for span, attempt, _ in flight:
            heapq.heappush(self.retries, (time.monotonic(), span, attempt))

    def _retry(self, span, attempt: int) -> None:
        policy = self.runner.retry
        attempt += 1
        if attempt > policy.max_retries:
            self.done[span] = ("replay", None, attempt)
            return
        self.log.counts["retries"] += 1
        ready_at = time.monotonic() + policy.backoff_for(attempt)
        heapq.heappush(self.retries, (ready_at, span, attempt))


class ProcessPoolRunner(BatchRunner):
    """Chunked fan-out over forked worker processes.

    All chunks of all tasks share the batch's workers (a strategy sweep
    parallelises across strategies *and* within each strategy's run
    range).  Falls back to :class:`SerialRunner` when the batch is tiny,
    only one worker is available, or the platform cannot fork.

    Failure handling per chunk, in order: bounded retries on a worker
    with backoff (incremented attempt number), then trusted in-process
    serial replay with fault injection disabled.  A worker that dies or
    misses the chunk's deadline is replaced; the others keep working.
    The replay is sound because ``run_chunk(start, stop)`` is a pure
    function of ``(task, seed, span)``.
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

        plans = [self._plan(task) for task in tasks]
        pool: Optional[ProcessPoolExecutor] = None
        with self._batch(tasks) as log:
            try:
                # Journaled spans are resolved parent-side first: a
                # replayed span never reaches a worker.
                journaled: dict = {}
                if self.journal is not None:
                    for ti, plan in enumerate(plans):
                        for start, stop in plan:
                            hit, part = self._journal_fetch(
                                tasks[ti], start, stop
                            )
                            if hit:
                                journaled[(ti, start, stop)] = (True, part)
                todo = [
                    (ti, start, stop)
                    for ti, plan in enumerate(plans)
                    for start, stop in plan
                    if (ti, start, stop) not in journaled
                ]
                if todo and self.exec_backend != "reference":
                    # Resolve kernels before the workers fork: each
                    # inherits the memo instead of re-running the
                    # matchers (and their calibration runs, counted here)
                    # per batch.  A task the journal replays in full
                    # needs no kernel.
                    for ti in dict.fromkeys(span[0] for span in todo):
                        try:
                            kernel_for(tasks[ti])
                        except Exception:
                            pass  # the workers meet it again in the retry ladder
                pool = ProcessPoolExecutor(self, tasks, todo, log)
                return self._fold(
                    tasks, plans, log, early_stop, "pool",
                    lambda *span: journaled.get(span, (False, None)),
                    lambda *span: pool.result(span),
                    pool.dropped.add,
                )
            finally:
                if pool is not None:
                    pool.close()
