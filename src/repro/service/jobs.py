"""The pending-job pool: dedupe, execution, streaming, lifecycle.

One :class:`Job` per distinct content-addressed job key.  Submissions
are checked against the pool's job table *atomically* under one lock:
a key already pending, running, or completed attaches to the existing
job (a **dedup hit** — the second client gets the same job id and,
eventually, the byte-identical payload) instead of executing again.
Failed and cancelled jobs are evicted on resubmission so a transient
error is not cached forever.

Each worker thread owns one long-lived **job process**, forked with the
pool before any thread starts and linked to its thread by a pipe (a
``runtime.workers.Worker``, as the process pool's chunk workers are).
A built-in method (``canonical.METHOD_SCHEMAS``) crosses the pipe as
``(method, canon)``; the job process builds a fresh :class:`BatchRunner`
from the ``runner_factory`` it inherited, runs ``methods.run_method``,
sends each chunk record back the moment the chunk resolves — the
chunk-granularity stream ``job.stream`` serves — and finally the
artifact and the job's RunStats dicts.  So N service workers run N jobs
on N CPUs, and each job's counters are its own: the process-global
phase clocks and cache counters see one job at a time.  Only
in-process callables (``ServiceServer.register_method``, ``submit``
with a custom ``fn``) run on the worker thread itself: a closure cannot
cross a process boundary.

A job process ignores SIGINT (the server drains on Ctrl-C) and exits
when its pipe reaches EOF, i.e. when the pool closes or the server
dies.  Any exception in it, ``SystemExit`` included, fails that one
job; a job process that dies fails its job and is replaced.

On completion the job's last batch is stamped with the pool's
dedupe/rate-limit counters (``service_dedup_hits``/
``service_rate_limited``), so the service's admission-control
behaviour is visible in the same artefact stream as every other
runtime counter.
"""

from __future__ import annotations

import functools
import queue
import sys
import threading
from typing import Callable, Dict, List, Optional

from ..analysis.export import (
    chunk_stats_to_dict,
    deterministic_payload,
    run_stats_to_dict,
)
from ..runtime.config import knob
from ..runtime.workers import Worker
from .methods import run_method

#: Job lifecycle states, in order of appearance.
JOB_STATES = ("pending", "running", "done", "failed", "cancelled")

#: States from which a job will never produce a result.
DEAD_STATES = ("failed", "cancelled")

#: Received strings up to this length are interned (see ``_intern``).
INTERN_MAX_LEN = 64


class QueueFull(RuntimeError):
    """Pool at capacity; submission refused (JSON-RPC ``QUEUE_FULL``)."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"job pool at capacity ({limit})")


class PoolClosed(RuntimeError):
    """Pool shutting down; submission refused (``SHUTTING_DOWN``)."""


class JobFailed(RuntimeError):
    """A job process reported a failure or died; ``str`` is the error."""


class Job:
    """One deduplicated unit of work and its observable trail."""

    def __init__(self, key: str, method: str, canon: dict,
                 fn: Optional[Callable[[object, dict], dict]] = None):
        self.key = key
        self.method = method
        self.canon = canon
        #: ``None`` for a built-in method, which runs in a job process.
        self.fn = fn
        self.state = "pending"
        self.submissions = 1
        self.error: Optional[str] = None
        self.result: Optional[dict] = None
        self.cancel_requested = False
        self.done = threading.Event()
        self._lock = threading.Lock()
        self._events: List[dict] = []

    # -- streaming -----------------------------------------------------------

    def add_event(self, record: dict) -> None:
        """Append one resolved chunk's ``chunk_stats_to_dict`` record."""
        with self._lock:
            record["seq"] = len(self._events)
            self._events.append(record)

    def events_since(self, cursor: int):
        """Events ``cursor`` onward plus the next cursor (monotonic)."""
        with self._lock:
            return list(self._events[cursor:]), len(self._events)

    def progress(self) -> dict:
        with self._lock:
            events = list(self._events)
        executed = sum(
            e["stop"] - e["start"]
            for e in events
            if e["outcome"] != "cancelled"
        )
        return {"chunks": len(events), "executions": executed}

    def status(self) -> dict:
        body = {
            "job_id": self.key,
            "method": self.method,
            "state": self.state,
            "submissions": self.submissions,
            "progress": self.progress(),
        }
        if self.error is not None:
            body["error"] = self.error
        return body


def _execute(runner_factory, fn, canon: dict, on_event) -> tuple:
    """Run ``fn`` on a fresh runner; return ``(artifact, stats dicts)``.

    ``on_event`` receives each chunk's record as the chunk resolves.
    """
    if runner_factory is not None:
        runner = runner_factory()
    else:
        from ..runtime import resolve_runner

        runner = resolve_runner()
    runner.chunk_observer = lambda chunk: on_event(chunk_stats_to_dict(chunk))
    mark = runner.history_mark()
    artifact = fn(runner, canon)
    return artifact, [run_stats_to_dict(s) for s in runner.stats_since(mark)]


def _describe(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _serve_jobs(conn, runner_factory) -> None:
    """A job process: serve ``(method, canon)`` requests until EOF."""

    def send_event(record):
        conn.send(("chunk", record))

    while True:
        try:
            method, canon = conn.recv()
        except (EOFError, OSError):
            return
        fn = functools.partial(run_method, method)
        try:
            done = _execute(runner_factory, fn, canon, send_event)
            conn.send(("done",) + done)
        except (Exception, SystemExit) as exc:  # fail only this job
            try:
                conn.send(("failed", _describe(exc)))
            except OSError:
                return


def _intern(value):
    """``value`` with its dict keys and short strings interned.

    Every message arrives as fresh objects; without this each retained
    job result would hold its own copy of every key and every repeated
    short string (outcomes, engine and strategy names).
    """
    kind = type(value)
    if kind is str:
        return sys.intern(value) if len(value) <= INTERN_MAX_LEN else value
    if kind is dict:
        return {
            (sys.intern(k) if type(k) is str else k): _intern(v)
            for k, v in value.items()
        }
    if kind is list:
        return [_intern(v) for v in value]
    if kind is tuple:
        return tuple(_intern(v) for v in value)
    return value


class _JobProcess(Worker):
    """One worker thread's job process."""

    def __init__(self, runner_factory):
        super().__init__(_serve_jobs, runner_factory, name="repro-service-job")

    def run(self, job: Job) -> tuple:
        """Run a built-in job here; return ``(artifact, stats dicts)``.

        Raises :class:`JobFailed` with the job's error, or naming this
        process if it died.
        """
        try:
            self.conn.send((job.method, job.canon))
            while True:
                message = _intern(self.recv())
                if message[0] == "chunk":
                    job.add_event(message[1])
                elif message[0] == "done":
                    return message[1], message[2]
                else:
                    raise JobFailed(message[1])
        except (EOFError, OSError):
            pass
        self.stop()
        raise JobFailed(
            f"job process {self.process.pid} exited with code "
            f"{self.process.exitcode}"
        )


class JobPool:
    """Bounded worker pool keyed by content-addressed job ids."""

    def __init__(
        self,
        runner_factory: Optional[Callable[[], object]] = None,
        queue_limit: Optional[int] = None,
        workers: int = 2,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.queue_limit = knob(
            "REPRO_SERVICE_QUEUE", queue_limit, "queue_limit"
        )
        self.runner_factory = runner_factory
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "executed": 0,
            "dedup_hits": 0,
            "rate_limited": 0,
            "queue_rejections": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._closed = False
        # Forked before any pool thread exists.
        self._processes = [_JobProcess(runner_factory) for _ in range(workers)]
        self._threads = [
            threading.Thread(
                target=self._worker, args=(i,),
                name=f"repro-service-job-{i}", daemon=True,
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- admission -----------------------------------------------------------

    def submit(self, key: str, method: str, canon: dict,
               fn: Optional[Callable[[object, dict], dict]] = None):
        """Admit (or dedupe) one canonical request.

        ``fn=None`` runs the built-in ``method`` in a job process; a
        callable ``fn(runner, canon)`` runs on the worker thread.
        Returns ``(job, deduped)``.  The existence check and the
        insertion happen under one lock, so N concurrent identical
        submissions race to create exactly one job and the other N-1
        all count as dedup hits — the property the e2e suite pins.
        """
        with self._lock:
            if self._closed:
                raise PoolClosed("service is shutting down")
            job = self._jobs.get(key)
            if job is not None and job.state not in DEAD_STATES:
                job.submissions += 1
                self.counters["dedup_hits"] += 1
                return job, True
            active = sum(
                1 for j in self._jobs.values()
                if j.state in ("pending", "running")
            )
            if active >= self.queue_limit:
                self.counters["queue_rejections"] += 1
                raise QueueFull(self.queue_limit)
            job = Job(key, method, canon, fn)
            self._jobs[key] = job
            self.counters["submitted"] += 1
            self._queue.put(job)
            return job, False

    def note_rate_limited(self) -> None:
        with self._lock:
            self.counters["rate_limited"] += 1

    def get(self, key: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(key)

    def cancel(self, key: str):
        """Best-effort cancel: pending jobs die, running jobs finish.

        Returns ``(job, cancelled_now)`` — ``job`` is ``None`` for an
        unknown key.
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is None:
                return None, False
            if job.state != "pending":
                return job, False
            job.cancel_requested = True
            return job, True

    def stats(self) -> dict:
        with self._lock:
            counters = dict(self.counters)
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        counters["jobs_by_state"] = states
        counters["queue_limit"] = self.queue_limit
        return counters

    # -- execution -----------------------------------------------------------

    def _worker(self, index: int) -> None:
        try:
            while True:
                job = self._queue.get()
                if job is None:
                    return
                if job.cancel_requested:
                    self._finish(job, "cancelled")
                    continue
                self._run(job, index)
        finally:
            self._processes[index].stop()

    def _live_process(self, index: int) -> _JobProcess:
        """Worker ``index``'s job process, replaced first if it died."""
        proc = self._processes[index]
        if not proc.process.is_alive():
            proc.stop()
            proc = self._processes[index] = _JobProcess(self.runner_factory)
        return proc

    def _run(self, job: Job, index: int) -> None:
        job.state = "running"
        with self._lock:
            self.counters["executed"] += 1
        try:
            if job.fn is None:
                artifact, stats = self._live_process(index).run(job)
            else:
                artifact, stats = _execute(
                    self.runner_factory, job.fn, job.canon, job.add_event
                )
        except Exception as exc:  # the job fails; the pool survives
            failed = isinstance(exc, JobFailed)
            job.error = str(exc) if failed else _describe(exc)
            self._finish(job, "failed")
        else:
            job.result = {
                "job": {
                    "job_id": job.key,
                    "method": job.method,
                    "params": job.canon,
                },
                "artifact": artifact,
                "deterministic_payload": deterministic_payload(artifact),
                "run_stats": self._stamp(stats),
            }
            self._finish(job, "done")

    def _stamp(self, stats: List[dict]) -> List[dict]:
        """Stamp the job's final batch with the pool's service counters."""
        if stats:
            with self._lock:
                stats[-1]["service_dedup_hits"] = self.counters["dedup_hits"]
                stats[-1]["service_rate_limited"] = (
                    self.counters["rate_limited"]
                )
        return stats

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        with self._lock:
            key = {"done": "completed"}.get(state, state)
            self.counters[key] += 1
        job.done.set()

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain: bool = True, timeout: Optional[float] = None):
        """Stop the pool.

        ``drain=True`` lets queued jobs finish; ``drain=False`` cancels
        everything still pending.  Worker threads are joined either
        way, and each stops its job process on the way out, so a clean
        ``close`` leaks nothing (the e2e suite counts threads and child
        processes before and after).
        """
        with self._lock:
            self._closed = True
        if not drain:
            with self._lock:
                pending = [
                    j for j in self._jobs.values() if j.state == "pending"
                ]
            for job in pending:
                job.cancel_requested = True
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout)
