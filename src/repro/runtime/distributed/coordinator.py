"""Distributed coordinator: the third runner venue.

:class:`DistributedRunner` fans a batch's chunks out over TCP workers
(see :mod:`.worker`) instead of forked processes.  The same determinism
contract as the serial and pool venues applies: every chunk is a pure
function of ``(task, seed, span)``, partials are folded in ascending
chunk order, and early stopping is evaluated at identical run indices —
so the three venues produce bit-identical results and the distributed
venue can always fall back to either of the others.

Scheduling is a work-stealing pull queue: workers announce ``ready`` and
the coordinator hands out the next outstanding span, so heterogeneous
hosts self-balance without any capacity declaration.  Tasks travel as
content-fingerprinted specs (:mod:`.codec`); a task with no spec (an
opaque closure, active engine faults) is executed coordinator-side
through the ordinary in-process retry ladder instead — shipping code is
never an option.

Failure handling feeds the existing
:class:`~repro.runtime.retry.RetryPolicy` degradation ladder:

* **failed attempt** (worker raised, injected fault, codec refusal) —
  requeued with an incremented attempt number, bounded by
  ``max_retries``, then resolved by trusted in-process replay.
* **wedged chunk** (deadline missed, worker still heartbeating) —
  requeued under a bumped *generation*; the stale result, should the
  worker eventually produce it, is recognised and discarded, and the
  worker keeps serving.
* **dead worker** (EOF, send failure, stale heartbeat) — its in-flight
  chunk is requeued as a failed attempt and its connection retired;
  ``RunStats.worker_deaths`` counts the casualties.
* **total worker loss** — every remaining span resolves through the
  in-process ladder, exactly like a pool whose every process broke.

Per-chunk attribution lands in ``ChunkStats.worker`` so a slow or flaky
host is visible in the exported stats.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..cache import instrumentation_delta, instrumentation_snapshot
from ..early_stop import EarlyStopRule
from ..retry import run_task_chunk
from ..runner import BatchRunner, SerialRunner
from ..stats import BatchLog
from ..tasks import merge_partials
from ..vectorized import BackendError
from .codec import encode_task
from .wire import (
    PROTOCOL_VERSION,
    WireError,
    decode_partial,
    recv_frame,
    send_frame,
)
from .worker import DEFAULT_HEARTBEAT_S, fault_spec_to_dict, resolve_heartbeat

#: Environment variable listing worker addresses (``host:port,host:port``).
ENV_WORKERS = "REPRO_WORKERS"

#: A worker whose last heartbeat is older than this many heartbeat
#: periods is declared dead.
_STALE_HEARTBEATS = 4.0

#: Default per-chunk deadline (seconds) when the retry policy sets none.
#: Distribution cannot wait forever: a silently wedged worker would
#: stall the batch, and unlike the pool venue there is no child process
#: to join on.
DEFAULT_CHUNK_DEADLINE_S = 60.0


def parse_workers(spec) -> List[Tuple[str, int]]:
    """``host:port,host:port`` (string or iterable) → address list.

    Explicit argument wins; ``None`` consults :data:`ENV_WORKERS`; an
    empty result means "no distribution".
    """
    if spec is None:
        spec = os.environ.get(ENV_WORKERS, "")
    addrs: List[Tuple[str, int]] = []
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",") if p.strip()]
    else:
        parts = []
        for item in spec:
            if isinstance(item, (tuple, list)) and len(item) == 2:
                addrs.append((str(item[0]), int(item[1])))
            elif str(item).strip():
                parts.append(str(item).strip())
    for part in parts:
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"worker address {part!r} is not host:port (set --workers "
                f"or {ENV_WORKERS} to a comma-separated list)"
            )
        try:
            port_num = int(port)
        except ValueError:
            raise ValueError(
                f"worker address {part!r} (from --workers or {ENV_WORKERS}) "
                "has a non-integer port"
            )
        if not 1 <= port_num <= 65535:
            raise ValueError(
                f"worker address {part!r} (from --workers or {ENV_WORKERS}) "
                "has an out-of-range port (need 1-65535)"
            )
        addrs.append((host, port_num))
    return addrs


class _Chunk:
    """One span's scheduling state (guarded by the batch lock).

    ``state`` walks ``queued → assigned → resolved`` on the happy path;
    failures send it back to ``queued`` (bounded by ``max_retries``) or
    forward to ``replay`` (in-process trusted replay pending); early
    stopping parks it at ``cancelled``.  ``gen`` increments on every
    reassignment so a stale result from a previous assignment can never
    be folded.
    """

    __slots__ = (
        "ti", "start", "stop", "gen", "attempt", "t0",
        "deadline", "state", "worker",
    )

    def __init__(self, ti: int, start: int, stop: int):
        self.ti = ti
        self.start = start
        self.stop = stop
        self.gen = 0
        self.attempt = 0
        self.t0: Optional[float] = None  # set at first assignment
        self.deadline: Optional[float] = None
        self.state = "queued"
        self.worker = ""


class _WorkerConn:
    """Coordinator-side view of one connected worker."""

    def __init__(self, addr: Tuple[str, int], conn: socket.socket,
                 worker_id: str, tasks_ok: Sequence[bool]):
        self.addr = addr
        self.conn = conn
        self.worker_id = worker_id
        self.tasks_ok = list(tasks_ok)
        self.last_seen = time.monotonic()
        self.wants_work = False
        self.assigned: Optional[_Chunk] = None
        self.dead = False
        self.thread: Optional[threading.Thread] = None

    def can_run(self, ti: int) -> bool:
        return ti < len(self.tasks_ok) and bool(self.tasks_ok[ti])


class DistributedRunner(BatchRunner):
    """Chunked fan-out over TCP workers (the third venue).

    ``workers`` is a list of ``(host, port)`` pairs or a
    ``host:port,host:port`` string (see :func:`parse_workers`).  Workers
    are dialled per batch; one that cannot be reached, dies mid-chunk,
    or refuses a task simply shrinks the fleet — the batch always
    completes, on the coordinator alone if necessary, with bit-identical
    results.
    """

    backend = "distributed"

    def __init__(
        self,
        workers,
        chunk_size: Optional[int] = None,
        retry=None,
        fault=None,
        cache=None,
        backend: Optional[str] = None,
        connect_timeout_s: float = 5.0,
        heartbeat_s: Optional[float] = None,
        journal=None,
    ):
        super().__init__(
            chunk_size=chunk_size, retry=retry, fault=fault, cache=cache,
            backend=backend, journal=journal,
        )
        self.worker_addrs = parse_workers(workers)
        if not self.worker_addrs:
            raise ValueError("DistributedRunner needs at least one worker address")
        self.connect_timeout_s = connect_timeout_s
        # Explicit argument > REPRO_HEARTBEAT_S > default; both paths
        # validate (non-numeric or non-positive values raise, naming the
        # knob) instead of failing deep in the death detector.
        self.heartbeat_s = resolve_heartbeat(heartbeat_s)
        self.jobs = len(self.worker_addrs)

    def chunk_deadline_s(self) -> float:
        if self.retry.chunk_timeout_s is not None:
            return self.retry.chunk_timeout_s
        return DEFAULT_CHUNK_DEADLINE_S

    # -- batch entry ---------------------------------------------------------

    def run(self, tasks: Sequence, early_stop: Optional[EarlyStopRule] = None) -> List:
        tasks = list(tasks)
        requested = sum(t.n_runs for t in tasks)
        specs = [encode_task(t) for t in tasks]
        fleet = self._connect(specs)
        if not fleet:
            # Nobody answered the phone: the batch still runs, in
            # process; the serial RunStats lands in this runner's
            # history so callers can see the degradation.
            serial = SerialRunner(
                chunk_size=self.chunk_size, retry=self.retry,
                fault=self.fault, cache=self.cache, backend=self.exec_backend,
                journal=self.journal,
            )
            serial.chunk_observer = self.chunk_observer
            try:
                return serial.run(tasks, early_stop=early_stop)
            finally:
                if serial.last_stats is not None:
                    self.last_stats = serial.last_stats
                    self.stats_history.append(serial.last_stats)

        t0 = time.perf_counter()
        log = BatchLog(observer=self.chunk_observer)
        state = _BatchState(self, tasks, specs, early_stop, log)
        interrupted: Optional[BaseException] = None
        for wc in fleet:
            wc.thread = threading.Thread(
                target=self._worker_loop, args=(wc, state), daemon=True
            )
            wc.thread.start()
        try:
            self._drive(state, fleet)
        except KeyboardInterrupt as exc:
            interrupted = exc
            raise
        finally:
            state.done.set()
            with state.lock:
                if interrupted is not None:
                    for chunk in state.chunks:
                        if chunk.state not in ("resolved", "cancelled"):
                            chunk.state = "cancelled"
                            log.chunk(
                                chunk.ti, chunk.start, chunk.stop, 0,
                                "cancelled", "distributed", 0.0,
                                worker=chunk.worker,
                            )
            for wc in fleet:
                if wc.thread is not None:
                    wc.thread.join(timeout=2.0)
                try:
                    wc.conn.close()
                except OSError:
                    pass
            log.worker_deaths = state.worker_deaths
            self._record(len(tasks), requested, t0, state.stopped_any, log)
            if interrupted is not None:
                interrupted.run_stats = self.last_stats
            elif state.error is not None:
                raise state.error
        return state.values()

    # -- fleet setup ---------------------------------------------------------

    def _connect(self, specs) -> List[_WorkerConn]:
        hello = {
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "backend": self.exec_backend,
            "fault": fault_spec_to_dict(self.fault),
            "heartbeat_s": self.heartbeat_s,
            "tasks": specs,
        }
        fleet: List[_WorkerConn] = []
        for addr in self.worker_addrs:
            try:
                conn = socket.create_connection(addr, timeout=self.connect_timeout_s)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                send_frame(conn, hello)
                conn.settimeout(self.connect_timeout_s)
                ack = recv_frame(conn)
                if (
                    ack.get("type") != "hello-ack"
                    or ack.get("version") != PROTOCOL_VERSION
                ):
                    conn.close()
                    continue
                fleet.append(
                    _WorkerConn(
                        addr, conn,
                        ack.get("worker_id", f"{addr[0]}:{addr[1]}"),
                        ack.get("tasks_ok", []),
                    )
                )
            except (OSError, WireError):
                continue
        return fleet

    # -- worker connection thread --------------------------------------------

    def _worker_loop(self, wc: _WorkerConn, state: "_BatchState") -> None:
        conn = wc.conn
        try:
            while not state.done.is_set():
                if wc.wants_work:
                    chunk = state.next_remote_chunk(wc)
                    if chunk is not None:
                        send_frame(
                            conn,
                            {
                                "type": "chunk",
                                "task": chunk.ti,
                                "start": chunk.start,
                                "stop": chunk.stop,
                                "attempt": chunk.attempt,
                                "gen": chunk.gen,
                            },
                        )
                        wc.wants_work = False
                        continue
                # Poll fast while a ready is outstanding (a requeue can
                # arrive any moment); otherwise just drain heartbeats.
                conn.settimeout(0.05 if wc.wants_work else 0.25)
                try:
                    msg = recv_frame(conn)
                except socket.timeout:
                    continue
                wc.last_seen = time.monotonic()
                kind = msg.get("type")
                if kind == "heartbeat":
                    continue
                if kind == "ready":
                    wc.wants_work = True
                elif kind == "result":
                    state.on_result(wc, msg)
                elif kind == "error":
                    break
            # Batch over: a worker blocked in its pull loop is released.
            try:
                conn.settimeout(0.5)
                send_frame(conn, {"type": "shutdown"})
            except (OSError, WireError):
                pass
        except (WireError, OSError):
            state.on_worker_death(wc)
        except Exception as exc:  # defensive: never strand the batch
            state.on_worker_death(wc)
            state.record_error(exc)

    # -- main drive loop -----------------------------------------------------

    def _drive(self, state: "_BatchState", fleet: List[_WorkerConn]) -> None:
        stale_after = self.heartbeat_s * _STALE_HEARTBEATS
        while True:
            with state.lock:
                if state.finished():
                    return
                if state.error is not None:
                    return
            now = time.monotonic()
            for wc in fleet:
                if not wc.dead and now - wc.last_seen > stale_after:
                    state.on_worker_death(wc)
            state.check_deadlines()
            if all(wc.dead for wc in fleet):
                # Total worker loss: the final rung of the ladder.
                state.drain_locally()
                return
            # Exhausted chunks (trusted replay due) and chunks no
            # connected worker can decode run right here, interleaved
            # with the remote traffic.
            chunk, replay = state.next_local_chunk(fleet)
            if chunk is not None:
                state.run_local(chunk, replay)
                continue
            time.sleep(0.01)


class _BatchState:
    """All mutable per-batch state, shared by the drive and worker threads.

    Everything below is guarded by ``self.lock`` except ``done`` (an
    Event) and the chunk *executions* themselves, which run unlocked —
    only their bookkeeping takes the lock.
    """

    def __init__(self, runner: DistributedRunner, tasks, specs, early_stop, log):
        self.runner = runner
        self.tasks = tasks
        self.specs = specs
        self.early_stop = early_stop
        self.log = log
        self.lock = threading.RLock()
        self.done = threading.Event()
        self.worker_deaths = 0
        self.stopped_any = False
        self.error: Optional[BaseException] = None
        self.chunks: List[_Chunk] = []
        self.per_task: List[List[_Chunk]] = []
        self.pending: Deque[_Chunk] = deque()
        self._folded: List[object] = [None] * len(tasks)
        self._next_span: List[int] = [0] * len(tasks)
        self._parts: List[Dict[int, object]] = [dict() for _ in tasks]
        self._task_stopped: List[bool] = [False] * len(tasks)
        for ti, task in enumerate(tasks):
            records = []
            for start, stop in runner._plan(task):
                chunk = _Chunk(ti, start, stop)
                records.append(chunk)
                self.chunks.append(chunk)
                self.pending.append(chunk)
            self.per_task.append(records)
        # Resume: resolve journaled spans before any scheduling, folding
        # them in ascending span order so early stopping fires at the
        # same run indices as an uninterrupted serial batch.  Resolved
        # chunks left in the pending deque are dropped as ghosts by the
        # schedulers.
        if runner.journal is not None:
            for ti, task in enumerate(tasks):
                for chunk in self.per_task[ti]:
                    if self._task_stopped[ti]:
                        break
                    hit, part = runner._journal_fetch(
                        task, ti, chunk.start, chunk.stop, log
                    )
                    if not hit:
                        continue
                    chunk.state = "resolved"
                    log.chunk(
                        ti, chunk.start, chunk.stop, 0, "journaled",
                        "distributed", 0.0,
                    )
                    self._fold(ti, chunk, part)

    # -- scheduling ----------------------------------------------------------

    def _mark_assigned(self, chunk: _Chunk, worker_id: str) -> None:
        now = time.monotonic()
        chunk.state = "assigned"
        chunk.worker = worker_id
        if chunk.t0 is None:
            chunk.t0 = now
        chunk.deadline = (
            now + self.runner.chunk_deadline_s() if worker_id else None
        )

    def next_remote_chunk(self, wc: _WorkerConn) -> Optional[_Chunk]:
        """Next queued chunk this worker can decode (work stealing: the
        first asker wins it)."""
        with self.lock:
            for _ in range(len(self.pending)):
                chunk = self.pending.popleft()
                if chunk.state == "queued" and (
                    self.specs[chunk.ti] is not None
                    and wc.can_run(chunk.ti)
                ):
                    self._mark_assigned(chunk, wc.worker_id)
                    wc.assigned = chunk
                    return chunk
                if chunk.state in ("queued", "replay"):
                    # Not for this worker (or coordinator-only): keep it.
                    self.pending.append(chunk)
                # cancelled/resolved ghosts are simply dropped.
            return None

    def next_local_chunk(self, fleet) -> Tuple[Optional[_Chunk], bool]:
        """A chunk the coordinator itself should run: retry-exhausted
        (``replay`` state) first, then any span no live worker can
        execute.  Returns ``(chunk, is_trusted_replay)``."""
        with self.lock:
            live = [wc for wc in fleet if not wc.dead]
            for _ in range(len(self.pending)):
                chunk = self.pending.popleft()
                if chunk.state == "replay":
                    self._mark_assigned(chunk, "")
                    return chunk, True
                if chunk.state != "queued":
                    continue
                remotely_runnable = self.specs[chunk.ti] is not None and any(
                    wc.can_run(chunk.ti) for wc in live
                )
                if not remotely_runnable:
                    self._mark_assigned(chunk, "")
                    return chunk, False
                self.pending.append(chunk)
            return None, False

    # -- failure paths -------------------------------------------------------

    def on_worker_death(self, wc: _WorkerConn) -> None:
        with self.lock:
            if wc.dead:
                return
            wc.dead = True
            self.worker_deaths += 1
            try:
                wc.conn.close()
            except OSError:
                pass
            chunk = wc.assigned
            wc.assigned = None
            if chunk is not None and chunk.state == "assigned":
                self._failed_attempt(chunk)

    def check_deadlines(self) -> None:
        now = time.monotonic()
        with self.lock:
            for chunk in self.chunks:
                if (
                    chunk.state == "assigned"
                    and chunk.deadline is not None
                    and now > chunk.deadline
                ):
                    # Wedged, not dead: the worker may still be alive, so
                    # bump the generation — a late (stale) result is then
                    # recognised and dropped, and the worker keeps its
                    # connection.
                    self.log.timeouts += 1
                    self._failed_attempt(chunk)

    def _failed_attempt(self, chunk: _Chunk) -> None:
        """Requeue (bounded) or mark for trusted replay; lock held."""
        self.log.failed_attempts += 1
        chunk.gen += 1
        chunk.attempt += 1
        chunk.worker = ""
        chunk.deadline = None
        if chunk.attempt > self.runner.retry.max_retries:
            chunk.state = "replay"
        else:
            self.log.retries += 1
            chunk.state = "queued"
        self.pending.append(chunk)

    def record_error(self, exc: BaseException) -> None:
        with self.lock:
            if self.error is None:
                self.error = exc

    # -- results -------------------------------------------------------------

    def on_result(self, wc: _WorkerConn, msg: dict) -> None:
        with self.lock:
            ti = int(msg["task"])
            start, stop = int(msg["start"]), int(msg["stop"])
            chunk = self._find(ti, start, stop)
            if wc.assigned is chunk:
                wc.assigned = None
            if (
                chunk is None
                or chunk.state != "assigned"
                or msg.get("gen", 0) != chunk.gen
                or chunk.worker != wc.worker_id
            ):
                return  # stale generation (chunk was reassigned) — drop.
            if msg.get("ok"):
                try:
                    part = decode_partial(msg["partial"])
                except WireError:
                    self._failed_attempt(chunk)
                    return
                chunk.state = "resolved"
                self.log.chunk(
                    ti, start, stop, chunk.attempt + 1,
                    "ok" if chunk.attempt == 0 else "retried",
                    "distributed",
                    time.monotonic() - (chunk.t0 or time.monotonic()),
                    inst=msg.get("inst"),
                    worker=wc.worker_id,
                )
                self.runner._journal_record(
                    self.tasks[ti], ti, start, stop, part, self.log
                )
                self._fold(ti, chunk, part)
            elif msg.get("error_kind") == "BackendError":
                # A forced-backend assertion is a configuration error,
                # not a transient (see BatchRunner._serial_chunk):
                # propagate instead of degrading.
                chunk.state = "resolved"
                self.record_error(BackendError(msg.get("error", "")))
            else:
                self._failed_attempt(chunk)

    def _find(self, ti: int, start: int, stop: int) -> Optional[_Chunk]:
        if not 0 <= ti < len(self.per_task):
            return None
        for chunk in self.per_task[ti]:
            if chunk.start == start and chunk.stop == stop:
                return chunk
        return None

    # -- local execution (drive thread; lock NOT held during compute) --------

    def run_local(self, chunk: _Chunk, replay: bool) -> None:
        """Resolve one chunk in-process.

        ``replay=False`` walks the same bounded retry ladder as
        ``BatchRunner._serial_chunk`` (this is how spec-less tasks run);
        ``replay=True`` jumps straight to the trusted rung: no fault
        injection, cache bypassed.  Log/fold bookkeeping is done under
        the lock; the execution itself is not, so worker results keep
        flowing while the coordinator computes.
        """
        runner = self.runner
        task = self.tasks[chunk.ti]
        policy = runner.retry
        t0 = chunk.t0 or time.monotonic()
        before = instrumentation_snapshot()
        part = None
        outcome = None
        attempt = chunk.attempt
        try:
            if not replay:
                first_attempt = attempt
                while attempt <= policy.max_retries:
                    try:
                        part = run_task_chunk(
                            task, chunk.ti, chunk.start, chunk.stop, attempt,
                            runner.fault, in_worker=False, cache=runner.cache,
                            backend=runner.exec_backend,
                        )
                        outcome = "ok" if attempt == first_attempt == 0 else "retried"
                        break
                    except BackendError:
                        raise
                    except Exception:
                        with self.lock:
                            self.log.failed_attempts += 1
                            if attempt < policy.max_retries:
                                self.log.retries += 1
                        attempt += 1
                        if attempt <= policy.max_retries:
                            time.sleep(policy.backoff_for(attempt))
            if part is None:
                # Trusted replay: a genuine task bug raises here and
                # propagates (stats still recorded by run()'s finally).
                part = task.run_chunk(chunk.start, chunk.stop)
                outcome = "replayed"
        except BaseException as exc:
            # Leave the chunk "assigned": run()'s finally then accounts
            # it as cancelled on an interrupt — the same accounting the
            # serial and pool venues give the chunk the interrupt landed
            # in — and a non-interrupt error still propagates via
            # record_error without mislabelling the chunk resolved.
            self.record_error(exc)
            raise
        with self.lock:
            if chunk.state == "cancelled":
                return  # early stop fired while we were computing.
            chunk.state = "resolved"
            self.log.chunk(
                chunk.ti, chunk.start, chunk.stop, attempt + 1, outcome,
                "serial" if outcome == "replayed" else "distributed",
                time.monotonic() - t0,
                inst=instrumentation_delta(before),
            )
            self.runner._journal_record(
                task, chunk.ti, chunk.start, chunk.stop, part, self.log
            )
            self._fold(chunk.ti, chunk, part)

    def drain_locally(self) -> None:
        """Total worker loss: resolve every outstanding span in-process,
        in ascending task/span order so early stopping keeps its cadence."""
        while True:
            with self.lock:
                for chunk in self.chunks:
                    if chunk.state == "assigned" and chunk.worker:
                        # In flight on a connection that no longer exists.
                        self._failed_attempt(chunk)
                chunk = next(
                    (
                        c for c in self.chunks
                        if c.state in ("queued", "replay")
                    ),
                    None,
                )
                if chunk is None:
                    return
                replay = chunk.state == "replay"
                self._mark_assigned(chunk, "")
            self.run_local(chunk, replay)

    # -- in-order fold + early stop ------------------------------------------

    def _fold(self, ti: int, chunk: _Chunk, part) -> None:
        """Buffer the partial; fold the contiguous prefix; lock held.

        Folding strictly in ascending span order — buffering partials
        that arrive early — is what keeps merge order, and therefore
        float summation order and early-stop decisions, identical to the
        serial venue.
        """
        if self._task_stopped[ti]:
            return
        span_index = self.per_task[ti].index(chunk)
        self._parts[ti][span_index] = part
        while self._next_span[ti] in self._parts[ti]:
            index = self._next_span[ti]
            value = self._parts[ti].pop(index)
            folded = self._folded[ti]
            self._folded[ti] = (
                value if folded is None else merge_partials(folded, value)
            )
            self._next_span[ti] = index + 1
            if self.early_stop is not None and self.early_stop.should_stop(
                self._folded[ti]
            ):
                self._task_stopped[ti] = True
                self.stopped_any = True
                self._cancel_remaining(ti)
                break

    def _cancel_remaining(self, ti: int) -> None:
        """Early stop fired for task ``ti``: unconsumed spans are dead
        weight.  In-flight results will still arrive, be recognised as
        cancelled, and dropped — matching the pool venue's accounting."""
        for chunk in self.per_task[ti]:
            if chunk.state in ("queued", "assigned", "replay"):
                chunk.state = "cancelled"
                self.log.chunk(
                    chunk.ti, chunk.start, chunk.stop, 0, "cancelled",
                    "distributed", 0.0, worker=chunk.worker,
                )
        self._parts[ti].clear()

    # -- completion ----------------------------------------------------------

    def finished(self) -> bool:
        return all(c.state in ("resolved", "cancelled") for c in self.chunks)

    def values(self) -> List:
        return list(self._folded)
