"""Failure semantics for the batch runtime: retry policy and fault injection.

The paper's claims are event-probability bounds, so a crashed worker or a
silently dropped chunk does not just slow a sweep down — it biases the
measured adversarial utility.  The runtime therefore treats every chunk as
re-executable: the determinism contract (run ``k`` always draws from
``Rng(seed).fork(f"run-{k}")``) makes any ``(task, start, stop)`` triple
bit-identically replayable, so recovery never changes a result, it only
changes where the work happened.

Two pieces live here:

* :class:`RetryPolicy` — how a runner reacts to a failed chunk attempt:
  bounded in-pool retries with exponential backoff, an optional per-chunk
  wall-clock deadline, and (implicitly, in the runners) the final rung of
  the degradation ladder: trusted in-process serial replay with fault
  injection disabled.
* :class:`FaultSpec` — deterministic fault injection for exercising that
  recovery machinery in tests and CI.  Whether attempt ``a`` of the chunk
  starting at run ``s`` of task ``t`` fails is a pure function of
  ``(spec.seed, t, s, a)``, so the parent and every worker agree on the
  fault pattern and injected failures are reproducible across platforms.

A runner given neither builds them from the ``REPRO_MAX_RETRIES`` and
``REPRO_FAULT_RATE``/``_KIND``/``_SEED`` knobs (``runtime.config``), so
CI can run the whole suite with faults enabled without touching any
call site.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from .. import metrics
from ..crypto.prf import Rng
from .cache import chunk_key
from .config import KNOBS, knob, positive


class InjectedFault(RuntimeError):
    """A deliberately injected chunk failure (never a real task bug)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How a runner reacts to a failed or timed-out chunk attempt.

    ``max_retries`` bounds the *re*-executions after the first attempt;
    once they are exhausted the runners degrade to a trusted in-process
    serial replay (with fault injection disabled) instead of raising, so
    an injected failure can never abort a batch.  ``chunk_timeout_s`` is
    the per-attempt deadline on the process pool (``None`` = wait
    forever), measured parent-side from when the worker starts the
    attempt: when it is sent to an idle worker, or when the attempt
    queued ahead of it on that worker resolves.  A worker that misses it
    is killed and replaced.
    """

    max_retries: int = KNOBS["REPRO_MAX_RETRIES"].default
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    chunk_timeout_s: Optional[float] = None

    def __post_init__(self):
        knob("REPRO_MAX_RETRIES", self.max_retries, "max_retries")
        positive(self.chunk_timeout_s, "chunk_timeout_s")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep before re-submission number ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_multiplier ** max(0, attempt - 1)


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic fault injection for the recovery path.

    Attempt ``a`` of the chunk starting at run ``s`` of task ``t`` fails
    iff the first ``a+1`` draws of ``Rng((spec.seed, "fault", t, s))`` all
    land below ``rate`` — i.e. each chunk fails a deterministic,
    geometrically distributed number of consecutive times (capped at
    ``max_consecutive``) and then succeeds forever.  The trusted serial
    replay rung never consults the spec, so injected faults can exercise
    retry exhaustion without ever losing a batch.
    """

    rate: float = 0.0
    kind: str = "raise"
    seed: object = 0
    sleep_s: float = 0.6
    max_consecutive: int = 8

    def __post_init__(self):
        knob("REPRO_FAULT_RATE", self.rate, "rate")
        knob("REPRO_FAULT_KIND", self.kind, "kind")

    @property
    def active(self) -> bool:
        return self.rate > 0.0

    def fault_attempts(self, task_index: int, start: int) -> int:
        """How many consecutive attempts of this chunk fail (pure function)."""
        if not self.active:
            return 0
        rng = Rng((self.seed, "fault", task_index, start))
        count = 0
        while count < self.max_consecutive and rng.random() < self.rate:
            count += 1
        return count

    def should_fail(self, task_index: int, start: int, attempt: int) -> bool:
        return attempt < self.fault_attempts(task_index, start)


#: Explicitly disable fault injection (overrides ``REPRO_FAULT_*``).
NO_FAULTS = FaultSpec(rate=0.0)


def _execute_chunk(task, start: int, stop: int, backend: str):
    """Run one chunk on the requested execution backend.

    ``auto`` hands a chunk to the task's kernel when it has one and
    otherwise runs the reference engine; ``vectorized`` raises
    :class:`BackendError` on tasks no kernel covers and on a kernel that
    fails, so the retry ladder can never turn the assertion into a
    reference replay; ``reference`` never consults the registry.  Kernel
    results are bit-identical to ``task.run_chunk`` by the registry's
    contract, so cache keys and merge semantics are backend-independent.
    """
    if backend != "reference":
        from .kernels import BackendError, kernel_for

        kernel = kernel_for(task)
        if kernel is not None:
            t0 = time.perf_counter()
            try:
                part = kernel(start, stop)
            except Exception as exc:
                if backend != "vectorized":
                    raise
                raise BackendError(
                    f"backend 'vectorized' was forced but the kernel of "
                    f"task {getattr(task, 'label', task)!r} failed on "
                    f"chunk [{start}, {stop}): {exc!r}"
                ) from exc
            metrics.add("execute_s", time.perf_counter() - t0)
            return part
        if backend == "vectorized":
            raise BackendError(
                f"backend 'vectorized' was forced but task "
                f"{getattr(task, 'label', task)!r} has no registered "
                "kernel (unknown strategy, active faults or non-constant "
                "inputs); use --backend auto"
            )
    return task.run_chunk(start, stop)


def run_task_chunk(
    task,
    task_index: int,
    start: int,
    stop: int,
    attempt: int = 0,
    fault: Optional[FaultSpec] = None,
    in_worker: bool = False,
    cache=None,
    backend: str = "auto",
):
    """Execute one chunk attempt, injecting a fault first when due.

    ``in_worker`` gates the destructive fault kinds: a parent process
    never ``os._exit``s or stalls itself — outside a worker every kind
    degrades to a plain :class:`InjectedFault` raise.

    ``cache`` is an optional :class:`~repro.runtime.cache.ChunkCache`:
    when the task can fingerprint itself, a stored partial is returned
    directly and a freshly computed one is persisted.  The fault check
    deliberately runs first, so injected failures exercise the retry
    ladder identically with and without a cache; the trusted serial
    replay rung (``task.run_chunk`` called by the runners) never
    consults the cache at all.

    ``backend`` selects the execution engine (see
    :mod:`repro.runtime.kernels`).  Vectorized and reference chunks
    share cache keys — their partials are bit-identical — so a cache
    warmed under one backend serves the other.
    """
    if fault is not None and fault.should_fail(task_index, start, attempt):
        if in_worker and fault.kind == "exit":
            os._exit(13)
        if in_worker and fault.kind == "sleep":
            time.sleep(fault.sleep_s)
        raise InjectedFault(
            f"injected {fault.kind} fault: task {task_index}, "
            f"chunk [{start}, {stop}), attempt {attempt}"
        )
    if cache is not None:
        key = chunk_key(task, start, stop)
        if key is not None:
            hit, value = cache.fetch(key)
            if hit:
                return value
            part = _execute_chunk(task, start, stop, backend)
            cache.store(key, part)
            return part
    return _execute_chunk(task, start, stop, backend)
