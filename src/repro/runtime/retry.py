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

Both have ``from_env`` constructors (``REPRO_MAX_RETRIES``,
``REPRO_CHUNK_TIMEOUT``, ``REPRO_FAULT_RATE``, ``REPRO_FAULT_KIND``,
``REPRO_FAULT_SEED``) so CI can run the whole suite with faults enabled
without touching any call site.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from ..crypto.prf import Rng
from .cache import PHASES

#: Retry/timeout environment knobs (no explicit argument wins over these).
ENV_MAX_RETRIES = "REPRO_MAX_RETRIES"
ENV_CHUNK_TIMEOUT = "REPRO_CHUNK_TIMEOUT"

#: Fault-injection environment knobs.
ENV_FAULT_RATE = "REPRO_FAULT_RATE"
ENV_FAULT_KIND = "REPRO_FAULT_KIND"
ENV_FAULT_SEED = "REPRO_FAULT_SEED"


class InjectedFault(RuntimeError):
    """A deliberately injected chunk failure (never a real task bug)."""


class ChunkTimeout(RuntimeError):
    """Raised parent-side when a chunk misses its wall-clock deadline."""


@dataclass(frozen=True)
class RetryPolicy:
    """How a runner reacts to a failed or timed-out chunk attempt.

    ``max_retries`` bounds the *re*-executions after the first attempt;
    once they are exhausted the runners degrade to a trusted in-process
    serial replay (with fault injection disabled) instead of raising, so
    an injected failure can never abort a batch.  ``chunk_timeout_s`` is
    the per-chunk result deadline for pool backends (``None`` = wait
    forever); it is measured parent-side from when the chunk's result is
    awaited, with queue wait excluded while the chunk has not started.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    chunk_timeout_s: Optional[float] = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ValueError("chunk_timeout_s must be positive (or None)")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep before re-submission number ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_multiplier ** max(0, attempt - 1)

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Policy implied by ``REPRO_MAX_RETRIES``/``REPRO_CHUNK_TIMEOUT``."""
        retries = cls.max_retries
        raw = os.environ.get(ENV_MAX_RETRIES, "").strip()
        if raw:
            try:
                retries = int(raw)
            except ValueError:
                raise ValueError(f"{ENV_MAX_RETRIES} must be an integer, got {raw!r}")
        timeout: Optional[float] = None
        raw = os.environ.get(ENV_CHUNK_TIMEOUT, "").strip()
        if raw:
            try:
                timeout = float(raw)
            except ValueError:
                raise ValueError(f"{ENV_CHUNK_TIMEOUT} must be a float, got {raw!r}")
            if timeout <= 0:
                # Consistent with __post_init__: a non-positive deadline
                # is a configuration error, not "wait forever" (unset
                # the variable to disable the deadline).
                raise ValueError(
                    f"{ENV_CHUNK_TIMEOUT} must be positive, got {raw!r} "
                    "(unset it to disable the chunk deadline)"
                )
        return cls(max_retries=max(0, retries), chunk_timeout_s=timeout)


#: Supported failure modes: raise in the worker, kill the worker process
#: (provokes ``BrokenProcessPool``), or stall past the chunk deadline.
FAULT_KINDS = ("raise", "exit", "sleep")


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
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must lie in [0, 1]")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}")

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

    @classmethod
    def from_env(cls) -> Optional["FaultSpec"]:
        """Spec implied by ``REPRO_FAULT_*``; ``None`` when injection is off."""
        raw = os.environ.get(ENV_FAULT_RATE, "").strip()
        if not raw:
            return None
        try:
            rate = float(raw)
        except ValueError:
            raise ValueError(f"{ENV_FAULT_RATE} must be a float, got {raw!r}")
        if rate <= 0:
            return None
        kind = os.environ.get(ENV_FAULT_KIND, "").strip() or "raise"
        seed: object = os.environ.get(ENV_FAULT_SEED, "").strip() or 0
        if isinstance(seed, str):
            # encode_seed is type-tagged, so the string "0" and the
            # default int 0 would select *different* fault patterns;
            # parse numeric env seeds so explicitly setting the default
            # value is a no-op.
            try:
                seed = int(seed)
            except ValueError:
                pass
        return cls(rate=min(rate, 1.0), kind=kind, seed=seed)


#: Explicitly disable fault injection (overrides ``REPRO_FAULT_RATE``).
NO_FAULTS = FaultSpec(rate=0.0)


def _execute_chunk(task, start: int, stop: int, backend: str):
    """Run one chunk on the requested execution backend.

    ``auto`` hands a chunk to the task's kernel only when the chunk spans
    at least the kernel's ``min_lanes`` runs (its crossover width, 1 when
    the kernel declares none) and otherwise runs the reference engine;
    ``vectorized`` runs the kernel at any width and raises on tasks no
    kernel covers; ``reference`` never consults the registry.  Kernel
    results are bit-identical to ``task.run_chunk`` by the registry's
    contract, so cache keys and merge semantics are backend-independent.
    """
    if backend != "reference":
        from .vectorized import BackendError, kernel_for
        from .vectorized.registry import COUNTERS

        kernel = kernel_for(task)
        if kernel is not None and (
            backend == "vectorized"
            or stop - start >= getattr(kernel, "min_lanes", 1)
        ):
            t0 = time.perf_counter()
            part = kernel(start, stop)
            PHASES.execute_s += time.perf_counter() - t0
            COUNTERS["vectorized_runs"] += stop - start
            return part
        if backend == "vectorized":
            raise BackendError(
                f"backend 'vectorized' was forced but task "
                f"{getattr(task, 'label', task)!r} has no registered "
                "kernel (unknown strategy, active faults, non-constant "
                "inputs, or numpy unavailable); use --backend auto"
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
    :mod:`repro.runtime.vectorized`).  Vectorized and reference chunks
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
        key = cache.key_for(task, start, stop)
        if key is not None:
            hit, value = cache.fetch(key)
            if hit:
                return value
            part = _execute_chunk(task, start, stop, backend)
            cache.store(key, part)
            return part
    return _execute_chunk(task, start, stop, backend)
