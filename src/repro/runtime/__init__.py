"""Parallel Monte-Carlo runtime: batch runners, tasks, early stopping,
failure semantics.

The analysis layer expresses every measurement as a list of tasks and
hands them to a :class:`BatchRunner`; :class:`SerialRunner` replays the
historical in-process loop and :class:`ProcessPoolRunner` fans chunks out
over forked worker processes.  Both produce bit-identical results for
the same seed — and both recover from failed chunk attempts through the
retry ladder in ``runtime.retry`` (bounded retries, then trusted serial
replay), so a crashed worker can never bias a measured event frequency.
Orthogonally to the venue, each chunk is computed by an *execution
backend*: the reference state machine, or — for eligible tasks — a
closed-form chunk kernel from ``runtime.vectorized`` that reproduces the
reference results bit-for-bit.  See docs/architecture.md ("Measurement runtime" /
"Failure semantics" / "Execution backends").
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    ENV_CACHE_DIR,
    PHASES,
    ChunkCache,
    instrumentation_delta,
    instrumentation_snapshot,
    resolve_cache,
)
from .early_stop import EarlyStopRule
from .retry import (
    ENV_CHUNK_TIMEOUT,
    ENV_FAULT_KIND,
    ENV_FAULT_RATE,
    ENV_FAULT_SEED,
    ENV_MAX_RETRIES,
    NO_FAULTS,
    ChunkTimeout,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    run_task_chunk,
)
from .runner import (
    ENV_CHUNK_SIZE,
    REPRO_JOBS_ENV,
    SMALL_BATCH_THRESHOLD,
    BatchRunner,
    ProcessPoolRunner,
    SerialRunner,
    resolve_chunk_size,
    resolve_jobs,
    resolve_runner,
    usable_cpus,
)
from .journal import ENV_JOURNAL_DIR, RunJournal, resolve_journal
from .stats import ChunkStats, MeasuredCounts, RunStats
from .tasks import (
    ExecutionTask,
    default_chunk_size,
    merge_partials,
    plan_chunks,
)
from .vectorized import (
    BACKENDS,
    ENV_BACKEND,
    BackendError,
    resolve_backend,
    vectorizable,
)

__all__ = [
    "BatchRunner",
    "SerialRunner",
    "ProcessPoolRunner",
    "ExecutionTask",
    "RunStats",
    "ChunkStats",
    "MeasuredCounts",
    "RetryPolicy",
    "FaultSpec",
    "InjectedFault",
    "ChunkTimeout",
    "NO_FAULTS",
    "run_task_chunk",
    "EarlyStopRule",
    "resolve_jobs",
    "resolve_runner",
    "usable_cpus",
    "default_chunk_size",
    "merge_partials",
    "plan_chunks",
    "resolve_chunk_size",
    "ENV_CHUNK_SIZE",
    "REPRO_JOBS_ENV",
    "SMALL_BATCH_THRESHOLD",
    "ENV_MAX_RETRIES",
    "ENV_CHUNK_TIMEOUT",
    "ENV_FAULT_RATE",
    "ENV_FAULT_KIND",
    "ENV_FAULT_SEED",
    "ChunkCache",
    "resolve_cache",
    "instrumentation_snapshot",
    "instrumentation_delta",
    "PHASES",
    "ENV_CACHE_DIR",
    "CACHE_SCHEMA_VERSION",
    "RunJournal",
    "resolve_journal",
    "ENV_JOURNAL_DIR",
    "BACKENDS",
    "ENV_BACKEND",
    "BackendError",
    "resolve_backend",
    "vectorizable",
]
