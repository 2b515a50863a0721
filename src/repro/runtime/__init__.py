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
    PHASES,
    ChunkCache,
    instrumentation_delta,
    instrumentation_snapshot,
    resolve_cache,
)
from .early_stop import EarlyStopRule
from .retry import (
    NO_FAULTS,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    run_task_chunk,
)
from .runner import (
    SMALL_BATCH_THRESHOLD,
    BatchRunner,
    ProcessPoolRunner,
    SerialRunner,
    resolve_chunk_size,
    resolve_jobs,
    resolve_runner,
    usable_cpus,
)
from .journal import RunJournal, resolve_journal
from .stats import ChunkStats, MeasuredCounts, RunStats
from .tasks import (
    ExecutionTask,
    default_chunk_size,
    merge_partials,
    plan_chunks,
)
from .vectorized import (
    BACKENDS,
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
    "SMALL_BATCH_THRESHOLD",
    "ChunkCache",
    "resolve_cache",
    "instrumentation_snapshot",
    "instrumentation_delta",
    "PHASES",
    "CACHE_SCHEMA_VERSION",
    "RunJournal",
    "resolve_journal",
    "BACKENDS",
    "BackendError",
    "resolve_backend",
    "vectorizable",
]
