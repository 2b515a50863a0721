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
chunk kernel from ``runtime.kernels`` that reproduces the
reference results bit-for-bit.  What a batch did is counted in
:mod:`repro.metrics`, one table of named counters that every layer adds
to where the work happens; each batch folds its delta (and its pool
workers' deltas) into the ``metrics`` mapping of its :class:`RunStats`,
which the export writes out whole.  The benchmark tracer's layer rows,
``service.stats`` and an event stream do not read that table yet.  See
docs/architecture.md ("Measurement runtime" / "Failure semantics" /
"Execution backends" / "Observability").
"""

from .cache import CACHE_SCHEMA_VERSION, ChunkCache, resolve_cache
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
from .kernels import (
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
    "CACHE_SCHEMA_VERSION",
    "RunJournal",
    "resolve_journal",
    "BACKENDS",
    "BackendError",
    "resolve_backend",
    "vectorizable",
]
