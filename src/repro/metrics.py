"""Process-local runtime metrics: one table of named counters and seconds.

Each producer adds to this table where it does the work:
``ExecutionTask.run_chunk`` its per-phase seconds, the chunk kernels
their runs, the chunk cache and the run journal their traffic, the setup
memos their hits and misses.  A runner takes a :func:`snapshot` when a
batch starts and folds the :func:`delta` into the batch's ``RunStats``
when it ends; a pool worker ships the delta of every span it ran with
its reply.  ``RunStats`` and its JSON export carry every name they are
handed, so a new counter is one :func:`add` call where it is counted.

Names are the ``RunStats`` export names; a name ending in ``_s`` holds
seconds.  The module imports nothing from ``repro``, so every layer may
count into it.  The table is shared by every thread of the process (the
service handles requests and runs in-process jobs on threads), so it is
read and written under one lock, which a forked child starts unheld.
"""

from __future__ import annotations

import os
import threading
from collections import Counter

#: The counters every ``RunStats`` exports, at zero when its batch never
#: touched them; any other name a batch counted is exported beside them.
EXPORTED = (
    "failed_attempts",
    "retries",
    "timeouts",
    "serial_replays",
    "cancelled_chunks",
    "journal_replayed_chunks",
    "journal_appended_chunks",
    "journal_corrupt_records",
    "cache_hits",
    "cache_misses",
    "cache_stores",
    "cache_corrupt_entries",
    "cache_write_errors",
    "setup_s",
    "execute_s",
    "classify_s",
    "memo_hits",
    "memo_misses",
    "vectorized_runs",
    "calibration_runs",
    "service_dedup_hits",
    "service_rate_limited",
)

_TABLE: Counter = Counter()
_LOCK = threading.Lock()


def _unlock_in_child() -> None:
    # A thread that held the lock at a fork does not exist in the child.
    global _LOCK
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_unlock_in_child)


def add(name: str, amount=1) -> None:
    """Count ``amount`` (runs, events or seconds) under ``name``."""
    with _LOCK:
        _TABLE[name] += amount


def value(name: str):
    """What ``name`` has counted in this process so far."""
    with _LOCK:
        return _TABLE[name]


def snapshot() -> dict:
    """The whole table as it stands."""
    with _LOCK:
        return dict(_TABLE)


def delta(before: dict) -> dict:
    """What was counted since ``before`` (a :func:`snapshot`), by name;
    names that did not move are left out."""
    return {
        name: now - before.get(name, 0)
        for name, now in snapshot().items()
        if now != before.get(name, 0)
    }


def with_defaults(counts) -> dict:
    """``counts`` plus every :data:`EXPORTED` name it lacks, at zero."""
    zeros = {name: 0.0 if name.endswith("_s") else 0 for name in EXPORTED}
    return {**zeros, **counts}
