"""Calibrated chunk kernels: an event looked up by a small per-run key.

For some eligible ``(protocol, strategy)`` pairs a run's fairness event
is a function of one discrete *key* of the run: a constant for the
release strawmen and Π½GMW under lock-watching aborters, "did i* land in
the coalition" for the priv-sfe protocols.  :func:`calibrated_kernel`
builds the kernel for such a pair without a table of events: it steps
the reference engine (``task.run_chunk``) on the first run of the task
that shows each key value, and every run with that key then gets that
run's event and corruption set.  The calibration runs are runs of the
task itself, so the kernel is exact on them by construction, and the
mapping follows the engine if a protocol's event table ever shifts.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from ....core.events import FairnessEvent
from ....core.utility import EventCounts
from ....engine.execution import ProtocolViolation
from ..registry import COUNTERS

#: Runs searched for each key value before the matcher gives up (the
#: task then runs on the engine).  A key value of probability p is
#: missed with probability (1 - p) ** 256.
_CALIBRATION_SEARCH = 256


def _reference_event(task, k: int):
    """Run ``k`` of ``task`` on the engine: ``(event, corrupted)``, or
    ``None`` for a run no kernel should replicate (hung or violating)."""
    COUNTERS["calibration_runs"] += 1
    try:
        counts = task.run_chunk(k, k + 1)
    except ProtocolViolation:
        return None
    (event,) = [e for e, c in counts.counts.items() if c]
    if event is FairnessEvent.HONEST_HUNG:
        return None
    (corrupted,) = counts.corruption_counts
    return event, corrupted


def calibrated_kernel(
    task,
    key: Callable[[int], Hashable] = lambda k: None,
    n_values: int = 1,
) -> Optional[Callable]:
    """Kernel replicating, per run ``k``, the calibrated event of ``key(k)``.

    ``key`` takes ``n_values`` values; each is calibrated on the first
    run showing it.  Returns ``None`` when a value does not show within
    the search, a calibration run hangs or violates, or the runs disagree
    on the corruption set.
    """
    events = {}
    corrupted = None
    for k in range(_CALIBRATION_SEARCH):
        value = key(k)
        if value in events:
            continue
        reference = _reference_event(task, k)
        if reference is None:
            return None
        events[value], run_corrupted = reference
        if corrupted not in (None, run_corrupted):
            return None
        corrupted = run_corrupted
        if len(events) == n_values:
            break
    else:
        return None

    def kernel(start: int, stop: int) -> EventCounts:
        counts = EventCounts()
        for k in range(start, stop):
            counts.counts[events[key(k)]] += 1
        counts.corruption_counts[corrupted] = stop - start
        return counts

    return kernel
