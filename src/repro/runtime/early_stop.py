"""Adaptive early stopping for Monte-Carlo batches.

Runners evaluate a stop rule on the *merged-so-far* :class:`EventCounts`
at every chunk boundary; once the rule fires, the task's remaining chunks
are dropped (parallel backends cancel their outstanding futures).  Because
chunk boundaries are a pure function of ``n_runs`` (see
:func:`~repro.runtime.tasks.default_chunk_size`), a stopped batch halts at
the same run index under every backend — early-stopped results stay
reproducible, they are just computed from fewer runs than requested.
"""

from __future__ import annotations

from ..core.utility import EventCounts


class EarlyStopRule:
    """Interface: ``should_stop(counts)`` on merged-so-far event counts."""

    def should_stop(self, counts: EventCounts) -> bool:  # pragma: no cover
        raise NotImplementedError
