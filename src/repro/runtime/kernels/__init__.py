"""Chunk kernels: the execution backend that skips the engine's rounds.

A chunk kernel computes the fairness events of a chunk of runs of one
eligible ``(protocol, adversary strategy)`` task without stepping the
engine per run, bit-identical to it (same ``EventCounts``, cache keys
and ``deterministic_payload``): every kernel draws the sub-streams the
event depends on through the reference :class:`~repro.crypto.prf.Rng`.
Two kernels are registered, in this order:

* :mod:`.gordon_katz` — the Gordon–Katz 1/p protocols vs the
  known-output stopper (per run: i*, a fake scan, the honest fallback);
* :mod:`.draw_keyed` — every other eligible task, Gordon–Katz excluded:
  a run's event is looked up by the values of its small draws, each
  value calibrated on two engine runs of the task, through a recording
  ``Rng``.

User-facing names keep the word "vectorized" (``--backend vectorized``,
``RunStats.vectorized_runs``) from its array-engine origin.  Public surface:

* :func:`resolve_backend` / :data:`BACKENDS` — the
  ``auto``/``reference``/``vectorized`` dispatch policy;
* :func:`kernel_for` / :func:`vectorizable` / :func:`register_kernel` —
  the vectorizability registry.
"""

from __future__ import annotations

from .registry import (
    BACKENDS,
    BackendError,
    SentinelRng,
    SentinelRngUsed,
    kernel_for,
    register_kernel,
    resolve_backend,
    vectorizable,
)

__all__ = [
    "BACKENDS",
    "BackendError",
    "SentinelRng",
    "SentinelRngUsed",
    "kernel_for",
    "register_kernel",
    "resolve_backend",
    "vectorizable",
]
