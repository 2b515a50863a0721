"""The vectorized batch-execution backend.

Chunk kernels that compute the fairness events of eligible
``(protocol, adversary strategy)`` combinations in closed form, instead
of stepping the ``engine.execution`` state machine once per run.
Results are bit-identical to the reference engine — same
``EventCounts``, same cache keys, same ``deterministic_payload`` —
because every kernel draws the labelled sub-streams the event depends on
through the reference :class:`~repro.crypto.prf.Rng` (see
:mod:`.kernels`).  The backend keeps its historical name; it needs
nothing beyond the standard library.

Public surface:

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
