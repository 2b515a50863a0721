"""Vectorizability registry and backend dispatch policy.

The dispatcher answers one question per task: *is there a kernel that
reproduces the reference engine's event counts bit-for-bit for this
exact ``(protocol, adversary strategy, input sampler)`` combination?*
Kernels register a *matcher*; :func:`kernel_for` runs the matchers once
per task (memoized on the task object) behind hard eligibility gates:

* the task is an :class:`~repro.runtime.tasks.ExecutionTask` (anything
  else — e.g. a transcript-digest task — needs the real engine);
* the adversary factory ignores its per-run RNG — probed by building one
  instance with a :class:`SentinelRng` that raises on any use, which is
  what keeps rng-consuming strategies (random corruption draws) on the
  reference engine.

The *backend policy* — ``auto`` / ``reference`` / ``vectorized`` — comes
from an explicit runner argument (CLI ``--backend``), default ``auto``.
``auto`` runs a task's chunks on its kernel when it has one
and on the reference engine otherwise; ``vectorized`` is an assertion
that raises on any non-vectorizable task and on any kernel failure;
``reference`` never consults the registry.  The chosen engine is
visible afterwards in ``RunStats`` (``execution_backend`` /
``vectorized_runs`` / ``calibration_runs``, and ``ChunkStats.engine``
per chunk).
"""

from __future__ import annotations

from typing import Callable, List, Optional

#: Recognised backend policies, in CLI order.
BACKENDS = ("auto", "reference", "vectorized")

class BackendError(ValueError):
    """A backend request that cannot be honoured."""


class SentinelRngUsed(RuntimeError):
    """Raised by :class:`SentinelRng` on any attempted use."""


class SentinelRng:
    """An ``Rng`` stand-in that raises on any draw or fork.

    Adversary factories are probed with one of these: a factory that
    completes without touching it is per-run-RNG-free, so a single built
    instance characterises the strategy for the whole batch.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        raise SentinelRngUsed(
            f"adversary factory consumed per-run randomness ({name})"
        )


_MATCHERS: List[Callable] = []

_KERNEL_ATTR = "_vectorized_kernel"
_UNSET = object()


def register_kernel(matcher: Callable) -> Callable:
    """Add a ``matcher(task, adversary) -> kernel | None`` to the registry.

    Matchers run in registration order; the first non-``None`` kernel
    wins.  A kernel is a callable ``kernel(start, stop) -> partial``
    whose result must be *identical* (not just statistically equal) to
    ``task.run_chunk(start, stop)``.
    """
    _MATCHERS.append(matcher)
    return matcher


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalise a backend request: explicit arg, else auto."""
    value = backend or "auto"
    if value not in BACKENDS:
        raise BackendError(
            f"unknown backend {value!r}; expected one of {', '.join(BACKENDS)}"
        )
    return value


def kernel_for(task) -> Optional[Callable]:
    """The task's vectorized chunk kernel, or ``None`` (memoized)."""
    cached = getattr(task, _KERNEL_ATTR, _UNSET)
    if cached is not _UNSET:
        return cached
    kernel = _build_kernel(task)
    try:
        setattr(task, _KERNEL_ATTR, kernel)
    except (AttributeError, TypeError):
        pass  # slotted/frozen tasks just re-probe per chunk
    return kernel


def _build_kernel(task) -> Optional[Callable]:
    from . import kernels  # noqa: F401  (importing registers the matchers)
    from ..tasks import ExecutionTask

    if not isinstance(task, ExecutionTask):
        return None
    try:
        adversary = task.factory(SentinelRng())
    except SentinelRngUsed:
        return None
    for matcher in list(_MATCHERS):
        kernel = matcher(task, adversary)
        if kernel is not None:
            return kernel
    return None


def vectorizable(task) -> bool:
    """Whether the dispatcher would hand this task to a kernel."""
    return kernel_for(task) is not None
