"""Protocol-family kernels for the vectorized backend.

Importing this package registers every built-in kernel matcher with
:mod:`..registry`.  One module per protocol family; each module exposes a
``matcher(task, adversary)`` that returns a chunk kernel (a callable
``kernel(start, stop) -> EventCounts``) when the task is eligible, and
``None`` otherwise:

* :mod:`.gordon_katz` — the Gordon–Katz 1/p protocols vs the
  known-output stopper (per run: i*, a fake scan, the honest fallback);
* :mod:`.release` — single-round, gradual release and Π½GMW vs the
  lock-watching aborter (a constant event per task);
* :mod:`.priv_sfe` — ΠOptnSFE and the Lemma-18 protocol vs the
  lock-watching aborter (per run: whether i* is corrupted).

The last two map a per-run key to events calibrated on the task's own
reference runs, through the one helper in :mod:`.calibrated`.  Every
kernel is checked against the engine by the registry-wide backend
differential (``tests/test_vectorized.py``).
"""

from __future__ import annotations

from ..registry import register_kernel
from . import gordon_katz, priv_sfe, release

register_kernel(gordon_katz.matcher)
register_kernel(release.matcher)
register_kernel(priv_sfe.matcher)

__all__ = ["gordon_katz", "priv_sfe", "release"]
