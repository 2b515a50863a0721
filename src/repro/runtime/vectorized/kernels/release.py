"""Chunk kernel: release-style protocols and Π½GMW vs the lock-watching aborter.

``SingleRoundProtocol``, ``GradualReleaseProtocol`` and
``ThresholdGmwProtocol`` against ``LockWatchingAborter`` produce a
*structurally constant* fairness event.  For the release strawmen the
aborter's coalition probe first reconstructs one step ahead at a round
fixed by the message schedule (round 1 for the single-round protocol;
the final bit-release round for gradual release), it then claims the —
always correct — reconstructed output and withholds the corrupted share,
and the honest party's next step finds an empty inbox and outputs ⊥.
For Π½GMW the coalition's size alone decides it: below ⌈n/2⌉ parties
it can neither reconstruct early nor block reconstruction (E11); from
⌈n/2⌉ on it learns the output first (for even n from the rushed honest
broadcasts) and withholds its own shares (E10).  Neither the abort round nor either side's
learned/not-learned status depends on the run's inputs or randomness,
so the per-run event is a constant of the ``(protocol, corruption set)``
pair.

Rather than hard-coding that table, the matcher calibrates: the kernel
replicates the event of the task's own run 0, stepped on the reference
engine at build time (:func:`.calibrated.calibrated_kernel` with a
constant key).
"""

from __future__ import annotations

from typing import Optional

from .calibrated import calibrated_kernel


def matcher(task, adversary) -> Optional[callable]:
    """Kernel for the release family and Π½GMW vs ``LockWatchingAborter``."""
    from ....adversaries.aborting import LockWatchingAborter
    from ....gmw.threshold import ThresholdGmwProtocol
    from ....protocols.gradual_release import GradualReleaseProtocol
    from ....protocols.single_round import SingleRoundProtocol

    if type(task.protocol) not in (
        SingleRoundProtocol, GradualReleaseProtocol, ThresholdGmwProtocol
    ):
        return None
    # Exact type: subclasses (e.g. the rng-seeded random corruptor) may
    # deviate in ways the constant-event argument does not cover.
    if type(adversary) is not LockWatchingAborter:
        return None
    return calibrated_kernel(task)
