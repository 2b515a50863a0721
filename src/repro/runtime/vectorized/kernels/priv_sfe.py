"""Chunk kernel: ΠOptnSFE and the Lemma-18 protocol vs the lock-watching aborter.

Both protocols open with hF^{f,⊥}_priv-sfe, which hands the signed
output to one uniformly random party i* and ⊥ to everyone else.  Against
an exact ``LockWatchingAborter`` on a non-empty proper coalition C the
run's event depends on one bit, as in Lemma 11's proof:

* i* ∈ C — after round 1 the coalition holds (y, σ); the probe claims y
  and withholds every further message, so no honest party sees a valid
  signature and all output ⊥ (E10);
* i* ∉ C — the coalition holds nothing until the honest i* releases y:
  ΠOptnSFE broadcasts it, and the Lemma-18 protocol broadcasts it too,
  because nobody deviated from the 0-signals (its release coin is never
  tossed), so everyone outputs y (E11).

i* is the first draw of the invocation's own stream, the engine's fork
``run-{k}`` → ``exec`` → ``F_priv_sfe@0`` (every party calls the
functionality in round 0); the Lamport key pair (16 KB of PRG output
and 512 preimage hashes per engine run) comes from a ``sig`` fork the
kernel never touches.  The kernel draws i* through the functionality's
own ``_draw_i_star`` and maps the bit to the events of two calibration
runs of the task (:func:`.calibrated.calibrated_kernel`), so the
E10/E11 table above is measured, not hard-coded: about 5 SHA-256
digests per run.

Inputs must come from the protocol's default sampler or a constant one:
the argument above holds for every input the function accepts, but a
custom sampler may produce ones it refuses.
"""

from __future__ import annotations

from typing import Optional

from ....crypto.prf import Rng
from .calibrated import calibrated_kernel


def matcher(task, adversary) -> Optional[callable]:
    """Kernel for the priv-sfe protocols vs ``LockWatchingAborter``."""
    from ....adversaries.aborting import LockWatchingAborter
    from ....functionalities.priv_sfe import PrivSfeWithAbort
    from ....protocols.opt_nsfe import OptNSfeProtocol
    from ....protocols.unbalanced_opt import UnbalancedOptProtocol

    protocol = task.protocol
    if type(protocol) not in (OptNSfeProtocol, UnbalancedOptProtocol):
        return None
    if type(adversary) is not LockWatchingAborter:
        return None
    n = protocol.n_parties
    coalition = adversary.initial_corruptions(n)
    if not coalition or not coalition < set(range(n)):
        return None
    sampler = task.input_sampler
    if sampler is not None and not str(
        getattr(sampler, "cache_token", "")
    ).startswith("const:"):
        return None
    master = Rng(task.seed)
    # Neither protocol draws while building its functionalities.
    draw_i_star = protocol.build_functionalities(master)[
        PrivSfeWithAbort.name
    ]._draw_i_star
    label = f"{PrivSfeWithAbort.name}@0"

    def holder_corrupted(k: int) -> bool:
        rng = master.fork(f"run-{k}").fork("exec").fork(label)
        return draw_i_star(rng, n) in coalition

    return calibrated_kernel(task, holder_corrupted, n_values=2)
