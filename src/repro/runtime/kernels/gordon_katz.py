"""Chunk kernel: Gordon–Katz 1/p protocols vs the known-output stopper.

The reference engine steps ~``reveal_rounds`` protocol rounds per run and
has ShareGen derive hundreds of labelled sub-streams (pads, MAC keys,
full fake streams for both parties).  Under the registered worst-case
adversary the fairness event of a run is a closed-form function of a
handful of those streams, because every labelled ``Rng`` fork depends
only on its seed and label — never on how much of any sibling stream was
consumed.  Per run the event is determined by:

* ``i_star`` — ShareGen's geometric switch round, drawn by its own
  ``_draw_i_star`` from the ``i_star`` sub-stream;
* the corrupted party's value stream ``s_c[j] = fake_c(j+1)`` for
  ``j+1 < i_star`` and ``y_c`` after — the stopper aborts at the first
  index ``j*`` with ``s_c[j*] == known_output`` (it peeks index ``j`` via
  the rushing token at round ``j+1``);
* the honest party's abort output — its last banked value
  ``fake_h(j*)``, or ShareGen's ``fallback_h`` when ``j* = 0``.

From those, exactly as ``classify_gk`` computes on the transcript:
``learned = (j* >= i_star - 1)`` (the corrupted party saw a real value)
and ``honest = (abort output == y_h)``; a run whose stream never shows
``known_output`` completes normally (E11).  The kernel forks only those
sub-streams, through the reference ``Rng`` and ShareGen's own fake
samplers, so it shares every draw semantic with the engine and skips the
rest of the run: about 15 SHA-256 digests per run instead of thousands.
"""

from __future__ import annotations

from typing import Optional

from ... import metrics
from ...core.events import FairnessEvent
from ...core.utility import EventCounts
from ...crypto.prf import Rng

_VALUE_MASK = (1 << 64) - 1

_EVENT_BY_CODE = (
    FairnessEvent.E00,
    FairnessEvent.E01,
    FairnessEvent.E10,
    FairnessEvent.E11,
)


def matcher(task, adversary) -> Optional[callable]:
    """Kernel for ``GordonKatzProtocol`` vs ``KnownOutputStopper``."""
    from ...adversaries.gk_aborter import KnownOutputStopper
    from ...protocols.gordon_katz import GordonKatzProtocol

    protocol = task.protocol
    if type(protocol) is not GordonKatzProtocol:
        return None
    if type(adversary) is not KnownOutputStopper:
        return None
    if adversary.start_round != 0:
        return None
    c = adversary.corrupt_index
    if c not in (0, 1) or adversary._static_corruptions != {c}:
        return None
    v = adversary.known_output
    if not isinstance(v, int) or not 0 <= v <= _VALUE_MASK:
        return None
    # The event depends on the run's inputs (through y_c/y_h and the
    # domain-variant fakes), so only pinned-input batches qualify.
    sampler = task.input_sampler
    token = getattr(sampler, "cache_token", None)
    if not (isinstance(token, str) and token.startswith("const:")):
        return None
    inputs = tuple(sampler(None))
    func = protocol.func
    if len(inputs) != func.n_parties or func.n_parties != 2:
        return None
    if not all(isinstance(x, int) for x in inputs):
        return None

    h = 1 - c
    outputs = func.outputs_for(inputs)
    if not all(
        isinstance(y, int) and 0 <= y <= _VALUE_MASK for y in outputs
    ):
        return None
    y_c = outputs[c]
    y_h = outputs[h]
    sharegen = protocol._template
    draw_i_star = sharegen._draw_i_star
    fake_c = sharegen.fake_samplers[c]
    fake_h = sharegen.fake_samplers[h]
    fake_c_label = f"fake-{c}-%d"
    fake_h_label = f"fake-{h}-%d"
    fallback_h_label = f"fallback-{h}"
    master = Rng(task.seed)
    corruption = frozenset({c})

    def kernel(start: int, stop: int) -> EventCounts:
        tally = [0, 0, 0, 0]
        for k in range(start, stop):
            sg = master.fork(f"run-{k}").fork("exec").fork("F_sharegen_gk@0")
            i_star = draw_i_star(sg.fork("i_star"))
            # Scan the corrupted party's fake region for the first value
            # equal to known_output; stream index j = i - 1.
            for i in range(1, i_star):
                fake = fake_c(inputs, sg.fork(fake_c_label % i))
                if fake & _VALUE_MASK == v:
                    j_star = i - 1
                    break
            else:
                if y_c != v:
                    tally[3] += 1  # never stopped: a normal completion
                    continue
                # The scan exhausted the fakes and reached the real y_c.
                j_star = i_star - 1
            # Honest party's abort output: fallback before any reveal,
            # else its own last banked (fake) value fake_h(j*).
            if j_star == 0:
                label = fallback_h_label
            else:
                label = fake_h_label % j_star
            honest = fake_h(inputs, sg.fork(label)) & _VALUE_MASK == y_h
            learned = j_star == i_star - 1
            tally[2 * learned + honest] += 1
        counts = EventCounts()
        for event, n in zip(_EVENT_BY_CODE, tally):
            counts.counts[event] += n
        counts.corruption_counts[corruption] = stop - start
        metrics.add("vectorized_runs", stop - start)
        return counts

    return kernel
