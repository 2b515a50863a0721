"""Utility-based fairness vs 1/p-security (paper §5, Appendix C).

Executable renditions of the section's results:

* **Theorem 23** — :func:`gk_realization_distance` builds the explicit
  ideal-world simulator for a GK stopping-rule adversary against the
  randomized-abort functionality Fsfe$ and measures the statistical
  distance between real and ideal outcome distributions (≈ 0 up to
  Monte-Carlo noise).
* **Lemma 25** — utility ≤ 1/p with ~γ = (0,0,1,0) together with the
  realization distance gives 1/p-security; :func:`gk_e10_probability`
  measures the utility side.
* **Lemma 26** — :func:`leaky_distinguisher_probabilities` runs the
  environments Z1/Z2 against the leaky protocol Π̃ and exhibits the
  real-vs-ideal gap (the real world has Pr[Z1=1] ≈ Pr[Z2=1], while any
  Fsfe$ simulator forces Pr[Z1=1] ≤ ¾·Pr[Z2=1]).
* **Lemma 27** — :func:`leaky_privacy_distance` implements the paper's
  privacy simulator (which legitimately extracts x1 by substituting
  x2' = 1) and shows the corrupted view is perfectly simulatable, i.e. Π̃
  *is* private in the [18] sense despite leaking the input.

Both Π̃ measurements run on a per-run kernel, :func:`_leaky_run`, instead
of stepping the engine through the prologue and 160 reveal rounds: it
draws, through the reference ``Rng`` fork tree and Π̃'s own ShareGen
samplers, only the streams the events and the view summary read.  It is
checked run for run against the engine with
``LeakyInputExtractor`` (``tests/test_analysis_partial_fairness.py``,
``TestLeakyKernel``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Mapping, Optional, Tuple

from ..adversaries.gk_aborter import KnownOutputStopper, _GkStopperBase
from ..core.events import FairnessEvent
from ..crypto.prf import Rng
from ..engine.execution import run_execution
from ..functionalities.share_gen import _VALUE_MASK, GkShareGen
from ..protocols.gordon_katz import GordonKatzProtocol
from ..protocols.leaky_and import (
    LEAK_PROBABILITY,
    PROLOGUE_ROUNDS,
    LeakyAndProtocol,
)


def statistical_distance(a: Mapping, b: Mapping) -> float:
    """Total variation distance between two empirical distributions.

    Accepts raw counters; normalises internally.
    """
    total_a = sum(a.values())
    total_b = sum(b.values())
    if total_a == 0 or total_b == 0:
        raise ValueError("empty distribution")
    support = set(a) | set(b)
    return 0.5 * sum(
        abs(a.get(k, 0) / total_a - b.get(k, 0) / total_b) for k in support
    )


# --------------------------------------------------------------------------
# Theorem 23: Fsfe$ realization via the explicit simulator
# --------------------------------------------------------------------------

def gk_real_outcomes(
    protocol: GordonKatzProtocol,
    stopper_builder: Callable[[], _GkStopperBase],
    inputs: tuple,
    n_runs: int,
    seed=0,
) -> Counter:
    """Real-world outcome distribution for a stopping-rule adversary.

    Outcome = (honest party's output, #values the adversary opened,
    last value the adversary opened).
    """
    master = Rng(seed)
    outcomes = Counter()
    for k in range(n_runs):
        rng = master.fork(f"real-{k}")
        adversary = stopper_builder()
        result = run_execution(protocol, inputs, adversary, rng)
        honest = next(iter(result.honest))
        honest_output = result.outputs[honest].value
        seen = tuple(adversary.observed)
        outcomes[
            (honest_output, len(seen), seen[-1] if seen else None)
        ] += 1
    return outcomes


def gk_ideal_outcomes(
    protocol: GordonKatzProtocol,
    stopper_builder: Callable[[], _GkStopperBase],
    inputs: tuple,
    n_runs: int,
    seed=0,
) -> Counter:
    """Ideal-world (Fsfe$ + simulator) outcome distribution.

    The simulator from Theorem 23's proof: it draws i* itself, feeds the
    adversary simulated stream values (fakes from the ShareGen
    distribution before i*, the true corrupted output from i* on — asking
    Fsfe$ only then), and on an abort strictly before i* replaces the
    honest output through the randomized-abort interface (a fresh draw
    from Y_honest); at or after i* the honest party receives the value its
    banked stream position dictates.
    """
    sharegen = protocol._template
    func = protocol.func
    outputs = func.outputs_for(inputs)
    master = Rng(seed)
    outcomes = Counter()
    mask = (1 << 64) - 1
    for k in range(n_runs):
        rng = master.fork(f"ideal-{k}")
        stopper = stopper_builder()
        corrupted = stopper.corrupt_index
        honest = 1 - corrupted
        i_star = sharegen._draw_i_star(rng.fork("i_star"))
        corrupted_sampler = sharegen.fake_samplers[corrupted]
        honest_sampler = sharegen.fake_samplers[honest]

        seen = []
        stopped_at: Optional[int] = None
        for j in range(sharegen.rounds):
            if j < i_star - 1:
                value = corrupted_sampler(inputs, rng.fork(f"cf-{j}")) & mask
            else:
                value = outputs[corrupted] & mask  # simulator asks Fsfe$
            seen.append(value)
            if stopper.should_stop(j, value):
                stopped_at = j
                break

        if stopped_at is None or stopped_at >= i_star - 1:
            # Completed, or aborted no earlier than i*: the honest party's
            # banked position decides.
            banked = (stopped_at - 1) if stopped_at is not None else None
            if banked is None or banked >= i_star - 1:
                honest_output = outputs[honest]
            else:
                honest_output = (
                    honest_sampler(inputs, rng.fork("replace")) & mask
                )
        else:
            # Aborted strictly before i*: randomized abort, no ask.
            honest_output = honest_sampler(inputs, rng.fork("replace")) & mask
        outcomes[
            (honest_output, len(seen), seen[-1] if seen else None)
        ] += 1
    return outcomes


def gk_realization_distance(
    protocol: GordonKatzProtocol,
    stopper_builder: Callable[[], _GkStopperBase],
    inputs: tuple,
    n_runs: int = 500,
    seed=0,
) -> float:
    """Statistical distance between real and simulated executions."""
    real = gk_real_outcomes(protocol, stopper_builder, inputs, n_runs, seed)
    ideal = gk_ideal_outcomes(
        protocol, stopper_builder, inputs, n_runs, (seed, "ideal")
    )
    return statistical_distance(real, ideal)


def gk_e10_probability(
    protocol: GordonKatzProtocol,
    stopper_builder: Callable[[], _GkStopperBase],
    inputs: tuple,
    n_runs: int = 500,
    seed=0,
) -> float:
    """Measured Pr[E10] for a stopping-rule adversary (the 1/p bound)."""
    master = Rng(seed)
    hits = 0
    for k in range(n_runs):
        rng = master.fork(f"e10-{k}")
        adversary = stopper_builder()
        result = run_execution(protocol, inputs, adversary, rng)
        event = protocol.classify_result(result)
        if event is FairnessEvent.E10:
            hits += 1
    return hits / n_runs


# --------------------------------------------------------------------------
# Π̃ against LeakyInputExtractor, one run at a time
# --------------------------------------------------------------------------

#: One Π̃ instance, read-only: its reveal rounds and its ShareGen
#: template (the kernel's i* draw, fake samplers and rounds).
_LEAKY = LeakyAndProtocol()
_SHAREGEN = _LEAKY._template

#: The fork label the engine gives ShareGen's invocation: both parties
#: call it in the first round after the prologue.
_SHAREGEN_LABEL = f"{GkShareGen.name}@{PROLOGUE_ROUNDS}"


def _leaky_run(rng: Rng, view: bool = False, x2: int = 0) -> tuple:
    """One Π̃ run against ``LeakyInputExtractor``, from the streams it reads.

    Returns ``(x1, leaked, p1_output, stream)``, equal to what the
    environment gets from ``x1 = rng.fork("x1").randrange(2)`` and
    ``run_execution(LeakyAndProtocol(), (x1, x2), extractor,
    rng.fork("exec"))``: the extractor's ``extracted_input``, p1's output
    value, and (only when ``view`` is set, else ``None``) the corrupted
    p2's stream-b values in the order it opens them.  The measurements
    fix ``x2 = 0``, under which every stream value is 0; the cross-check
    against the engine also runs ``x2 = 1``, where the i* and fake draws
    show.

    The engine's labelled forks depend only on their parent seed and
    label, so the kernel draws just these:

    * p1's leak coin, its first and only draw from ``party-0``, tossed in
      round 1 on the extractor's deviating 1-bit;
    * for the view, ShareGen's ``i_star`` and p2's ``fake-1-{i}`` values,
      through the template's own ``_draw_i_star`` and ``fake_samplers``.

    The extractor plays the Gordon–Katz stage honestly, so p1 sends and
    opens all ``rounds`` reveals.  ShareGen truncates i* to at most
    ``rounds``, so p1's last opened value, its output, is always the real
    y₁; p2's stream is its fakes before i* and y₂ from i* on.
    """
    x1 = rng.fork("x1").randrange(2)
    execution = rng.fork("exec")
    coin = execution.fork("party-0").coin(LEAK_PROBABILITY)
    leaked = x1 if coin else None
    inputs = (x1, x2)
    outputs = _SHAREGEN.func.outputs_for(inputs)
    p1_output = outputs[0] & _VALUE_MASK
    if not view:
        return x1, leaked, p1_output, None
    gk = execution.fork(_SHAREGEN_LABEL)
    i_star = _SHAREGEN._draw_i_star(gk.fork("i_star"))
    fake = _SHAREGEN.fake_samplers[1]
    stream = [
        fake(inputs, gk.fork(f"fake-1-{i}")) & _VALUE_MASK
        for i in range(1, i_star)
    ]
    real = outputs[1] & _VALUE_MASK
    stream.extend([real] * (_SHAREGEN.rounds - i_star + 1))
    return x1, leaked, p1_output, tuple(stream)


def _check_runs(n_runs: int) -> None:
    if n_runs < 1:
        raise ValueError(f"n_runs must be at least 1, got {n_runs!r}")


# --------------------------------------------------------------------------
# Lemma 26: the Z1/Z2 distinguishers against Π̃
# --------------------------------------------------------------------------

def leaky_distinguisher_probabilities(
    n_runs: int = 2000, seed=0
) -> Tuple[float, float]:
    """Measured (Pr[Z1 = 1], Pr[Z2 = 1]) in the real Π̃ execution.

    Both environments choose x1 uniformly, corrupt p2 with x2 = 0, and
    have it send the deviating 1-bit; Z1 outputs 1 when p1's input leaked
    correctly *and* z1 = 0, Z2 outputs 1 when any input bit leaked.
    """
    _check_runs(n_runs)
    master = Rng(seed)
    z1_hits = 0
    z2_hits = 0
    for k in range(n_runs):
        x1, leaked, z1_output, _ = _leaky_run(master.fork(f"dist-{k}"))
        if leaked is not None:
            z2_hits += 1
            if leaked == x1 and z1_output == 0:
                z1_hits += 1
    return z1_hits / n_runs, z2_hits / n_runs


def leaky_ideal_bound_violated(
    p_z1: float, p_z2: float, tolerance: float
) -> bool:
    """Lemma 26's contradiction: any Fsfe$ simulator forces
    Pr[Z1=1] ≤ ¾·Pr[Z2=1]; the real world violates this."""
    return p_z1 > 0.75 * p_z2 + tolerance


# --------------------------------------------------------------------------
# Lemma 27: privacy of Π̃ via the explicit view simulator
# --------------------------------------------------------------------------

def leaky_real_views(n_runs: int = 1000, seed=0) -> Counter:
    """Corrupted p2's view distribution in the real (deviating) run.

    View summary = (x1, leaked-or-None, #stream values seen, stream
    constant-zero?), jointly with the environment's input choice.
    """
    _check_runs(n_runs)
    master = Rng(seed)
    views = Counter()
    for k in range(n_runs):
        x1, leaked, _, stream = _leaky_run(
            master.fork(f"view-{k}"), view=True
        )
        views[(x1, leaked, len(stream), all(v == 0 for v in stream))] += 1
    return views


def leaky_simulated_views(n_runs: int = 1000, seed=0) -> Counter:
    """The Lemma-27 privacy simulator's view distribution.

    The simulator substitutes x2' = 1, legitimately obtaining
    x1 ∧ 1 = x1 from the functionality, then reproduces the leak coin
    (heads with ``LEAK_PROBABILITY``) and the stream.  With x2 = 0 every
    stream value, fake or real, is 0, and the honest p1 reveals all
    ``reveal_rounds`` of them, so the stream's summary does not depend on
    i* and the simulator draws none.
    """
    _check_runs(n_runs)
    rounds = _LEAKY.reveal_rounds
    master = Rng(seed)
    views = Counter()
    for k in range(n_runs):
        rng = master.fork(f"sim-{k}")
        x1 = rng.fork("x1").randrange(2)  # obtained via x2' = 1 from F
        leaked = x1 if rng.fork("coin").coin(LEAK_PROBABILITY) else None
        views[(x1, leaked, rounds, True)] += 1
    return views


def leaky_privacy_distance(n_runs: int = 1000, seed=0) -> float:
    """Statistical distance real-view vs simulated-view (≈ 0: private)."""
    real = leaky_real_views(n_runs, seed)
    simulated = leaky_simulated_views(n_runs, (seed, "sim"))
    return statistical_distance(real, simulated)
