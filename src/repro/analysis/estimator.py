"""Monte-Carlo estimation of attacker utilities.

The estimator runs a protocol against an adversary strategy many times,
classifies each execution into its fairness event (protocol-specific
classifier first, generic Fsfe⊥ classifier otherwise), and folds the event
frequencies with a payoff vector into a :class:`UtilityEstimate` carrying
Wilson confidence intervals.

All execution is routed through the batch runtime (``repro.runtime``):
each (protocol, strategy) pair becomes an :class:`ExecutionTask`, and the
selected :class:`BatchRunner` decides whether the runs happen in-process
or fan out over a worker pool.  ``jobs=None`` defers to the ``REPRO_JOBS``
environment variable; serial and parallel backends are bit-identical for
the same seed.  Strategy sweeps submit every (strategy, chunk) pair to one
pool so parallelism spans both axes.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from ..adversaries.search import AdversaryFactory
from ..core.balance import BalanceProfile
from ..core.fairness import ProtocolAssessment, assess
from ..core.payoff import PayoffVector
from ..core.utility import (
    EventCounts,
    UtilityEstimate,
    best_utility,
    estimate_from_counts,
)
from ..crypto.prf import Rng
from ..runtime import (
    BatchRunner,
    EarlyStopRule,
    ExecutionTask,
    MeasuredCounts,
    resolve_runner,
)

InputSampler = Callable[[Rng], tuple]


def _runner_for(runner: Optional[BatchRunner], jobs: Optional[int]) -> BatchRunner:
    return runner if runner is not None else resolve_runner(jobs)


def run_batch(
    protocol,
    adversary_factory: AdversaryFactory,
    n_runs: int,
    seed=0,
    input_sampler: Optional[InputSampler] = None,
    jobs: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
    early_stop: Optional[EarlyStopRule] = None,
) -> EventCounts:
    """Run ``n_runs`` executions, returning the event counts.

    The result is a :class:`~repro.runtime.MeasuredCounts` — an
    :class:`EventCounts` that carries the batch's :class:`RunStats`
    (wall clock, executions/sec, backend, retry/degradation counters) as
    an explicit ``run_stats`` attribute rather than a monkey-patched one,
    so it survives pickling; merging folds back into plain event counts.
    """
    if n_runs <= 0:
        raise ValueError("need at least one run")
    task = ExecutionTask(protocol, adversary_factory, n_runs, seed, input_sampler)
    active = _runner_for(runner, jobs)
    counts = active.run_one(task, early_stop=early_stop)
    return MeasuredCounts(counts, active.last_stats)


def estimate_utility(
    protocol,
    adversary_factory: AdversaryFactory,
    gamma: PayoffVector,
    n_runs: int = 400,
    seed=0,
    input_sampler: Optional[InputSampler] = None,
    cost=None,
    jobs: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
    early_stop: Optional[EarlyStopRule] = None,
) -> UtilityEstimate:
    """Estimate u_A(Π, A) for one strategy."""
    counts = run_batch(
        protocol,
        adversary_factory,
        n_runs,
        seed,
        input_sampler,
        jobs=jobs,
        runner=runner,
        early_stop=early_stop,
    )
    return estimate_from_counts(
        counts,
        gamma,
        protocol=protocol.name,
        adversary=getattr(adversary_factory, "name", "adversary"),
        cost=cost,
    )


def sweep_strategies(
    protocol,
    factories: Iterable[AdversaryFactory],
    gamma: PayoffVector,
    n_runs: int = 400,
    seed=0,
    input_sampler: Optional[InputSampler] = None,
    jobs: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
    early_stop: Optional[EarlyStopRule] = None,
) -> List[UtilityEstimate]:
    """Estimate the utility of every strategy in a space.

    All strategies are submitted to the runner as one batch, so a pool
    backend interleaves chunks across strategies ("strategies × chunks").
    """
    factories = list(factories)
    tasks = [
        ExecutionTask(protocol, factory, n_runs, (seed, idx), input_sampler)
        for idx, factory in enumerate(factories)
    ]
    active = _runner_for(runner, jobs)
    counts_per_strategy = active.run(tasks, early_stop=early_stop)
    return [
        estimate_from_counts(
            counts,
            gamma,
            protocol=protocol.name,
            adversary=getattr(factory, "name", "adversary"),
        )
        for factory, counts in zip(factories, counts_per_strategy)
    ]


def assess_protocol(
    protocol,
    factories: Iterable[AdversaryFactory],
    gamma: PayoffVector,
    n_runs: int = 400,
    seed=0,
    input_sampler: Optional[InputSampler] = None,
    jobs: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
    early_stop: Optional[EarlyStopRule] = None,
) -> ProtocolAssessment:
    """sup over the strategy space → a ProtocolAssessment (Definition 1)."""
    estimates = sweep_strategies(
        protocol,
        factories,
        gamma,
        n_runs,
        seed,
        input_sampler,
        jobs=jobs,
        runner=runner,
        early_stop=early_stop,
    )
    return assess(protocol.name, gamma, estimates)


def balance_profile(
    protocol,
    factories_per_t: dict,
    gamma: PayoffVector,
    n_runs: int = 400,
    seed=0,
    input_sampler: Optional[InputSampler] = None,
    jobs: Optional[int] = None,
    runner: Optional[BatchRunner] = None,
    early_stop: Optional[EarlyStopRule] = None,
) -> BalanceProfile:
    """Measure the best t-adversary's utility for each t in 1..n−1.

    ``factories_per_t[t]`` is the list of t-corruption strategies to sweep.
    Every (t, strategy) batch is fanned out in a single runner call.
    ``input_sampler`` and ``early_stop`` pass through to the tasks/runner
    exactly as in every sibling estimator entry point.
    """
    n = protocol.n_parties
    tasks, keys = [], []
    for t in range(1, n):
        for idx, factory in enumerate(factories_per_t[t]):
            tasks.append(
                ExecutionTask(
                    protocol, factory, n_runs, ((seed, "t", t), idx), input_sampler
                )
            )
            keys.append((t, factory))
    active = _runner_for(runner, jobs)
    counts_list = active.run(tasks, early_stop=early_stop)
    estimates_per_t: dict = {}
    for (t, factory), counts in zip(keys, counts_list):
        estimates_per_t.setdefault(t, []).append(
            estimate_from_counts(
                counts,
                gamma,
                protocol=protocol.name,
                adversary=getattr(factory, "name", "adversary"),
            )
        )
    per_t = {t: best_utility(ests) for t, ests in estimates_per_t.items()}
    return BalanceProfile(
        protocol_name=protocol.name, n=n, gamma=gamma, per_t=per_t
    )
