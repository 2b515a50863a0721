"""Estimator convergence diagnostics.

Every fairness claim in this library is a Monte-Carlo estimate; choosing
the run budget is a precision decision.  These helpers chart how an
estimate and its confidence interval tighten with the budget, and pick the
budget needed to separate two analytic values — for choosing claim
budgets and tolerances, and for users calibrating their own sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..core.payoff import PayoffVector
from .estimator import estimate_utility


@dataclass(frozen=True)
class ConvergencePoint:
    n_runs: int
    mean: float
    ci_width: float


def convergence_curve(
    protocol,
    adversary_factory,
    gamma: PayoffVector,
    budgets: Sequence[int] = (50, 100, 200, 400, 800),
    seed=0,
    jobs=None,
    runner=None,
) -> List[ConvergencePoint]:
    """Estimate at increasing budgets; CI width should shrink ~1/√n.

    ``jobs``/``runner`` select the batch backend (see ``repro.runtime``).
    """
    from ..runtime import resolve_runner

    active = runner if runner is not None else resolve_runner(jobs)
    points = []
    for n_runs in budgets:
        est = estimate_utility(
            protocol,
            adversary_factory,
            gamma,
            n_runs,
            seed=(seed, n_runs),
            runner=active,
        )
        points.append(
            ConvergencePoint(
                n_runs=n_runs,
                mean=est.mean,
                ci_width=est.ci_high - est.ci_low,
            )
        )
    return points


def runs_to_separate(
    value_a: float,
    value_b: float,
    payoff_spread: float = 1.0,
    z: float = 3.0,
) -> int:
    """Smallest run budget that statistically separates two utilities.

    Conservative normal approximation: the tolerance z·spread/(2·√n) must
    fall below half the gap between the analytic values.
    """
    gap = abs(value_a - value_b)
    if gap <= 0:
        raise ValueError("the values coincide; no budget separates them")
    half_gap = gap / 2.0
    n = (z * payoff_spread / (2.0 * half_gap)) ** 2
    return max(1, math.ceil(n))


def is_converging(points: Sequence[ConvergencePoint], factor: float = 1.5) -> bool:
    """Sanity check: CI width at the largest budget is at least ``factor``
    times tighter than at the smallest (≈ √(budget ratio) expected)."""
    if len(points) < 2:
        raise ValueError("need at least two budgets")
    first, last = points[0], points[-1]
    if first.ci_width == 0:
        return True
    return first.ci_width / max(last.ci_width, 1e-12) >= factor
