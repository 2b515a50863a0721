"""The fairness partial order and optimal fairness (Definitions 1 and 2).

Π ⪯γ Π' ("Π is at least as γ-fair as Π'") iff the best attacker against Π
obtains no more utility than the best attacker against Π', up to negligible
slack.  On measured data the negligible slack becomes the statistical
tolerance carried by the :class:`UtilityEstimate`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .payoff import PayoffVector
from .utility import UtilityEstimate, best_utility


@dataclass(frozen=True)
class ProtocolAssessment:
    """A protocol together with its measured best-attacker utility."""

    protocol_name: str
    gamma: PayoffVector
    best_attack: UtilityEstimate

    @property
    def utility(self) -> float:
        return self.best_attack.mean


class Comparison(Enum):
    """Outcome of comparing two protocols under ⪯γ."""

    FAIRER = "fairer"  # strictly fairer (strictly lower best-attack utility)
    EQUAL = "equally-fair"
    LESS_FAIR = "less-fair"
    INCOMPARABLE = "incomparable"  # CIs overlap but neither dominates


def at_least_as_fair(
    a: ProtocolAssessment, b: ProtocolAssessment, tol: float = 0.0
) -> bool:
    """Definition 1: Π_a ⪯γ Π_b up to tolerance."""
    _require_same_gamma(a, b)
    return a.utility <= b.utility + tol


def compare(
    a: ProtocolAssessment, b: ProtocolAssessment, tol: float = 0.0
) -> Comparison:
    """Classify the relative fairness of two assessed protocols.

    Uses the confidence intervals: a is strictly fairer when its CI lies
    wholly below b's (beyond the tolerance); equal when the point estimates
    agree within tolerance.
    """
    _require_same_gamma(a, b)
    if abs(a.utility - b.utility) <= tol:
        return Comparison.EQUAL
    if a.best_attack.ci_high + tol < b.best_attack.ci_low:
        return Comparison.FAIRER
    if b.best_attack.ci_high + tol < a.best_attack.ci_low:
        return Comparison.LESS_FAIR
    if a.utility < b.utility:
        return Comparison.FAIRER if a.utility + tol < b.utility else Comparison.EQUAL
    return Comparison.LESS_FAIR if b.utility + tol < a.utility else Comparison.EQUAL


def is_optimally_fair(
    candidate: ProtocolAssessment,
    others: Iterable[ProtocolAssessment],
    tol: float = 0.0,
) -> bool:
    """Definition 2 restricted to an assessed universe of protocols.

    (True optimality quantifies over *all* protocols; the paper's theorems
    pin the optimum analytically, and the claims and tests check the candidate
    attains it among every implemented competitor.)
    """
    return all(at_least_as_fair(candidate, other, tol) for other in others)


def assess(
    protocol_name: str,
    gamma: PayoffVector,
    attack_estimates: Iterable[UtilityEstimate],
) -> ProtocolAssessment:
    """Fold per-adversary estimates into the sup over attackers."""
    best = best_utility(attack_estimates)
    if best is None:
        raise ValueError("no attack estimates supplied")
    return ProtocolAssessment(protocol_name, gamma, best)


def _require_same_gamma(a: ProtocolAssessment, b: ProtocolAssessment) -> None:
    if a.gamma != b.gamma:
        raise ValueError(
            "fairness comparison requires the same payoff vector; "
            f"got {a.gamma} vs {b.gamma}"
        )
