"""Payoff vectors ~γ and the classes Γfair, Γ+fair, Γ+C_fair (§3, §4.2).

A payoff vector assigns a real value γij to each fairness event Eij.  The
paper's natural class Γfair requires (after normalising γ01 := 0):

    0 = γ01 <= min{γ00, γ11}   and   max{γ00, γ11} < γ10,

i.e. the attacker's least preferred outcome is "only the honest parties
learn" and its favourite is "only I learn".  Γ+fair adds γ00 <= γ11 (the
attacker prefers learning over not learning), used throughout the
multi-party section.  Γ+C_fair extends a Γ+fair vector with per-set
corruption costs C(I) >= 0 entering the payoff negatively (Eq. (5)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Mapping, Union

from .events import FairnessEvent


@dataclass(frozen=True)
class PayoffVector:
    """~γ = (γ00, γ01, γ10, γ11)."""

    gamma00: float
    gamma01: float
    gamma10: float
    gamma11: float

    # -- class membership ---------------------------------------------------
    def in_gamma_fair(self) -> bool:
        """Membership in Γfair (after the wlog normalisation γ01 = 0)."""
        g = self.normalised()
        return (
            g.gamma01 == 0.0
            and g.gamma01 <= min(g.gamma00, g.gamma11)
            and max(g.gamma00, g.gamma11) < g.gamma10
        )

    def in_gamma_fair_plus(self) -> bool:
        """Membership in Γ+fair: additionally γ00 <= γ11."""
        return self.in_gamma_fair() and self.gamma00 <= self.gamma11

    def require_fair(self) -> "PayoffVector":
        if not self.in_gamma_fair():
            raise ValueError(f"{self} is not in Γfair")
        return self

    def require_fair_plus(self) -> "PayoffVector":
        if not self.in_gamma_fair_plus():
            raise ValueError(f"{self} is not in Γ+fair")
        return self

    # -- operations ----------------------------------------------------------
    def normalised(self) -> "PayoffVector":
        """Shift so that γ01 = 0 (the paper's wlog normalisation).

        Subtracting a constant from every entry leaves the induced fairness
        *relation* unchanged (it shifts every utility identically).
        """
        c = self.gamma01
        return PayoffVector(
            self.gamma00 - c,
            0.0,
            self.gamma10 - c,
            self.gamma11 - c,
        )

    def value(self, event: FairnessEvent) -> float:
        return {
            FairnessEvent.E00: self.gamma00,
            FairnessEvent.E01: self.gamma01,
            FairnessEvent.E10: self.gamma10,
            FairnessEvent.E11: self.gamma11,
            # Outside the paper's 2×2 grid: a hung honest party means
            # nobody learned, so it is valued like E00.
            FairnessEvent.HONEST_HUNG: self.gamma00,
        }[event]

    def expected(self, distribution: Mapping[FairnessEvent, float]) -> float:
        """U = Σ γij · Pr[Eij] (Eq. (1))."""
        total_prob = sum(distribution.values())
        if total_prob > 1.0 + 1e-9:
            raise ValueError("event probabilities exceed 1")
        return sum(self.value(e) * p for e, p in distribution.items())

    def as_tuple(self) -> tuple:
        return (self.gamma00, self.gamma01, self.gamma10, self.gamma11)

    def __str__(self) -> str:
        return (
            f"γ=(γ00={self.gamma00}, γ01={self.gamma01}, "
            f"γ10={self.gamma10}, γ11={self.gamma11})"
        )


#: The canonical vector used in examples: attacker gets 1 for the unfair
#: outcome, 1/2 for the fair "everyone learns" outcome, 0 otherwise.
STANDARD_GAMMA = PayoffVector(0.0, 0.0, 1.0, 0.5)

#: The vector that makes utility-based fairness imply 1/p-security
#: (Lemma 25): all payoff rides on the unfair event E10.
PARTIAL_FAIRNESS_GAMMA = PayoffVector(0.0, 0.0, 1.0, 0.0)


def gamma_fair_grid() -> list:
    """A small grid of Γfair vectors for sweeps."""
    grid = []
    for g00 in (0.0, 0.25, 0.5):
        for g11 in (0.0, 0.5, 0.75):
            for g10 in (1.0, 2.0):
                vec = PayoffVector(g00, 0.0, g10, g11)
                if vec.in_gamma_fair():
                    grid.append(vec)
    return grid


def gamma_fair_plus_grid() -> list:
    """Γ+fair vectors (γ00 <= γ11) for the multi-party sweeps."""
    return [g for g in gamma_fair_grid() if g.in_gamma_fair_plus()]


CostFunction = Callable[[FrozenSet[int]], float]


@dataclass(frozen=True)
class CostedPayoffVector:
    """~γ^C: a Γ+fair payoff vector plus corruption costs (Eq. (5)).

    ``cost`` maps a corrupted set I ⊆ [n] to C(I) >= 0.  For the
    count-only costs of Theorem 6 use :func:`count_cost`.
    """

    base: PayoffVector
    cost: CostFunction = field(compare=False)

    def in_gamma_fair_plus_c(self) -> bool:
        return self.base.in_gamma_fair_plus()

    def expected(
        self,
        event_distribution: Mapping[FairnessEvent, float],
        corruption_distribution: Mapping[FrozenSet[int], float],
    ) -> float:
        """U = Σ γij·Pr[Eij] − Σ C(I)·Pr[EI] (Eq. (5))."""
        base = self.base.expected(event_distribution)
        penalty = sum(
            self.cost(frozenset(i_set)) * p
            for i_set, p in corruption_distribution.items()
        )
        return base - penalty


def count_cost(c: Callable[[int], float]) -> CostFunction:
    """Lift a count-based cost c(t) to a set-based cost C(I) = c(|I|)."""

    def cost(i_set: FrozenSet[int]) -> float:
        return c(len(i_set))

    return cost


def zero_cost() -> CostFunction:
    return count_cost(lambda t: 0.0)
