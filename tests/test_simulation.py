"""Executable Theorem-3 simulator tests (Appendix A's SA, as a protocol)."""

import pytest

from repro.adversaries import (
    AbortAtRound,
    FunctionalityAborter,
    LockWatchingAborter,
    PassiveAdversary,
)
from repro.analysis import (
    IdealWorldOpt2Sfe,
    opt2sfe_outcome_distributions,
    statistical_distance,
)
from repro.core import FairnessEvent
from repro.crypto import Rng
from repro.engine import run_execution
from repro.functions import make_swap


STRATEGIES = {
    "passive": lambda c: PassiveAdversary({c}),
    "lock-watch": lambda c: LockWatchingAborter({c}),
    "abort@1": lambda c: AbortAtRound({c}, 1),
    "abort@2": lambda c: AbortAtRound({c}, 2),
    "func-abort": lambda c: FunctionalityAborter({c}, "F_sharegen2"),
    "refuse": lambda c: AbortAtRound({c}, 0, claim=False),
}


class TestIdealWorldConstruction:
    def test_validation(self):
        from repro.functions import make_concat

        with pytest.raises(ValueError):
            IdealWorldOpt2Sfe(make_concat(3, 8), 0)
        with pytest.raises(ValueError):
            IdealWorldOpt2Sfe(make_swap(8), 2)

    def test_honest_ideal_execution(self):
        """With a passive adversary the ideal world delivers correctly and
        SA provokes E11."""
        protocol = IdealWorldOpt2Sfe(make_swap(8), corrupted=0)
        result = run_execution(
            protocol, (3, 9), PassiveAdversary({0}), Rng(1)
        )
        assert result.outputs[1].value == 3  # honest p1's output
        assert protocol.last_coordinator.ideal_event is FairnessEvent.E11

    def test_refusal_maps_to_e01(self):
        protocol = IdealWorldOpt2Sfe(make_swap(8), corrupted=0)
        result = run_execution(
            protocol, (3, 9), AbortAtRound({0}, 0, claim=False), Rng(2)
        )
        assert result.outputs[1].kind == "default"
        assert protocol.last_coordinator.ideal_event is FairnessEvent.E01


class TestIndistinguishability:
    """For every scripted strategy, the real and simulated outcome
    distributions coincide up to Monte-Carlo noise — the executable
    content of 'SA is a good simulator for A'."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("corrupted", [0, 1])
    def test_distributions_match(self, name, corrupted):
        builder = lambda: STRATEGIES[name](corrupted)
        real, ideal, _ = opt2sfe_outcome_distributions(
            builder, corrupted, n_runs=300, seed=("sim", name, corrupted)
        )
        assert statistical_distance(real, ideal) <= 0.09

    def test_lock_watch_event_mix_matches_theorem3(self):
        """SA's event ledger for the lock-watcher: E10 and E11, about
        half/half — the exact case analysis of Theorem 3's proof."""
        _, _, events = opt2sfe_outcome_distributions(
            lambda: LockWatchingAborter({0}), 0, n_runs=400, seed="mix"
        )
        total = sum(events.values())
        assert set(events) == {FairnessEvent.E10, FairnessEvent.E11}
        assert abs(events[FairnessEvent.E10] / total - 0.5) < 0.09

    def test_simulator_payoff_respects_theorem3_bound(self):
        """SA's expected payoff (over its own event ledger) never exceeds
        (γ10 + γ11)/2 for any scripted strategy, whichever party it
        corrupts."""
        from repro.core import STANDARD_GAMMA

        for corrupted in (0, 1):
            for name, make in STRATEGIES.items():
                seed = ("pay", name) + ((corrupted,) if corrupted else ())
                _, _, events = opt2sfe_outcome_distributions(
                    lambda: make(corrupted), corrupted, n_runs=250, seed=seed
                )
                total = sum(events.values())
                payoff = sum(
                    STANDARD_GAMMA.value(e) * c / total
                    for e, c in events.items()
                )
                assert payoff <= 0.75 + 0.09, (name, corrupted)
