"""Integration tests: every headline quantitative claim of the paper,
measured end to end at moderate Monte-Carlo budgets (``repro verify``
checks the registry's version of each at a chosen budget)."""

import pytest

from repro.adversaries import (
    AdversaryFactory,
    LockWatchingAborter,
    RandomSingleCorruption,
    SignalDeviator,
    a1_strategy,
    a2_strategy,
    fixed,
)
from repro.analysis import (
    assess_protocol,
    balance_profile,
    build_order,
    estimate_utility,
    u_coin_contract,
    u_naive_contract,
    u_opt_2sfe,
    u_opt_nsfe,
)
from repro.core import (
    STANDARD_GAMMA,
    balanced_sum_bound,
    check_ideal_fairness,
    is_utility_balanced,
    monte_carlo_tolerance,
    no_strictly_dominated_cost_exists,
    optimal_cost_from_profile,
    per_t_bound,
)
from repro.functions import make_concat, make_contract_exchange, make_swap
from repro.gmw import ThresholdGmwProtocol
from repro.protocols import (
    CoinOrderedContractSigning,
    NaiveContractSigning,
    Opt2SfeProtocol,
    OptNSfeProtocol,
    SingleRoundProtocol,
    UnbalancedOptProtocol,
)

RUNS = 500
TOL = monte_carlo_tolerance(RUNS) + 0.02


def lock_watch_space(n):
    from repro.adversaries import corruption_sets

    return [
        fixed(f"lw{sorted(s)}", lambda s=s: LockWatchingAborter(set(s)))
        for s in corruption_sets(n)
    ]


class TestIntroExample:
    """§1: Π2 is twice as fair as Π1."""

    def test_relative_fairness(self):
        strategies = lock_watch_space(2)
        pi1 = assess_protocol(
            NaiveContractSigning(), strategies, STANDARD_GAMMA, RUNS, seed=1
        )
        pi2 = assess_protocol(
            CoinOrderedContractSigning(), strategies, STANDARD_GAMMA, RUNS, seed=1
        )
        assert pi1.utility == pytest.approx(u_naive_contract(STANDARD_GAMMA), abs=TOL)
        assert pi2.utility == pytest.approx(u_coin_contract(STANDARD_GAMMA), abs=TOL)
        order = build_order([pi1, pi2], tolerance=TOL)
        assert order.strictly_fairer("pi2-coin", "pi1-naive")


class TestTheorem3And4:
    """The two-party optimum (γ10+γ11)/2, attained and unimprovable."""

    def test_upper_bound_over_strategy_space(self):
        protocol = Opt2SfeProtocol(make_swap(16))
        from repro.adversaries import strategy_space_for_protocol

        assessment = assess_protocol(
            protocol,
            strategy_space_for_protocol(protocol),
            STANDARD_GAMMA,
            200,
            seed=2,
        )
        bound = u_opt_2sfe(STANDARD_GAMMA)
        assert assessment.utility <= bound + monte_carlo_tolerance(200) + 0.02

    def test_lower_bound_agen(self):
        protocol = Opt2SfeProtocol(make_swap(16))
        agen = AdversaryFactory(
            "a-gen", lambda rng: RandomSingleCorruption(2, rng)
        )
        est = estimate_utility(protocol, agen, STANDARD_GAMMA, RUNS, seed=3)
        assert est.mean >= u_opt_2sfe(STANDARD_GAMMA) - TOL

    def test_lemma7_pair_sums_to_the_fair_total_on_every_protocol(self):
        """u(Π, A1) + u(Π, A2) ≥ γ10 + γ11 for every swap protocol of the
        zoo; Agen mixes A1 and A2 evenly, so it collects half of that."""
        gamma = STANDARD_GAMMA
        runs = 200
        tol = monte_carlo_tolerance(runs) + 0.02
        for protocol in (
            Opt2SfeProtocol(make_swap(16)),
            SingleRoundProtocol(make_swap(16)),
            NaiveContractSigning(make_contract_exchange(16)),
            CoinOrderedContractSigning(make_contract_exchange(16)),
        ):
            total = sum(
                estimate_utility(
                    protocol, fixed(name, strategy), gamma, runs,
                    seed=(name, protocol.name),
                ).mean
                for name, strategy in (("a1", a1_strategy), ("a2", a2_strategy))
            )
            assert total >= gamma.gamma10 + gamma.gamma11 - 2 * tol, protocol

    def test_optimality_within_protocol_universe(self):
        strategies = lock_watch_space(2)
        swap = make_swap(16)
        assessments = [
            assess_protocol(p, strategies, STANDARD_GAMMA, RUNS, seed=4)
            for p in (
                Opt2SfeProtocol(swap),
                SingleRoundProtocol(swap),
            )
        ]
        order = build_order(assessments, tolerance=TOL)
        assert order.maximal_elements() == [f"opt-2sfe[{swap.name}]"]


class TestLemma11And13:
    """Multi-party per-t optimum (t·γ10 + (n−t)·γ11)/n."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_per_t_utilities(self, n):
        protocol = OptNSfeProtocol(make_concat(n, 8))
        for t in range(1, n):
            factory = fixed(
                f"lw{t}", lambda t=t: LockWatchingAborter(set(range(t)))
            )
            est = estimate_utility(protocol, factory, STANDARD_GAMMA, RUNS, seed=(5, t))
            assert est.mean == pytest.approx(
                u_opt_nsfe(STANDARD_GAMMA, n, t), abs=TOL
            )


class TestLemma14To17:
    """Utility balance: ΠOptnSFE attains the sum bound; Π½GMW (even n)
    overshoots."""

    def _profile(self, protocol, n, runs=300):
        factories_per_t = {
            t: [fixed(f"lw{t}", lambda t=t: LockWatchingAborter(set(range(t))))]
            for t in range(1, n)
        }
        return balance_profile(
            protocol, factories_per_t, STANDARD_GAMMA, n_runs=runs, seed=6
        )

    def test_opt_nsfe_is_balanced(self):
        n = 4
        profile = self._profile(OptNSfeProtocol(make_concat(n, 8)), n)
        bound = balanced_sum_bound(n, STANDARD_GAMMA)
        assert profile.utility_sum == pytest.approx(bound, abs=(n - 1) * TOL)
        assert is_utility_balanced(profile, tol=(n - 1) * TOL)

    def test_threshold_gmw_even_n_not_balanced(self):
        n = 4
        profile = self._profile(ThresholdGmwProtocol(make_concat(n, 8)), n)
        excess = (STANDARD_GAMMA.gamma10 - STANDARD_GAMMA.gamma11) / 2
        bound = balanced_sum_bound(n, STANDARD_GAMMA)
        assert profile.utility_sum == pytest.approx(bound + excess, abs=(n - 1) * TOL)
        # The Lemma-17 event profile is deterministic in t, so a small
        # tolerance suffices to certify the strict overshoot.
        assert profile.exceeds_balance_bound(tol=excess / 2)

    def test_threshold_gmw_odd_n_meets_bound(self):
        n = 5
        profile = self._profile(ThresholdGmwProtocol(make_concat(n, 8)), n)
        bound = balanced_sum_bound(n, STANDARD_GAMMA)
        assert profile.utility_sum == pytest.approx(bound, abs=(n - 1) * TOL)


class TestLemma18:
    """Optimal fairness does not imply utility balance."""

    def test_unbalanced_exceeds_sum_bound(self):
        n = 4
        protocol = UnbalancedOptProtocol(make_concat(n, 8))
        factories_per_t = {
            t: [
                fixed(f"lw{t}", lambda t=t: LockWatchingAborter(set(range(t)))),
                fixed(f"sd{t}", lambda t=t: SignalDeviator(set(range(t)))),
            ]
            for t in range(1, n)
        }
        profile = balance_profile(
            protocol, factories_per_t, STANDARD_GAMMA, n_runs=400, seed=7
        )
        assert profile.exceeds_balance_bound(
            tol=(n - 1) * monte_carlo_tolerance(400)
        )

    def test_but_optimal_at_n_minus_1(self):
        """The (n−1)-adversary still tops out at ΠOptnSFE's level, so the
        protocol remains optimally fair."""
        n = 4
        protocol = UnbalancedOptProtocol(make_concat(n, 8))
        best = max(
            estimate_utility(
                protocol,
                fixed("a", lambda cls=cls: cls(set(range(n - 1)))),
                STANDARD_GAMMA,
                RUNS,
                seed=8,
            ).mean
            for cls in (LockWatchingAborter, SignalDeviator)
        )
        assert best == pytest.approx(
            u_opt_nsfe(STANDARD_GAMMA, n, n - 1), abs=TOL
        )


class TestTheorem6:
    """Utility-balanced ⇒ ideally γC-fair under c(t) = u(Π, A_t) − s(t)."""

    def test_ideal_fairness_with_derived_cost(self):
        n = 4
        protocol = OptNSfeProtocol(make_concat(n, 8))
        factories_per_t = {
            t: [fixed(f"lw{t}", lambda t=t: LockWatchingAborter(set(range(t))))]
            for t in range(1, n)
        }
        profile = balance_profile(
            protocol, factories_per_t, STANDARD_GAMMA, n_runs=300, seed=9
        )
        cost = optimal_cost_from_profile(profile)
        check = check_ideal_fairness(profile, cost, tol=0.02)
        assert check.holds(tol=0.02)
        # The derived cost matches the analytic φ(t) − γ11.
        for t in range(1, n):
            expected = per_t_bound(n, t, STANDARD_GAMMA) - STANDARD_GAMMA.gamma11
            assert cost(t) == pytest.approx(expected, abs=2 * TOL)
        # Theorem 6(2): Π½GMW's derived cost is cheaper below n/2 only,
        # so it does not strictly dominate.
        competitor = balance_profile(
            ThresholdGmwProtocol(make_concat(n, 8)), factories_per_t,
            STANDARD_GAMMA, n_runs=300, seed=10,
        )
        assert no_strictly_dominated_cost_exists(profile, [competitor], tol=TOL)
