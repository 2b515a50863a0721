"""Fairness relation, utility estimates, balance, and corruption-cost tests
(Definitions 1, 2, 5, 19-21; Theorem 6; Lemma 22)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BalanceProfile,
    Comparison,
    EventCounts,
    FairnessEvent,
    PayoffVector,
    ProtocolAssessment,
    STANDARD_GAMMA,
    UtilityEstimate,
    assess,
    at_least_as_fair,
    balanced_sum_bound,
    best_utility,
    check_ideal_fairness,
    compare,
    cost_from_phi,
    dominates,
    estimate_from_counts,
    ideal_payoff,
    is_optimally_fair,
    is_phi_fair,
    is_utility_balanced,
    optimal_cost_from_profile,
    optimal_phi,
    per_t_bound,
    strictly_dominates,
    wilson_interval,
)


def estimate(mean, n=1000, lo=None, hi=None, protocol="p", adversary="a"):
    return UtilityEstimate(
        mean=mean,
        ci_low=lo if lo is not None else mean - 0.02,
        ci_high=hi if hi is not None else mean + 0.02,
        n_runs=n,
        event_distribution={},
        protocol=protocol,
        adversary=adversary,
    )


def assessment(name, utility, gamma=STANDARD_GAMMA):
    return ProtocolAssessment(name, gamma, estimate(utility, protocol=name))


class TestEventCounts:
    def test_record_and_distribution(self):
        counts = EventCounts()
        for _ in range(3):
            counts.record(FairnessEvent.E10, {0})
        counts.record(FairnessEvent.E11, {0})
        dist = counts.distribution()
        assert dist[FairnessEvent.E10] == pytest.approx(0.75)
        assert counts.total == 4
        assert counts.corruption_distribution()[frozenset({0})] == 1.0

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            EventCounts().distribution()

    def test_estimate_from_counts(self):
        counts = EventCounts()
        for _ in range(50):
            counts.record(FairnessEvent.E10, {0})
        for _ in range(50):
            counts.record(FairnessEvent.E11, {0})
        est = estimate_from_counts(counts, STANDARD_GAMMA, "p", "a")
        assert est.mean == pytest.approx(0.75)
        assert est.ci_low <= est.mean <= est.ci_high

    def test_estimate_with_cost(self):
        counts = EventCounts()
        for _ in range(10):
            counts.record(FairnessEvent.E11, {0, 1})
        est = estimate_from_counts(
            counts, STANDARD_GAMMA, cost=lambda s: 0.1 * len(s)
        )
        assert est.mean == pytest.approx(0.5 - 0.2)
        assert est.cost_mean == pytest.approx(0.2)

    def test_hung_event_pays_gamma00(self):
        gamma = PayoffVector(0.3, 0.0, 1.0, 0.5)
        assert gamma.value(FairnessEvent.HONEST_HUNG) == gamma.gamma00
        counts = EventCounts()
        for _ in range(4):
            counts.record(FairnessEvent.HONEST_HUNG, frozenset({0}))
        estimate = estimate_from_counts(counts, gamma)
        assert estimate.mean == pytest.approx(0.3)


class TestWilson:
    def test_contains_proportion(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.1
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.9

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    @given(st.integers(1, 500), st.integers(0, 500))
    @settings(max_examples=30)
    def test_interval_ordered(self, n, k):
        k = min(k, n)
        lo, hi = wilson_interval(k, n)
        eps = 1e-12
        assert 0.0 <= lo <= k / n + eps
        assert k / n - eps <= hi <= 1.0


class TestFairnessRelation:
    def test_at_least_as_fair(self):
        a = assessment("a", 0.75)
        b = assessment("b", 1.0)
        assert at_least_as_fair(a, b)
        assert not at_least_as_fair(b, a)

    def test_compare_strict(self):
        a = assessment("a", 0.5)
        b = assessment("b", 1.0)
        assert compare(a, b) is Comparison.FAIRER
        assert compare(b, a) is Comparison.LESS_FAIR

    def test_compare_equal_within_tolerance(self):
        a = assessment("a", 0.74)
        b = assessment("b", 0.76)
        assert compare(a, b, tol=0.05) is Comparison.EQUAL

    def test_gamma_mismatch_rejected(self):
        a = assessment("a", 0.5)
        b = ProtocolAssessment(
            "b", PayoffVector(0, 0, 2.0, 0.5), estimate(0.6)
        )
        with pytest.raises(ValueError):
            compare(a, b)

    def test_optimality_within_universe(self):
        opt = assessment("opt", 0.75)
        others = [assessment("x", 1.0), assessment("y", 0.9)]
        assert is_optimally_fair(opt, others)
        assert not is_optimally_fair(others[0], [opt])

    def test_assess_takes_sup(self):
        estimates = [estimate(0.3, adversary="w"), estimate(0.9, adversary="s")]
        result = assess("p", STANDARD_GAMMA, estimates)
        assert result.utility == 0.9
        assert result.best_attack.adversary == "s"

    def test_assess_empty_rejected(self):
        with pytest.raises(ValueError):
            assess("p", STANDARD_GAMMA, [])

    def test_best_utility_empty(self):
        assert best_utility([]) is None


class TestBalance:
    def test_bound_formula(self):
        # (n−1)(γ10+γ11)/2 with γ10=1, γ11=0.5 and n=5: 4·1.5/2 = 3.
        assert balanced_sum_bound(5, STANDARD_GAMMA) == pytest.approx(3.0)

    def test_per_t_bound(self):
        assert per_t_bound(5, 2, STANDARD_GAMMA) == pytest.approx(
            (2 * 1.0 + 3 * 0.5) / 5
        )
        with pytest.raises(ValueError):
            per_t_bound(5, 5, STANDARD_GAMMA)

    def _profile(self, utilities, n=5):
        per_t = {
            t: estimate(u, protocol="p", adversary=f"t={t}")
            for t, u in utilities.items()
        }
        return BalanceProfile("p", n, STANDARD_GAMMA, per_t)

    def test_optimal_profile_is_balanced(self):
        utilities = {t: per_t_bound(5, t, STANDARD_GAMMA) for t in range(1, 5)}
        profile = self._profile(utilities)
        assert profile.utility_sum == pytest.approx(
            balanced_sum_bound(5, STANDARD_GAMMA)
        )
        assert is_utility_balanced(profile, tol=0.01)
        assert not profile.exceeds_balance_bound(tol=0.01)

    def test_gmw_even_profile_not_balanced(self):
        # n = 4: t=1 -> γ11, t in {2,3} -> γ10.
        profile = self._profile({1: 0.5, 2: 1.0, 3: 1.0}, n=4)
        assert profile.exceeds_balance_bound(tol=0.01)
        assert not is_utility_balanced(profile, tol=0.01)

    def test_profile_requires_all_t(self):
        with pytest.raises(ValueError):
            self._profile({1: 0.5}, n=4)

    def test_phi_fairness(self):
        utilities = {t: per_t_bound(5, t, STANDARD_GAMMA) for t in range(1, 5)}
        profile = self._profile(utilities)
        assert is_phi_fair(profile, optimal_phi(5, STANDARD_GAMMA), tol=0.01)
        assert not is_phi_fair(profile, lambda t: 0.0, tol=0.01)

    def test_phi_extraction(self):
        profile = self._profile({1: 0.6, 2: 0.7, 3: 0.8, 4: 0.9})
        phi = profile.phi()
        assert phi(2) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            phi(5)


class TestCorruptionCosts:
    def test_ideal_payoff(self):
        assert ideal_payoff(STANDARD_GAMMA, 0, 5) == 0.0
        assert ideal_payoff(STANDARD_GAMMA, 3, 5) == 0.5
        assert ideal_payoff(STANDARD_GAMMA, 5, 5) == 0.5
        with pytest.raises(ValueError):
            ideal_payoff(STANDARD_GAMMA, 6, 5)

    def test_dominance(self):
        c_high = lambda t: 0.5
        c_low = lambda t: 0.1
        assert dominates(c_high, c_low, 4)
        assert strictly_dominates(c_high, c_low, 4)
        assert not strictly_dominates(c_low, c_high, 4)
        assert dominates(c_high, c_high, 4)
        assert not strictly_dominates(c_high, c_high, 4)

    def test_cost_from_phi(self):
        phi = optimal_phi(5, STANDARD_GAMMA)
        cost = cost_from_phi(phi, STANDARD_GAMMA, 5)
        # c(t) = φ(t) − γ11.
        assert cost(2) == pytest.approx(per_t_bound(5, 2, STANDARD_GAMMA) - 0.5)
        assert cost(5) == 0.0

    def test_ideal_fairness_check(self):
        utilities = {t: per_t_bound(5, t, STANDARD_GAMMA) for t in range(1, 5)}
        per_t = {t: estimate(u) for t, u in utilities.items()}
        profile = BalanceProfile("p", 5, STANDARD_GAMMA, per_t)
        cost = optimal_cost_from_profile(profile)
        check = check_ideal_fairness(profile, cost, tol=0.01)
        assert check.holds(tol=0.01)
        # With zero cost the protocol is NOT ideally fair (the t-adversary
        # beats the dummy protocol's γ11 whenever t·γ10 is large enough).
        check_zero = check_ideal_fairness(profile, lambda t: 0.0)
        assert not check_zero.holds(tol=0.01)
