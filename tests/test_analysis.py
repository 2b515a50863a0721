"""Analysis layer: estimator, analytic values, comparison, reports."""

import pytest

from repro.adversaries import LockWatchingAborter, PassiveAdversary, fixed
from repro.analysis import (
    FairnessOrder,
    assess_protocol,
    balance_profile,
    build_order,
    estimate_utility,
    format_table,
    run_batch,
    sweep_strategies,
    u_coin_contract,
    u_dummy,
    u_naive_contract,
    u_opt_2sfe,
    u_opt_nsfe,
    u_single_round,
    u_threshold_gmw,
    u_unbalanced_opt,
)
from repro.analysis.analytic import (
    gk_fixed_round_win_probability,
    gk_known_output_e10,
    gk_known_output_win_probability,
    threshold_gmw_balance_sum,
)
from repro.core import (
    FairnessEvent,
    PayoffVector,
    STANDARD_GAMMA,
    balanced_sum_bound,
    monte_carlo_tolerance,
)
from repro.functions import make_swap
from repro.protocols import NaiveContractSigning, Opt2SfeProtocol


class TestEstimator:
    def test_run_batch_counts(self):
        protocol = NaiveContractSigning()
        counts = run_batch(
            protocol, fixed("l1", lambda: LockWatchingAborter({1})), 40, seed=1
        )
        assert counts.total == 40
        assert counts.counts[FairnessEvent.E10] == 40

    def test_run_batch_needs_runs(self):
        with pytest.raises(ValueError):
            run_batch(NaiveContractSigning(), fixed("p", PassiveAdversary), 0)

    def test_estimate_deterministic_given_seed(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        factory = fixed("l0", lambda: LockWatchingAborter({0}))
        a = estimate_utility(protocol, factory, STANDARD_GAMMA, 50, seed=3)
        b = estimate_utility(protocol, factory, STANDARD_GAMMA, 50, seed=3)
        assert a.mean == b.mean

    def test_sweep_and_assess(self):
        protocol = NaiveContractSigning()
        factories = [
            fixed("passive", lambda: PassiveAdversary({0})),
            fixed("lock1", lambda: LockWatchingAborter({1})),
        ]
        estimates = sweep_strategies(
            protocol, factories, STANDARD_GAMMA, 30, seed=2
        )
        assert len(estimates) == 2
        assessment = assess_protocol(
            protocol, factories, STANDARD_GAMMA, 30, seed=2
        )
        assert assessment.best_attack.adversary == "lock1"
        assert assessment.utility == pytest.approx(1.0)

    def test_balance_profile(self):
        from repro.functions import make_concat
        from repro.protocols import OptNSfeProtocol

        n = 3
        protocol = OptNSfeProtocol(make_concat(n, 8))
        factories_per_t = {
            t: [fixed(f"lw{t}", lambda t=t: LockWatchingAborter(set(range(t))))]
            for t in range(1, n)
        }
        profile = balance_profile(
            protocol, factories_per_t, STANDARD_GAMMA, n_runs=200, seed=4
        )
        assert set(profile.per_t) == {1, 2}
        bound = balanced_sum_bound(n, STANDARD_GAMMA)
        assert profile.utility_sum == pytest.approx(bound, abs=0.2)


class TestAnalyticValues:
    def test_two_party_values(self):
        g = STANDARD_GAMMA
        assert u_naive_contract(g) == 1.0
        assert u_coin_contract(g) == 0.75
        assert u_opt_2sfe(g) == 0.75
        assert u_single_round(g) == 1.0

    def test_coin_contract_with_large_gamma00(self):
        g = PayoffVector(0.9, 0.0, 1.0, 0.5)
        # Aborting the coin (γ00 = 0.9) beats the (1+0.9)/2 = 0.95? No:
        # lock-watching with the γ00 fallback yields (1 + 0.9)/2 = 0.95.
        assert u_coin_contract(g) == pytest.approx(0.95)

    def test_dummy_values(self):
        g = STANDARD_GAMMA
        assert u_dummy(g, 0, 5) == 0.0
        assert u_dummy(g, 3, 5) == 0.5

    def test_multiparty_values(self):
        g = STANDARD_GAMMA
        assert u_opt_nsfe(g, 5, 1) == pytest.approx(0.6)
        assert u_opt_nsfe(g, 5, 4) == pytest.approx(0.9)
        with pytest.raises(ValueError):
            u_opt_nsfe(g, 5, 5)

    def test_threshold_gmw_profile(self):
        g = STANDARD_GAMMA
        assert u_threshold_gmw(g, 5, 2) == 0.5
        assert u_threshold_gmw(g, 5, 3) == 1.0
        assert u_threshold_gmw(g, 4, 2) == 1.0

    def test_threshold_gmw_balance_sums(self):
        g = STANDARD_GAMMA
        # Odd n attains the bound exactly.
        assert threshold_gmw_balance_sum(g, 5) == pytest.approx(
            balanced_sum_bound(5, g)
        )
        # Even n exceeds it by (γ10 − γ11)/2.
        assert threshold_gmw_balance_sum(g, 4) == pytest.approx(
            balanced_sum_bound(4, g) + 0.25
        )

    def test_unbalanced_profile(self):
        g = STANDARD_GAMMA
        n = 4
        assert u_unbalanced_opt(g, n, 3) == u_opt_nsfe(g, n, 3)
        assert u_unbalanced_opt(g, n, 1) > u_opt_nsfe(g, n, 1)

    def test_gk_win_probabilities(self):
        assert gk_known_output_win_probability(0.125, 0.5) == pytest.approx(
            0.125 / (1 - 0.875 * 0.5)
        )
        assert gk_known_output_e10(0.125, 0.5, 0.5) == pytest.approx(
            0.5 * 0.125 / (1 - 0.875 * 0.5)
        )
        assert gk_fixed_round_win_probability(0.25, 0) == 0.25
        assert gk_fixed_round_win_probability(0.25, 2) == pytest.approx(
            0.25 * 0.75**2
        )
        with pytest.raises(ValueError):
            gk_known_output_win_probability(0.0, 0.5)


class TestComparison:
    def _assessments(self):
        from repro.core import ProtocolAssessment, UtilityEstimate

        def make(name, u):
            est = UtilityEstimate(
                mean=u, ci_low=u - 0.01, ci_high=u + 0.01, n_runs=1000,
                event_distribution={}, protocol=name, adversary="best",
            )
            return ProtocolAssessment(name, STANDARD_GAMMA, est)

        return [make("opt", 0.75), make("naive", 1.0), make("also-opt", 0.752)]

    def test_order_and_maximal(self):
        order = build_order(self._assessments(), tolerance=0.02)
        assert set(order.maximal_elements()) == {"opt", "also-opt"}
        assert order.strictly_fairer("opt", "naive")
        assert not order.strictly_fairer("naive", "opt")

    def test_equivalence_classes(self):
        order = build_order(self._assessments(), tolerance=0.02)
        classes = order.equivalence_classes()
        assert sorted(classes[0]) == ["also-opt", "opt"]
        assert classes[1] == ["naive"]

    def test_hasse_edges(self):
        order = build_order(self._assessments(), tolerance=0.02)
        edges = order.hasse_edges()
        assert len(edges) == 1
        assert edges[0][1] == "naive"

    def test_render_contains_everything(self):
        text = build_order(self._assessments(), tolerance=0.02).render()
        assert "optimally fair" in text and "naive" in text

    def test_duplicate_names_rejected(self):
        assessments = self._assessments()
        with pytest.raises(ValueError):
            FairnessOrder(assessments + [assessments[0]])


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_monte_carlo_tolerance(self):
        assert monte_carlo_tolerance(400) == pytest.approx(0.075)
        with pytest.raises(ValueError):
            monte_carlo_tolerance(0)
