"""Tests for the claims-registry verification subsystem."""

import json
import math

import pytest

from repro.analysis import (
    deterministic_payload,
    report_to_dict,
    threshold_gmw_balance_sum,
    threshold_gmw_overshoot,
)
from repro.core import STANDARD_GAMMA, PayoffVector, balanced_sum_bound
from repro.runtime import ProcessPoolRunner, SerialRunner
from repro.verify import (
    BoundKind,
    Claim,
    ClaimConfigError,
    ClaimContext,
    ClaimRegistry,
    DifferentialMismatch,
    Measurement,
    TolerancePolicy,
    Verdict,
    assert_agreement,
    check_claim,
    compare,
    confidence_interval,
    default_registry,
    hoeffding_halfwidth,
    resolve_budget,
    verify_claims,
)


def make_claim(kind, analytic, measurement, tolerance=None, claim_id="T1"):
    return Claim(
        claim_id=claim_id,
        experiment="T",
        paper_ref="test",
        statement="synthetic",
        kind=kind,
        analytic=lambda: analytic,
        measure=lambda ctx: measurement,
        tolerance=tolerance or TolerancePolicy(slack=0.02, z=3.0),
        base_runs=32,
    )


class TestRegistry:
    def test_at_least_twelve_distinct_experiments(self):
        registry = default_registry()
        assert len(registry.experiments()) >= 12
        assert len(registry) >= 12

    def test_every_claim_has_both_sides_and_a_paper_ref(self):
        for claim in default_registry():
            assert callable(claim.analytic)
            assert callable(claim.measure)
            assert claim.paper_ref
            assert claim.statement
            assert isinstance(claim.kind, BoundKind)
            # The analytic side must evaluate without running anything.
            assert isinstance(float(claim.analytic()), float)

    def test_selection_by_experiment_and_id(self):
        registry = default_registry()
        e1 = registry.select("E1")
        assert {c.experiment for c in e1} == {"E1"}
        assert len(e1) >= 2
        both = registry.select("E2,E3")
        assert [c.claim_id for c in both] == ["E2", "E3"]
        single = registry.select("E10-rounds")
        assert len(single) == 1
        # Duplicates collapse.
        assert len(registry.select("E2,E2,E2")) == 1

    def test_select_all_and_errors(self):
        registry = default_registry()
        assert len(registry.select("all")) == len(registry)
        with pytest.raises(ClaimConfigError):
            registry.select("E99")
        with pytest.raises(ClaimConfigError):
            registry.select("")
        with pytest.raises(ClaimConfigError):
            registry.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = ClaimRegistry()
        claim = make_claim(BoundKind.UPPER, 1.0, Measurement.exact(1.0))
        registry.register(claim)
        with pytest.raises(ClaimConfigError):
            registry.register(claim)

    def test_budget_resolution(self):
        assert resolve_budget("small") == 0.25
        assert resolve_budget("medium") == 1.0
        assert resolve_budget("large") == 4.0
        assert resolve_budget(100) == 0.5
        assert resolve_budget("400") == 2.0
        with pytest.raises(ClaimConfigError):
            resolve_budget("huge")
        with pytest.raises(ClaimConfigError):
            resolve_budget(0)

    def test_context_run_floor(self):
        ctx = ClaimContext(seed="s", scale=0.01)
        assert ctx.runs(100) == 32  # MIN_RUNS floor
        assert ClaimContext(seed="s", scale=2.0).runs(100) == 200


class TestIntervals:
    def test_hoeffding_shrinks_with_n(self):
        wide = hoeffding_halfwidth(10)
        narrow = hoeffding_halfwidth(1000)
        assert 0 < narrow < wide
        assert hoeffding_halfwidth(0) == 0.0
        with pytest.raises(ValueError):
            hoeffding_halfwidth(10, delta=0.0)

    def test_hoeffding_closed_form(self):
        expected = 2.0 * math.sqrt(math.log(2 / 0.05) / (2 * 50))
        assert hoeffding_halfwidth(50, spread=2.0, delta=0.05) == pytest.approx(
            expected
        )

    def test_exact_measurement_degenerate_interval(self):
        assert confidence_interval(Measurement.exact(3.0)) == (3.0, 3.0)

    def test_proportion_envelope_contains_wilson_and_hoeffding(self):
        m = Measurement.proportion(30, 100)
        lo, hi = confidence_interval(m)
        assert lo <= 0.3 <= hi
        half = hoeffding_halfwidth(100)
        assert lo <= 0.3 - half and hi >= 0.3 + half

    def test_estimate_ci_widens_envelope(self):
        m = Measurement(value=0.5, n_runs=10_000, ci_low=0.1, ci_high=0.9)
        lo, hi = confidence_interval(m)
        assert lo <= 0.1 and hi >= 0.9


class TestCompare:
    def test_upper_bound_ladder(self):
        tol = TolerancePolicy(slack=0.05, z=0.0)
        ok, _ = compare(BoundKind.UPPER, 1.0, Measurement.proportion(90, 100), tol)
        within, _ = compare(
            BoundKind.UPPER, 0.88, Measurement.proportion(90, 100), tol
        )
        violated, margin = compare(
            BoundKind.UPPER, 0.5, Measurement.proportion(90, 100), tol
        )
        assert (ok, within, violated) == ("ok", "within-tolerance", "violated")
        assert margin == pytest.approx(0.4)

    def test_lower_bound_is_mirrored(self):
        tol = TolerancePolicy(slack=0.05, z=0.0)
        ok, _ = compare(BoundKind.LOWER, 0.5, Measurement.proportion(90, 100), tol)
        violated, _ = compare(
            BoundKind.LOWER, 0.99, Measurement.proportion(50, 100), tol
        )
        assert (ok, violated) == ("ok", "violated")

    def test_equality_uses_the_interval(self):
        tol = TolerancePolicy(slack=0.0, z=0.0)
        verdict, _ = compare(
            BoundKind.EQUALITY, 0.52, Measurement.proportion(50, 100), tol
        )
        assert verdict == "ok"  # inside the Wilson/Hoeffding envelope
        verdict, _ = compare(
            BoundKind.EQUALITY, 0.95, Measurement.proportion(50, 100), tol
        )
        assert verdict == "violated"

    def test_exact_equality_degenerates(self):
        tol = TolerancePolicy(slack=0.0, z=0.0, spread=0.0)
        assert compare(BoundKind.EQUALITY, 2.0, Measurement.exact(2.0), tol)[0] == "ok"
        assert (
            compare(BoundKind.EQUALITY, 2.0, Measurement.exact(3.0), tol)[0]
            == "violated"
        )

    def test_strict_order_needs_a_positive_gap(self):
        tol = TolerancePolicy(slack=0.05, z=0.0)
        gap = Measurement(value=0.25, n_runs=100)
        assert compare(BoundKind.STRICT_ORDER, 0.25, gap, tol)[0] == "ok"
        drift = Measurement(value=0.45, n_runs=100)
        assert (
            compare(BoundKind.STRICT_ORDER, 0.25, drift, tol)[0]
            == "within-tolerance"
        )
        inverted = Measurement(value=-0.1, n_runs=100)
        assert (
            compare(BoundKind.STRICT_ORDER, 0.25, inverted, tol)[0] == "violated"
        )

    def test_assert_agreement_raises_on_mismatch(self):
        good = Measurement.proportion(50, 100)
        assert_agreement("T", 0.5, good)
        with pytest.raises(DifferentialMismatch):
            assert_agreement("T", 0.95, good)


class TestChecker:
    def test_check_claim_records_replay_metadata(self):
        runner = SerialRunner()
        registry = default_registry()
        ctx = ClaimContext(
            seed=("s", "verify", "E3"), scale=0.25, runner=runner
        )
        check = check_claim(registry.get("E3"), ctx)
        assert check.verdict in (Verdict.OK, Verdict.WITHIN_TOLERANCE)
        assert check.seed == (("s", "verify", "E3"),)
        assert check.chunk_spans, "no chunk spans captured"
        assert check.run_stats
        total = sum(stop - start for _, start, stop in check.chunk_spans)
        assert total >= check.measurement.n_runs

    def test_verify_claims_selection_and_exit_codes(self):
        report = verify_claims("E4,E10-rounds", budget="small", seed="t")
        assert len(report.checks) == 3  # two E4 claims + E10-rounds
        assert report.ok and report.exit_code == 0
        assert report.counts()["violated"] == 0

    def test_verify_claims_bad_spec_raises_config_error(self):
        with pytest.raises(ClaimConfigError):
            verify_claims("E99", budget="small")
        with pytest.raises(ClaimConfigError):
            verify_claims("all", budget="banana")

    def test_violated_claim_sets_exit_code(self):
        registry = ClaimRegistry([
            make_claim(
                BoundKind.UPPER,
                0.1,
                Measurement.proportion(90, 100),
                TolerancePolicy(slack=0.0, z=0.0),
            )
        ])
        report = verify_claims("all", budget="small", registry=registry)
        assert not report.ok
        assert report.exit_code == 1
        assert report.checks[0].verdict is Verdict.VIOLATED

    def test_report_render_mentions_every_claim(self):
        registry = ClaimRegistry([
            make_claim(BoundKind.EQUALITY, 1.0, Measurement.exact(1.0), claim_id="A"),
            make_claim(BoundKind.EQUALITY, 2.0, Measurement.exact(2.0), claim_id="B"),
        ])
        text = str(verify_claims("all", budget="small", registry=registry))
        assert "A" in text and "B" in text and "2 claims" in text


class TestReplayBitIdentity:
    def test_deterministic_payload_stable_across_backends(self):
        spec = "E1-naive,E5,E10-stop"

        def payload(runner):
            report = verify_claims(spec, budget="small", seed="replay", runner=runner)
            return json.dumps(
                deterministic_payload(report_to_dict(report)), sort_keys=True
            )

        serial = payload(SerialRunner())
        assert serial == payload(SerialRunner())
        assert serial == payload(
            ProcessPoolRunner(jobs=2, chunk_size=8, min_parallel_runs=1)
        )

    def test_warm_cache_replays_bit_identically(self, tmp_path):
        from repro.runtime.cache import ChunkCache

        def payload(cache):
            report = verify_claims(
                "E5", budget="small", seed="replay",
                runner=SerialRunner(cache=cache),
            )
            return json.dumps(
                deterministic_payload(report_to_dict(report)), sort_keys=True
            )

        cold = payload(ChunkCache(tmp_path / "chunks"))
        warm = payload(ChunkCache(tmp_path / "chunks"))
        assert cold == warm

    def test_timing_and_layout_keys_are_stripped(self):
        report = verify_claims("E4", budget="small", seed="t")
        exported = report_to_dict(report)
        assert "timing" in exported
        assert "chunk_spans" in exported["checks"][0]
        clean = deterministic_payload(exported)
        assert "timing" not in clean
        assert "chunk_spans" not in clean["checks"][0]
        assert "timing" not in clean["checks"][0]


class TestLemma17CorrectedConstant:
    """Pins the E7 discrepancy: the Lemma-17 display's even-n overshoot.

    EXPERIMENTS.md ("Known deviations", item 4) records that the paper's
    display bounds the Π½GMW excess by (γ10 − γ11) while its own per-t
    counting gives exactly half that.  These tests pin the corrected
    constant analytically and through the registered claim, so a future
    "fix" back to the display's constant fails loudly.
    """

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_n_overshoot_is_half_the_display_constant(self, n):
        gamma = STANDARD_GAMMA
        excess = threshold_gmw_balance_sum(gamma, n) - balanced_sum_bound(n, gamma)
        corrected = (gamma.gamma10 - gamma.gamma11) / 2.0
        assert excess == pytest.approx(corrected)
        assert threshold_gmw_overshoot(gamma, n) == pytest.approx(corrected)
        # And strictly below the display's looser constant.
        assert excess < (gamma.gamma10 - gamma.gamma11) - 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_n_has_no_overshoot(self, n):
        gamma = STANDARD_GAMMA
        assert threshold_gmw_overshoot(gamma, n) == 0.0
        assert threshold_gmw_balance_sum(gamma, n) == pytest.approx(
            balanced_sum_bound(n, gamma)
        )

    def test_overshoot_validates_inputs(self):
        with pytest.raises(ValueError):
            threshold_gmw_overshoot(STANDARD_GAMMA, 1)
        with pytest.raises(ValueError):
            # γ01 > 0 is outside Γ+fair.
            threshold_gmw_overshoot(PayoffVector(0.0, 0.5, 1.0, 0.5), 4)

    def test_registered_claim_measures_the_corrected_constant(self):
        report = verify_claims("E7-overshoot", budget="small", seed="e7-pin")
        (check,) = report.checks
        assert check.verdict in (Verdict.OK, Verdict.WITHIN_TOLERANCE)
        gamma = STANDARD_GAMMA
        assert check.analytic_value == pytest.approx(
            balanced_sum_bound(4, gamma) + (gamma.gamma10 - gamma.gamma11) / 2.0
        )
        # The measured sum must reject the display's looser constant.
        display = balanced_sum_bound(4, gamma) + (gamma.gamma10 - gamma.gamma11)
        assert abs(check.measurement.value - check.analytic_value) < abs(
            check.measurement.value - display
        )


class TestLeakySeparationClaims:
    """E11: Lemma 26's separation and Lemma 27's privacy, measured on the
    Π̃ per-run kernel."""

    @pytest.mark.parametrize("budget", ["small", "medium"])
    def test_claims_hold(self, budget):
        report = verify_claims("E11", budget=budget, seed="7")
        assert {c.claim.claim_id: c.verdict for c in report.checks} == {
            "E11-leak": Verdict.OK,
            "E11-separation": Verdict.OK,
            "E11-privacy": Verdict.OK,
        }
        statements = {c.claim.claim_id: c.claim.statement for c in report.checks}
        assert statements["E11-separation"].startswith("Lemma 26")
        assert statements["E11-privacy"].startswith("Lemma 27")

    @pytest.mark.parametrize("claim_id,measure,value", [
        # A real world that obeys the Fsfe$ bound Pr[Z1] ≤ ¾·Pr[Z2].
        ("E11-separation", "leaky_distinguisher_probabilities", (0.15, 0.25)),
        # Views a simulator could not reproduce.
        ("E11-privacy", "leaky_privacy_distance", 0.5),
    ])
    def test_claims_fail_on_a_broken_measurement(
        self, monkeypatch, claim_id, measure, value
    ):
        import repro.analysis as analysis

        monkeypatch.setattr(analysis, measure, lambda n_runs, seed: value)
        (check,) = verify_claims(claim_id, budget="small", seed="7").checks
        assert check.verdict is Verdict.VIOLATED
