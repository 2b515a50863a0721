"""Deterministic chaos-campaign harness: seeded plan reproducibility,
explicit trial-spec parsing, fingerprint stability, fault-dimension
composition rules, and a small in-process campaign that must come back
green (payload bit-identity + clean counters under injected faults)."""

import json

import pytest

from repro.crypto import Rng
from repro.runtime.chaos import (
    DIMENSIONS,
    VENUES,
    CampaignReport,
    TrialResult,
    TrialSpec,
    parse_trial_spec,
    payload_fingerprint,
    plan_campaign,
    run_campaign,
)


class TestPlanning:
    def test_same_seed_same_plan(self):
        a = plan_campaign(("chaos", 1), 8)
        b = plan_campaign(("chaos", 1), 8)
        assert a == b

    def test_different_seeds_diverge(self):
        a = plan_campaign(("chaos", 1), 8)
        b = plan_campaign(("chaos", 2), 8)
        assert a != b

    def test_plan_respects_the_venue_menu(self):
        specs = plan_campaign(7, 12, venues=("serial",))
        assert {s.venue for s in specs} == {"serial"}
        specs = plan_campaign(7, 24, venues=VENUES)
        assert {s.venue for s in specs} <= set(VENUES)

    def test_every_trial_names_at_least_one_dimension(self):
        for spec in plan_campaign("dims", 32):
            assert spec.dims
            assert set(spec.dims) <= set(DIMENSIONS)

    def test_planner_never_composes_interrupt_with_prepopulation(self):
        for spec in plan_campaign("combo", 64):
            if "interrupt-resume" in spec.dims:
                assert "cache-corruption" not in spec.dims
                assert "journal-corruption" not in spec.dims

    def test_fault_rates_live_in_the_documented_band(self):
        for spec in plan_campaign("rates", 32):
            assert 0.25 <= spec.fault_rate <= 0.6

    def test_unknown_venue_rejected(self):
        with pytest.raises(ValueError, match="unknown venue"):
            plan_campaign(1, 2, venues=("serial", "mainframe"))

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos dimension"):
            plan_campaign(1, 2, dims=("chunk-faults", "gamma-rays"))


class TestTrialSpec:
    def test_worker_kill_implies_exit_faults(self):
        spec = TrialSpec(0, "pool", ("worker-kill",), 0.3)
        assert spec.fault_kind == "exit"
        assert spec.fault_spec().kind == "exit"

    def test_chunk_faults_imply_raise(self):
        spec = TrialSpec(0, "serial", ("chunk-faults",), 0.3)
        assert spec.fault_kind == "raise"

    def test_kill_wins_over_raise(self):
        spec = TrialSpec(0, "pool", ("chunk-faults", "worker-kill"), 0.3)
        assert spec.fault_kind == "exit"

    def test_fault_free_dimensions_have_no_spec(self):
        spec = TrialSpec(0, "serial", ("journal-corruption",), 0.3)
        assert spec.fault_kind is None
        assert spec.fault_spec() is None

    def test_to_dict_round_trips_through_json(self):
        spec = TrialSpec(3, "pool", ("chunk-faults",), 0.412)
        again = json.loads(json.dumps(spec.to_dict()))
        assert again["venue"] == "pool"
        assert again["dims"] == ["chunk-faults"]
        assert again["fault_kind"] == "raise"


class TestParseTrialSpec:
    def test_round_trip(self):
        spec = parse_trial_spec("pool:chunk-faults+interrupt-resume", 0, 1)
        assert spec.venue == "pool"
        assert spec.dims == ("chunk-faults", "interrupt-resume")

    def test_parse_is_seed_deterministic(self):
        a = parse_trial_spec("serial:chunk-faults", 2, "s")
        b = parse_trial_spec("serial:chunk-faults", 2, "s")
        assert a == b

    def test_dim_order_is_canonicalised(self):
        a = parse_trial_spec("serial:interrupt-resume+chunk-faults", 0, 1)
        b = parse_trial_spec("serial:chunk-faults+interrupt-resume", 0, 1)
        assert a.dims == b.dims

    @pytest.mark.parametrize(
        "text",
        ["serial", "mainframe:chunk-faults", "serial:", "pool:warp-core"],
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_trial_spec(text, 0, 1)

    def test_explicit_impossible_combo_is_an_error_not_a_drop(self):
        with pytest.raises(ValueError, match="cannot compose"):
            parse_trial_spec(
                "serial:interrupt-resume+journal-corruption", 0, 1
            )


class TestFingerprint:
    def _values(self, seed):
        from repro.core import FairnessEvent
        from repro.core.utility import EventCounts

        counts = EventCounts()
        for i in range(seed):
            counts.record(FairnessEvent.E11, frozenset({i % 2}))
        return [counts]

    def test_equal_values_equal_fingerprints(self):
        assert payload_fingerprint(self._values(5)) == payload_fingerprint(
            self._values(5)
        )

    def test_different_values_different_fingerprints(self):
        assert payload_fingerprint(self._values(5)) != payload_fingerprint(
            self._values(6)
        )


class TestReport:
    def _report(self, verdicts):
        report = CampaignReport(seed_repr="7")
        for i, ok in enumerate(verdicts):
            report.results.append(
                TrialResult(
                    name=f"trial-{i:03d}",
                    ok=ok,
                    failures=[] if ok else ["boom"],
                    observed={},
                )
            )
        return report

    def test_all_green_exit_zero(self):
        report = self._report([True, True])
        assert report.ok and report.exit_code == 0
        assert report.to_dict()["failed_trials"] == []

    def test_any_red_exit_nonzero(self):
        report = self._report([True, False])
        assert not report.ok and report.exit_code == 1
        assert report.to_dict()["failed_trials"] == ["trial-001"]

    def test_str_mentions_every_trial(self):
        text = str(self._report([True, False]))
        assert "trial-000" in text and "trial-001" in text
        assert "boom" in text


class TestCampaignEndToEnd:
    def test_small_serial_campaign_is_green(self, tmp_path, monkeypatch):
        # Trials must not inherit ambient fault/cache/journal knobs.
        for var in ("REPRO_JOURNAL_DIR", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(var, raising=False)
        report = run_campaign(
            ("chaos-test", 1),
            n_trials=0,
            explicit=(
                "serial:chunk-faults",
                "serial:journal-corruption",
            ),
            workdir=tmp_path,
            trial_runs=24,
            chunk_size=6,
        )
        assert report.ok, str(report)
        observed = {r.name: r.observed for r in report.results}
        faulted = next(
            o for o in observed.values() if o.get("faulted_chunks")
        )
        assert faulted["faulted_chunks"] >= 1
        corrupted = next(
            o for o in observed.values() if o.get("journal_corrupt")
        )
        assert corrupted["journal_corrupt"] >= 1
        assert corrupted["journal_replayed"] >= 1

    def test_harness_crash_becomes_a_failed_trial(self, tmp_path, monkeypatch):
        import repro.runtime.chaos as chaos_mod

        def boom(spec, campaign):
            raise RuntimeError("synthetic harness crash")

        monkeypatch.setattr(chaos_mod, "run_trial", boom)
        report = run_campaign(
            1, n_trials=0, explicit=("serial:chunk-faults",),
            workdir=tmp_path,
        )
        assert not report.ok
        assert "trial harness error" in report.results[0].failures[0]

    def test_rng_namespace_does_not_collide_with_workload(self):
        # The planner's draws live under a "chaos-trial" label, so a
        # campaign seed equal to a workload seed cannot correlate runs.
        assert Rng((1, "chaos-trial", 0)).getrandbits(32) != Rng(
            (1, "chaos-run", 0)
        ).getrandbits(32)
