"""Symbolic cost models, and chunk planning across tasks of unequal cost.

Covers the closed forms in ``analysis/symbolic_cost.py`` (predictions
must match ``measure_cost`` exactly), the E21 claim family that pins
that agreement, and the runtime's single chunk plan for heterogeneous
batches (deterministic, venue-invariant, independent of predicted cost;
env knobs; observability fields).
"""

from dataclasses import fields

import pytest

from repro.adversaries import PassiveAdversary, fixed
from repro.analysis.complexity import measure_cost
from repro.analysis.export import (
    chunk_stats_to_dict,
    run_stats_to_dict,
)
from repro.analysis.analytic import gk_round_count
from repro.analysis.symbolic_cost import (
    SYMBOLS,
    covered,
    covered_families,
    evaluate,
    model_for,
)
from repro.functions import make_and, make_concat, make_swap
from repro.gmw import ThresholdGmwProtocol
from repro.protocols import (
    DummyProtocol,
    GordonKatzProtocol,
    Opt2SfeProtocol,
    OptNSfeProtocol,
    SingleRoundProtocol,
)
from repro.protocols.gradual_release import RELEASE_BITS, GradualReleaseProtocol
from repro.runtime import (
    ChunkStats,
    ExecutionTask,
    ProcessPoolRunner,
    SerialRunner,
    plan_chunks,
    resolve_chunk_size,
)


def _passive():
    return fixed("passive", lambda: PassiveAdversary())


def _zoo():
    """Every protocol family the cost models cover, as concrete instances."""
    return [
        GordonKatzProtocol(make_and(), p=2),
        GordonKatzProtocol(make_and(), p=4),
        SingleRoundProtocol(make_and()),
        GradualReleaseProtocol(make_and()),
        Opt2SfeProtocol(make_swap(16)),
        OptNSfeProtocol(make_concat(5, 8)),
        ThresholdGmwProtocol(make_concat(5, 8)),
    ]


# -- the closed forms --------------------------------------------------------


class TestSymbolicModels:
    def test_predictions_match_measured_costs_exactly(self):
        # The E21 contract, claim by claim: zero divergence on every
        # component for every covered family.
        for protocol in _zoo():
            predicted = evaluate(protocol)
            measured = measure_cost(
                protocol, n_runs=3, seed=("cost-test", protocol.name)
            )
            assert predicted.rounds == measured.rounds
            assert (
                predicted.point_to_point_messages
                == measured.point_to_point_messages
            )
            assert predicted.broadcasts == measured.broadcasts
            assert (
                predicted.functionality_responses
                == measured.functionality_responses
            )

    def test_known_closed_forms(self):
        gk = evaluate(GordonKatzProtocol(make_and(), p=2))
        R = GordonKatzProtocol(make_and(), p=2).reveal_rounds
        assert (gk.rounds, gk.point_to_point_messages) == (R + 2, 2 * R)
        gr = evaluate(GradualReleaseProtocol(make_and()))
        assert gr.rounds == RELEASE_BITS + 3
        assert gr.point_to_point_messages == 2 * RELEASE_BITS + 2
        nsfe = evaluate(OptNSfeProtocol(make_concat(5, 8)))
        assert (nsfe.broadcasts, nsfe.functionality_responses) == (5, 5)

    def test_symbolic_expressions_substitute(self):
        # The closed forms are plain integer callables: substitute R.
        model = model_for(GordonKatzProtocol(make_and(), p=2))
        assert model.params == ("R",)
        assert model.rounds(80) == 82
        assert model.point_to_point(80) == 160
        # The round parameter's own closed form (Theorems 23/24 shapes).
        assert gk_round_count(3, 4, "domain") == 20 * 3 * 4
        assert gk_round_count(3, 4, "range") == 20 * 3 ** 2 * 4
        with pytest.raises(ValueError):
            gk_round_count(3, 4, "bogus")

    def test_every_model_param_is_in_the_glossary(self):
        for protocol in _zoo():
            for param in model_for(protocol).params:
                assert param in SYMBOLS

    def test_uncovered_protocol_raises_with_coverage_list(self):
        dummy = DummyProtocol(make_swap(8))
        assert not covered(dummy)
        assert model_for(dummy) is None
        with pytest.raises(ValueError, match="covered families"):
            evaluate(dummy)
        assert "GordonKatzProtocol" in covered_families()

    def test_subclasses_inherit_their_family_model(self):
        class TunedSingleRound(SingleRoundProtocol):
            pass

        tuned = TunedSingleRound(make_and())
        assert model_for(tuned) is model_for(SingleRoundProtocol(make_and()))
        assert evaluate(tuned).rounds == 3


# -- env knobs ---------------------------------------------------------------


class TestScheduleKnobs:
    def test_explicit_chunk_size_validation(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_chunk_size(0)


# -- chunk planning across tasks of unequal cost ------------------------------


def _hetero_tasks(n_runs=120):
    """A deliberately heterogeneous batch: ~35x per-run cost spread."""
    return [
        ExecutionTask(
            GordonKatzProtocol(make_and(), p=2), _passive(), n_runs,
            seed=("sched", 0),
        ),
        ExecutionTask(
            SingleRoundProtocol(make_and()), _passive(), n_runs,
            seed=("sched", 1),
        ),
        ExecutionTask(
            Opt2SfeProtocol(make_swap(16)), _passive(), n_runs,
            seed=("sched", 2),
        ),
    ]


class TestCostSchedule:
    """A batch whose tasks differ ~35x in predicted cost still gets one
    uniform chunk plan per task: cost models never size or order
    chunks."""

    def test_plans_deterministic_and_venue_invariant(self):
        # The plan is a pure function of (n_runs, chunk_size): the
        # serial and pool venues must derive byte-identical span sets, or
        # journal fingerprints could not replay across them.
        task = _hetero_tasks()[0]
        serial = SerialRunner()
        pool = ProcessPoolRunner(2, min_parallel_runs=0)
        plans = {tuple(r._plan(task)) for r in (serial, pool)}
        assert len(plans) == 1
        assert serial._plan(task) == serial._plan(task)

    def test_observability_fields(self):
        runner = SerialRunner(chunk_size=16)
        runner.run(_hetero_tasks(n_runs=40))
        stats = runner.last_stats
        # Every task's plan shows up span for span in the chunk records.
        assert stats.chunk_spans == tuple(
            (ti, start, stop)
            for ti in range(3)
            for start, stop in plan_chunks(40, 16)
        )
        # Every ChunkStats field is exported, and nothing else.
        exported = run_stats_to_dict(stats)
        chunk = exported["chunks"][0]
        assert set(chunk) == {f.name for f in fields(ChunkStats)}
        assert chunk == chunk_stats_to_dict(stats.chunks[0])
        assert (chunk["task_index"], chunk["start"], chunk["stop"]) == (
            0, 0, 16,
        )

    def test_unmodelled_tasks_keep_uniform_plan(self):
        unmodelled = ExecutionTask(
            DummyProtocol(make_swap(8)), _passive(), 120, seed=("sched", 9)
        )
        runner = SerialRunner()
        # Modelled or not, cheap or expensive: the same n_runs gets the
        # same plan.
        for task in (unmodelled, *_hetero_tasks()):
            assert runner._plan(task) == plan_chunks(120)


# -- E21 claims --------------------------------------------------------------


class TestE21Claims:
    def test_registered_for_every_covered_family(self):
        from repro.verify import default_registry

        registry = default_registry()
        ids = {c.claim_id for c in registry.select("E21")}
        assert ids == {
            "E21-opt2sfe", "E21-single", "E21-gradual",
            "E21-gk", "E21-nsfe", "E21-gmw",
        }

    def test_all_pass_exactly_and_replay(self):
        from repro.analysis import deterministic_payload, report_to_dict
        from repro.verify import verify_claims

        report = verify_claims("E21", budget="small", seed="e21-test")
        assert report.exit_code == 0
        for check in report.checks:
            assert check.measurement.value == 0.0
            assert check.tolerance == 0.0
        replay = verify_claims("E21", budget="small", seed="e21-test")
        assert deterministic_payload(
            report_to_dict(report)
        ) == deterministic_payload(report_to_dict(replay))
