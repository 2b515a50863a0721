"""Batch runtime tests: mergeable counts, chunk planning, backend
determinism (serial vs. process pool), adaptive early stopping, stats,
jobs resolution, hung honest parties and SIGINT handling."""

import collections
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries import PassiveAdversary, strategy_space_for_protocol
from repro.analysis import (
    assess_protocol,
    balance_profile,
    estimate_utility,
    measure_reconstruction_rounds,
    opt2sfe_outcome_distributions,
    run_batch,
    run_stats_to_dict,
    sweep_strategies,
    to_dict,
)
from repro.core import FairnessEvent, PayoffVector
from repro.core.utility import EventCounts
from repro.crypto import Rng
from repro.engine import ProtocolViolation, run_execution
from repro.engine.party import PartyMachine
from repro.engine.protocol import Protocol
from repro.functions import make_and, make_concat, make_swap
from repro.protocols import (
    DummyProtocol,
    GordonKatzProtocol,
    Opt2SfeProtocol,
    OptNSfeProtocol,
)
from repro.runtime import (
    NO_FAULTS,
    ExecutionTask,
    FaultSpec,
    ProcessPoolRunner,
    RetryPolicy,
    RunJournal,
    RunStats,
    SerialRunner,
    default_chunk_size,
    merge_partials,
    plan_chunks,
    resolve_jobs,
    resolve_runner,
    usable_cpus,
)

from .conftest import StopAfter, leak_failure

GAMMA = PayoffVector(0.0, 0.0, 1.0, 0.5)


def pool(jobs, chunk_size=None):
    """A pool runner that never falls back to serial for small batches."""
    return ProcessPoolRunner(jobs, chunk_size=chunk_size, min_parallel_runs=0)


# -- EventCounts merge primitive --------------------------------------------


class TestEventCountsMerge:
    def test_merge_sums_counts(self):
        a = EventCounts()
        b = EventCounts()
        a.record(FairnessEvent.E10, frozenset({0}))
        a.record(FairnessEvent.E11, frozenset({0}))
        b.record(FairnessEvent.E10, frozenset({1}))
        out = a.merge(b)
        assert out is a
        assert a.counts[FairnessEvent.E10] == 2
        assert a.counts[FairnessEvent.E11] == 1
        assert a.total == 3

    def test_merge_sums_corruption_counts(self):
        a = EventCounts()
        b = EventCounts()
        a.record(FairnessEvent.E00, frozenset({0}))
        b.record(FairnessEvent.E00, frozenset({0}))
        b.record(FairnessEvent.E00, frozenset({0, 1}))
        a.merge(b)
        assert a.corruption_counts[frozenset({0})] == 2
        assert a.corruption_counts[frozenset({0, 1})] == 1

    def test_add_is_non_destructive(self):
        a = EventCounts()
        b = EventCounts()
        a.record(FairnessEvent.E10)
        b.record(FairnessEvent.E01)
        c = a + b
        assert c.total == 2
        assert a.total == 1 and b.total == 1
        assert c.counts[FairnessEvent.E10] == 1
        assert c.counts[FairnessEvent.E01] == 1

    def test_add_rejects_non_counts(self):
        with pytest.raises(TypeError):
            EventCounts() + 3

    def test_chunked_recording_equals_single_batch(self):
        whole = EventCounts()
        parts = [EventCounts() for _ in range(3)]
        events = [FairnessEvent.E10, FairnessEvent.E11, FairnessEvent.E00] * 4
        for i, event in enumerate(events):
            whole.record(event, frozenset({i % 2}))
            parts[i % 3].record(event, frozenset({i % 2}))
        merged = parts[0] + parts[1] + parts[2]
        assert merged == whole


# -- chunk planning and generic merging -------------------------------------


class TestChunkPlanning:
    def test_plan_partitions_range(self):
        for n in (1, 7, 16, 100, 601):
            spans = plan_chunks(n, 13)
            assert spans[0][0] == 0 and spans[-1][1] == n
            for (_, stop), (start, _) in zip(spans, spans[1:]):
                assert stop == start

    def test_default_chunk_size_ignores_jobs(self):
        # The plan must be a pure function of n_runs so early stopping
        # halts at the same run index under every backend.
        assert default_chunk_size(600) == default_chunk_size(600)
        assert plan_chunks(600) == plan_chunks(600)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            plan_chunks(0)
        with pytest.raises(ValueError):
            plan_chunks(-5)

    def test_chunk_size_larger_than_n_runs(self):
        # A single span covering everything, not an out-of-range stop.
        assert plan_chunks(10, 64) == [(0, 10)]
        assert plan_chunks(1, 1000) == [(0, 1)]

    def test_chunk_size_one(self):
        spans = plan_chunks(5, 1)
        assert spans == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_rejects_nonpositive_chunk_size(self):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                plan_chunks(10, bad)

    @given(
        n_runs=st.integers(min_value=1, max_value=2000),
        chunk_size=st.one_of(
            st.none(), st.integers(min_value=1, max_value=700)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_spans_tile_exactly(self, n_runs, chunk_size):
        # The plan must partition [0, n_runs) exactly: spans are
        # contiguous, non-overlapping, start at 0, and end at n_runs.
        spans = plan_chunks(n_runs, chunk_size)
        assert spans[0][0] == 0
        assert spans[-1][1] == n_runs
        for start, stop in spans:
            assert start < stop
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
        # Determinism: the plan is a pure function of its arguments.
        assert spans == plan_chunks(n_runs, chunk_size)

    def test_merge_partials_tuples_and_ints(self):
        assert merge_partials(2, 3) == 5
        assert merge_partials((1, 2), (3, 4)) == (4, 6)
        with pytest.raises(ValueError):
            merge_partials((1,), (1, 2))


# -- backend determinism ----------------------------------------------------


def _protocol_zoo():
    return [
        DummyProtocol(make_swap(8)),
        Opt2SfeProtocol(make_swap(8)),
        GordonKatzProtocol(make_and(), p=2),
    ]


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("proto_idx", [0, 1, 2], ids=["dummy", "opt-2sfe", "gk"])
def test_serial_and_pool_are_bit_identical(proto_idx, jobs):
    protocol = _protocol_zoo()[proto_idx]
    factories = strategy_space_for_protocol(protocol)[:3]
    serial = sweep_strategies(
        protocol, factories, GAMMA, n_runs=40, seed=(11, protocol.name)
    )
    parallel = sweep_strategies(
        protocol,
        factories,
        GAMMA,
        n_runs=40,
        seed=(11, protocol.name),
        runner=pool(jobs, chunk_size=10),
    )
    assert serial == parallel  # identical UtilityEstimate dataclasses


def test_run_batch_counts_identical_across_backends():
    protocol = Opt2SfeProtocol(make_swap(8))
    factory = strategy_space_for_protocol(protocol)[1]
    serial = run_batch(protocol, factory, 60, seed=5)
    parallel = run_batch(
        protocol, factory, 60, seed=5, runner=pool(3, chunk_size=7)
    )
    assert serial == parallel
    assert parallel.total == 60


def test_assess_protocol_identical_across_backends():
    protocol = GordonKatzProtocol(make_and(), p=2)
    space = strategy_space_for_protocol(protocol)[:4]
    a = assess_protocol(protocol, space, GAMMA, n_runs=30, seed=2)
    b = assess_protocol(
        protocol, space, GAMMA, n_runs=30, seed=2, runner=pool(2)
    )
    assert a.utility == b.utility
    assert a.best_attack == b.best_attack


def test_balance_profile_identical_across_backends():
    from repro.adversaries import LockWatchingAborter, fixed

    protocol = OptNSfeProtocol(make_concat(3, 8))
    factories = {
        t: [fixed(f"lw{t}", lambda t=t: LockWatchingAborter(set(range(t))))]
        for t in range(1, 3)
    }
    a = balance_profile(protocol, factories, GAMMA, n_runs=20, seed=1)
    b = balance_profile(
        protocol, factories, GAMMA, n_runs=20, seed=1, runner=pool(2)
    )
    assert a.per_t == b.per_t


def test_balance_profile_passes_sampler_and_early_stop_through():
    """Regression: ``balance_profile`` silently dropped ``input_sampler``
    and had no ``early_stop`` at all, unlike every sibling entry point."""
    from repro.adversaries import LockWatchingAborter, fixed
    from repro.runtime import NO_FAULTS

    protocol = OptNSfeProtocol(make_concat(3, 8))
    factories = {
        t: [fixed(f"lw{t}", lambda t=t: LockWatchingAborter(set(range(t))))]
        for t in range(1, 3)
    }
    calls = []

    def sampler(rng):
        calls.append(1)
        return (1, 2, 3)

    full = balance_profile(
        protocol, factories, GAMMA, n_runs=60, seed=1,
        input_sampler=sampler, runner=SerialRunner(fault=NO_FAULTS),
    )
    assert len(calls) == 2 * 60  # the sampler drove every execution
    assert all(full.per_t[t].n_runs == 60 for t in (1, 2))

    # Early stopping: the rule fires at the first chunk boundary
    # (default chunk size 16 for a 60-run budget), so every per-t estimate
    # halts well short of the full budget.
    rule = StopAfter(8)
    stopped = balance_profile(
        protocol, factories, GAMMA, n_runs=60, seed=1,
        input_sampler=sampler, runner=SerialRunner(fault=NO_FAULTS),
        early_stop=rule,
    )
    assert all(stopped.per_t[t].n_runs < 60 for t in (1, 2))

    # Both passthroughs behave identically under the pool backend.
    pooled = balance_profile(
        protocol, factories, GAMMA, n_runs=60, seed=1,
        input_sampler=lambda rng: (1, 2, 3), runner=pool(2, chunk_size=16),
        early_stop=rule,
    )
    assert pooled.per_t == stopped.per_t


def test_simulation_distributions_identical_across_backends():
    from repro.adversaries.aborting import AbortAtRound

    builder = lambda: AbortAtRound({0}, 1)  # noqa: E731
    serial = opt2sfe_outcome_distributions(builder, 0, n_runs=30, seed=9, bits=8)
    parallel = opt2sfe_outcome_distributions(
        builder, 0, n_runs=30, seed=9, bits=8, runner=pool(2, chunk_size=8)
    )
    assert serial == parallel


def test_reconstruction_identical_across_backends():
    protocol = Opt2SfeProtocol(make_swap(8))
    a = measure_reconstruction_rounds(protocol, n_runs=20, seed=4)
    b = measure_reconstruction_rounds(
        protocol, n_runs=20, seed=4, runner=pool(2)
    )
    assert a == b


# -- adaptive early stopping ------------------------------------------------


def test_early_stop_spends_less_than_budget():
    protocol = Opt2SfeProtocol(make_swap(8))
    factory = strategy_space_for_protocol(protocol)[1]
    rule = StopAfter(32)
    counts = run_batch(protocol, factory, 400, seed=3, early_stop=rule)
    assert counts.total < 400
    assert counts.run_stats.stopped_early

    # Without a rule the full budget is spent.
    full = run_batch(protocol, factory, 100, seed=3)
    assert full.total == 100
    assert not full.run_stats.stopped_early


def test_early_stop_same_cutoff_serial_and_pool():
    protocol = Opt2SfeProtocol(make_swap(8))
    factory = strategy_space_for_protocol(protocol)[1]
    rule = StopAfter(100)
    serial = run_batch(
        protocol, factory, 300, seed=8, runner=SerialRunner(chunk_size=25),
        early_stop=rule,
    )
    parallel = run_batch(
        protocol, factory, 300, seed=8, runner=pool(3, chunk_size=25),
        early_stop=rule,
    )
    assert serial == parallel
    assert serial.total == 100

    # Chunk boundaries are deterministic, so the cutoff is stable.
    again = run_batch(
        protocol, factory, 300, seed=8, runner=SerialRunner(chunk_size=25),
        early_stop=rule,
    )
    assert again == serial


def test_estimate_reports_the_runs_an_early_stop_left():
    protocol = DummyProtocol(make_swap(8))
    factory = strategy_space_for_protocol(protocol)[0]
    rule = StopAfter(16)
    counts = run_batch(protocol, factory, 200, seed=0, early_stop=rule)
    assert counts.total < 200

    est = estimate_utility(
        protocol, factory, GAMMA, n_runs=200, seed=0, early_stop=rule
    )
    assert est.n_runs == counts.total


# -- jobs resolution and stats ----------------------------------------------


class TestJobsResolution:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert isinstance(resolve_runner(None), SerialRunner)

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == usable_cpus()

    def test_zero_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        # Pinned to one CPU (``taskset -c 1``) on a multi-CPU machine,
        # "all CPUs" must mean one worker, not os.cpu_count() of them.
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(0) == 1
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs(None) == 1

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^jobs must be"):
            resolve_jobs(-2)

class TestRunStats:
    def test_run_batch_attaches_stats(self):
        protocol = DummyProtocol(make_swap(8))
        factory = strategy_space_for_protocol(protocol)[0]
        counts = run_batch(protocol, factory, 50, seed=1)
        stats = counts.run_stats
        assert isinstance(stats, RunStats)
        assert stats.requested == stats.executions == 50
        assert stats.backend == "serial"
        assert stats.wall_clock_s > 0
        assert stats.executions_per_sec > 0

    def test_pool_stats_and_export(self):
        protocol = DummyProtocol(make_swap(8))
        factories = strategy_space_for_protocol(protocol)[:2]
        runner = pool(2, chunk_size=10)
        sweep_strategies(protocol, factories, GAMMA, n_runs=30, runner=runner)
        stats = runner.last_stats
        assert stats.backend == "process-pool"
        assert stats.jobs == 2
        assert stats.n_tasks == 2
        assert stats.n_chunks == 6
        assert stats.executions == 60
        d = to_dict(stats)
        assert d == run_stats_to_dict(stats)
        assert d["backend"] == "process-pool"
        assert d["executions_per_sec"] == stats.executions_per_sec

    def test_small_batches_fall_back_to_serial(self):
        protocol = DummyProtocol(make_swap(8))
        factory = strategy_space_for_protocol(protocol)[0]
        runner = ProcessPoolRunner(4)  # default small-batch threshold
        runner.run_one(ExecutionTask(protocol, factory, 10, seed=0))
        assert runner.last_stats.backend == "serial"


# -- forked pool workers -----------------------------------------------------


def _dummy_tasks(n_runs=40):
    protocol = DummyProtocol(make_swap(8))
    return [
        ExecutionTask(protocol, factory, n_runs, seed=("forked", i))
        for i, factory in enumerate(strategy_space_for_protocol(protocol)[:3])
    ]


class _Interrupting:
    """Counts one event per run and raises ``KeyboardInterrupt`` in the
    chunk that starts at ``boom_start``."""

    def __init__(self, n_runs, boom_start):
        self.n_runs = n_runs
        self.boom_start = boom_start

    def run_chunk(self, start, stop):
        if start == self.boom_start:
            raise KeyboardInterrupt
        counts = EventCounts()
        for _ in range(start, stop):
            counts.record(FairnessEvent.E11, frozenset({0}))
        return counts


class TestForkedWorkers:
    def test_chunks_are_logged_in_plan_order(self):
        """Injected faults make chunks resolve out of order; the records
        still follow the plan."""
        runner = ProcessPoolRunner(
            2, chunk_size=7, min_parallel_runs=0,
            retry=RetryPolicy(max_retries=2, backoff_s=0.01,
                              backoff_multiplier=1.0),
            fault=FaultSpec(rate=0.5, seed="order"),
        )
        tasks = _dummy_tasks()
        runner.run(tasks)
        assert runner.last_stats.retries > 0
        assert [
            (c.task_index, c.start, c.stop) for c in runner.last_stats.chunks
        ] == [
            (ti, start, stop)
            for ti, task in enumerate(tasks)
            for start, stop in plan_chunks(task.n_runs, 7)
        ]

    @pytest.mark.parametrize("end", ["complete", "early-stop", "interrupt"])
    def test_no_worker_outlives_its_batch(self, end, forks):
        threads_before = threading.active_count()
        runner = ProcessPoolRunner(
            2, chunk_size=10, min_parallel_runs=0, fault=NO_FAULTS
        )
        if end == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                runner.run([_Interrupting(100, boom_start=30)])
        else:
            rule = StopAfter(20) if end == "early-stop" else None
            runner.run(_dummy_tasks(100), early_stop=rule)
            assert runner.last_stats.stopped_early == (rule is not None)
        assert forks
        assert leak_failure(threads_before) is None

    def test_fully_journaled_batch_forks_no_worker(self, tmp_path, forks):
        def run():
            runner = ProcessPoolRunner(
                2, chunk_size=10, min_parallel_runs=0, fault=NO_FAULTS,
                journal=RunJournal(tmp_path),
            )
            return runner.run(_dummy_tasks()), runner.last_stats

        first, _ = run()
        assert len(forks) == 2
        forks.clear()
        replayed, stats = run()
        assert forks == []
        assert replayed == first
        assert stats.journal_replayed_chunks == stats.n_chunks == 12

    def test_spans_dropped_around_their_reply_count_their_stores(
        self, tmp_path
    ):
        """A span early stopping drops before its worker replies, and one
        it drops after, still count the cache entries their workers
        wrote, and closing the batch keeps no per-span counts."""
        from repro import metrics
        from repro.runtime import ChunkCache, run_task_chunk
        from repro.runtime.runner import ProcessPoolExecutor
        from repro.runtime.stats import BatchLog

        cache = ChunkCache(tmp_path)
        task = _dummy_tasks(48)[0]
        replies = []
        for start in (16, 32):
            before = metrics.snapshot()
            part = run_task_chunk(task, 0, start, start + 16, cache=cache)
            replies.append((part, None, metrics.delta(before)))

        class FakeWorker:
            class conn:
                recv = replies.pop  # the last span's reply first

            def stop(self):
                pass

        log = BatchLog()
        runner = ProcessPoolRunner(2, cache=cache, fault=NO_FAULTS)
        pool = ProcessPoolExecutor(runner, [task], [], log)
        worker = FakeWorker()
        pool.flights[worker] = collections.deque(
            [[(0, 32, 48), 0, None], [(0, 16, 32), 0, None]]
        )
        pool.dropped.add((0, 32, 48))
        pool._reply(worker)  # dropped before its reply
        pool._reply(worker)
        pool.dropped.add((0, 16, 32))  # dropped after it
        pool.close()
        written = len(list(tmp_path.glob("*/*.json")))
        assert written == 2
        assert log.counts["cache_stores"] == written
        assert not pool.inst


# -- hung honest parties -----------------------------------------------------


class _SilentMachine(PartyMachine):
    """p0 outputs its input at round 0; p1 never outputs at all."""

    def on_round(self, round_no, inbox, ctx):
        if self.index == 0 and round_no == 0:
            ctx.output(self.input)


class _SilentProtocol(Protocol):
    def __init__(self):
        self.func = make_swap(4)
        self.n_parties = 2
        self.name = "test-silent"
        self.max_rounds = 4

    def build_machines(self, rng):
        return [_SilentMachine(i, 2) for i in range(2)]


def _passive(rng):
    return PassiveAdversary()


class TestHungHonestParty:
    def test_engine_raises_with_the_hung_party_attached(self):
        with pytest.raises(ProtocolViolation) as excinfo:
            run_execution(
                _SilentProtocol(), (1, 2), PassiveAdversary(), Rng("hung")
            )
        result = excinfo.value.result
        assert result.hung == {1}
        assert set(result.outputs) == {0}
        assert not result.all_honest_received()

    def test_run_chunk_records_every_run_as_hung(self):
        task = ExecutionTask(_SilentProtocol(), _passive, 12, seed="hung")
        counts = task.run_chunk(0, 12)
        assert counts.total == 12
        assert counts.counts[FairnessEvent.HONEST_HUNG] == 12

    def test_venues_count_hung_runs_identically(self):
        def task():
            return ExecutionTask(_SilentProtocol(), _passive, 40, seed="hung")

        serial = SerialRunner(chunk_size=10).run([task()])
        pooled = pool(2, chunk_size=10).run([task()])
        assert serial == pooled
        assert pooled[0].counts[FairnessEvent.HONEST_HUNG] == 40


# -- SIGINT handling ---------------------------------------------------------


class _InterruptingTask:
    """A mergeable task whose chunk containing ``boom_at`` raises Ctrl-C."""

    label = "interrupting"

    def __init__(self, n_runs, boom_at):
        self.n_runs = n_runs
        self.boom_at = boom_at

    def run_chunk(self, start, stop):
        if start <= self.boom_at < stop:
            raise KeyboardInterrupt()
        counts = EventCounts()
        for _ in range(start, stop):
            counts.record(FairnessEvent.E11, frozenset({0}))
        return counts


class TestKeyboardInterrupt:
    def test_serial_runner_reraises_with_stats_attached(self):
        runner = SerialRunner(chunk_size=10)
        with pytest.raises(KeyboardInterrupt) as excinfo:
            runner.run([_InterruptingTask(50, boom_at=25)])
        assert runner.last_stats is not None
        assert excinfo.value.run_stats is runner.last_stats
        assert runner.last_stats.backend == "serial"

    def test_pool_runner_cancels_and_reraises_with_stats(self):
        runner = ProcessPoolRunner(2, chunk_size=10, min_parallel_runs=0)
        tasks = [
            _InterruptingTask(30, boom_at=5),
            _InterruptingTask(30, boom_at=10**9),
        ]
        with pytest.raises(KeyboardInterrupt) as excinfo:
            runner.run(tasks)
        stats = excinfo.value.run_stats
        assert stats is runner.last_stats
        assert stats.backend == "process-pool"
        # Every chunk the interrupt dropped on the floor is accounted for.
        assert stats.cancelled_chunks >= 1

    def test_uninterrupted_pool_runs_have_no_cancellations(self):
        runner = ProcessPoolRunner(2, chunk_size=10, min_parallel_runs=0)
        task = _InterruptingTask(30, boom_at=10**9)
        values = runner.run([task])
        assert values[0].total == 30
        assert runner.last_stats.cancelled_chunks == 0

    def test_venues_report_identical_cancelled_counts(self):
        """Regression: the serial venue used to drop planned-but-unrun
        spans from the log entirely on Ctrl-C, so its partial RunStats
        silently overstated coverage relative to the pool venue.  Both
        must now account the same interrupt point identically."""

        def tasks():
            return [
                _InterruptingTask(50, boom_at=25),
                _InterruptingTask(30, boom_at=10**9),
            ]

        serial = SerialRunner(chunk_size=10)
        with pytest.raises(KeyboardInterrupt):
            serial.run(tasks())
        pooled = ProcessPoolRunner(2, chunk_size=10, min_parallel_runs=0)
        with pytest.raises(KeyboardInterrupt):
            pooled.run(tasks())
        assert serial.last_stats.cancelled_chunks > 0
        assert (
            serial.last_stats.cancelled_chunks
            == pooled.last_stats.cancelled_chunks
        )
