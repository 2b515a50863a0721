"""Fault-tolerant runtime tests: deterministic fault injection, in-pool
retries, serial degradation after retry exhaustion, chunk timeouts,
broken-pool recovery, and failure-path stats.

Every test passes explicit ``retry``/``fault`` arguments so the suite is
stable no matter what ``REPRO_FAULT_RATE``/``REPRO_MAX_RETRIES`` the
environment sets (the fault-tolerance CI job sets both on purpose).
"""

import pickle
import signal
import time

import pytest

from repro.adversaries import strategy_space_for_protocol
from repro.analysis import (
    chunk_stats_to_dict,
    run_batch,
    run_stats_to_dict,
    sweep_strategies,
    to_dict,
)
from repro.core import FairnessEvent, PayoffVector
from repro.core.utility import EventCounts
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol
from repro.runtime import (
    NO_FAULTS,
    FaultSpec,
    InjectedFault,
    MeasuredCounts,
    ProcessPoolRunner,
    RetryPolicy,
    SerialRunner,
    run_task_chunk,
)

from .conftest import StopAfter

GAMMA = PayoffVector(0.0, 0.0, 1.0, 0.5)

#: Fast in-pool retries for tests.
FAST = dict(backoff_s=0.01, backoff_multiplier=1.0)


def _workload():
    protocol = Opt2SfeProtocol(make_swap(8))
    factory = strategy_space_for_protocol(protocol)[1]
    return protocol, factory


def _clean_serial(protocol, factory, n_runs, seed, **kw):
    """The failure-free serial reference measurement."""
    return run_batch(
        protocol, factory, n_runs, seed=seed,
        runner=SerialRunner(fault=NO_FAULTS), **kw,
    )


def pool(jobs, chunk_size=None, retry=None, fault=None):
    return ProcessPoolRunner(
        jobs,
        chunk_size=chunk_size,
        min_parallel_runs=0,
        retry=retry,
        fault=fault,
    )


# -- fault spec determinism and env parsing ----------------------------------


class TestFaultSpec:
    def test_fault_pattern_is_deterministic(self):
        spec = FaultSpec(rate=0.5, seed="det")
        pattern = [spec.fault_attempts(t, s) for t in range(4) for s in (0, 7, 14)]
        again = [spec.fault_attempts(t, s) for t in range(4) for s in (0, 7, 14)]
        assert pattern == again
        assert any(c > 0 for c in pattern)  # rate 0.5 over 12 chunks

    def test_consecutive_failures_then_success_forever(self):
        spec = FaultSpec(rate=0.97, seed=3, max_consecutive=4)
        for t in range(3):
            k = spec.fault_attempts(t, 0)
            assert 0 <= k <= 4
            for attempt in range(8):
                assert spec.should_fail(t, 0, attempt) == (attempt < k)

    def test_inactive_spec_never_fails(self):
        assert not NO_FAULTS.active
        assert NO_FAULTS.fault_attempts(0, 0) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="^rate must be"):
            FaultSpec(rate=1.5)
        with pytest.raises(ValueError, match="^kind must be one of"):
            FaultSpec(rate=0.5, kind="segfault")

    def test_run_task_chunk_injects(self):
        class Tiny:
            n_runs = 4

            def run_chunk(self, start, stop):
                return stop - start

        spec = FaultSpec(rate=1.0, seed=0, max_consecutive=1)
        with pytest.raises(InjectedFault):
            run_task_chunk(Tiny(), 0, 0, 4, attempt=0, fault=spec)
        # Attempt past the failure budget succeeds.
        assert run_task_chunk(Tiny(), 0, 0, 4, attempt=1, fault=spec) == 4
        # Destructive kinds degrade to a plain raise outside a worker.
        nasty = FaultSpec(rate=1.0, kind="exit", seed=0, max_consecutive=1)
        with pytest.raises(InjectedFault):
            run_task_chunk(Tiny(), 0, 0, 4, attempt=0, fault=nasty, in_worker=False)


class TestRetryPolicy:
    def test_backoff_grows(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_multiplier=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError, match="^max_retries must be"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(chunk_timeout_s=0.0)


# -- acceptance: recovery is invisible in the results ------------------------


def test_retried_chunks_are_bit_identical():
    """(a) In-pool retries reproduce the failure-free serial counts."""
    protocol, factory = _workload()
    clean = _clean_serial(protocol, factory, 60, seed=5)
    runner = pool(
        3, chunk_size=7,
        retry=RetryPolicy(max_retries=3, **FAST),
        fault=FaultSpec(rate=0.6, seed="t1"),
    )
    faulty = run_batch(protocol, factory, 60, seed=5, runner=runner)
    assert faulty == clean
    assert faulty.total == 60
    stats = faulty.run_stats
    assert stats.failed_attempts > 0
    assert stats.retries > 0
    assert stats.executions == 60


def test_retry_exhaustion_degrades_to_serial_replay():
    """(b) With retries exhausted the batch completes via in-process
    replay rather than raising — still bit-identical."""
    protocol, factory = _workload()
    clean = _clean_serial(protocol, factory, 60, seed=5)
    runner = pool(
        2, chunk_size=15,
        retry=RetryPolicy(max_retries=1, **FAST),
        fault=FaultSpec(rate=1.0, seed="t2"),  # every in-pool attempt fails
    )
    counts = run_batch(protocol, factory, 60, seed=5, runner=runner)
    assert counts == clean
    stats = counts.run_stats
    assert stats.serial_replays == stats.n_chunks == 4
    assert stats.degraded
    assert all(c.outcome == "replayed" for c in stats.chunks)


def test_worker_death_breaks_pool_and_degrades():
    """Workers that die on every attempt of every chunk leave each chunk
    to trusted serial replay, without losing or biasing the batch."""
    protocol, factory = _workload()
    clean = _clean_serial(protocol, factory, 60, seed=5)
    runner = pool(
        2, chunk_size=20,
        retry=RetryPolicy(max_retries=1, **FAST),
        fault=FaultSpec(rate=1.0, kind="exit", seed="t3"),
    )
    counts = run_batch(protocol, factory, 60, seed=5, runner=runner)
    assert counts == clean
    assert counts.run_stats.degraded
    assert counts.run_stats.serial_replays == counts.run_stats.n_chunks


def test_worker_death_costs_one_attempt_of_one_chunk():
    """A worker that dies is replaced and its chunk retried on a worker:
    the other workers' chunks are unaffected and nothing degrades to
    serial replay."""
    protocol, factory = _workload()
    clean = _clean_serial(protocol, factory, 60, seed=5)
    runner = pool(
        2, chunk_size=20,
        retry=RetryPolicy(max_retries=1, **FAST),
        fault=FaultSpec(rate=1.0, kind="exit", seed="t3", max_consecutive=1),
    )
    counts = run_batch(protocol, factory, 60, seed=5, runner=runner)
    stats = counts.run_stats
    assert counts == clean
    assert stats.failed_attempts >= 1
    assert stats.serial_replays == 0
    assert not stats.degraded


class SlowOnce:
    """Counts one event per run, napping ``nap`` seconds per chunk; the
    first time any process runs the span starting at ``slow_start`` it
    sleeps far past any test deadline instead (a marker file records
    that it has)."""

    def __init__(self, n_runs, slow_start, marker, nap=0.0):
        self.n_runs = n_runs
        self.slow_start = slow_start
        self.marker = marker
        self.nap = nap

    def run_chunk(self, start, stop):
        if start == self.slow_start and not self.marker.exists():
            self.marker.touch()
            time.sleep(60)
        time.sleep(self.nap)
        counts = EventCounts()
        for _ in range(start, stop):
            counts.record(FairnessEvent.E11, frozenset({0}))
        return counts


def test_deadline_miss_kills_only_the_late_worker(tmp_path, forks):
    """The late worker is killed and replaced.  The other worker is
    mid-chunk when that happens (its 0.4 s chunks run back to back from
    the start, and the deadline falls 1.0 s in), and it finishes every
    chunk on its first attempt; nothing is replayed serially."""
    runner = pool(
        2, chunk_size=10,
        retry=RetryPolicy(max_retries=1, chunk_timeout_s=1.0, **FAST),
        fault=NO_FAULTS,
    )
    (counts,) = runner.run([SlowOnce(60, 0, tmp_path / "slept", nap=0.4)])
    stats = runner.last_stats
    assert counts.total == 60
    assert stats.timeouts == stats.failed_attempts == 1
    assert stats.serial_replays == 0
    assert [(c.start, c.attempts, c.outcome) for c in stats.chunks] == [
        (0, 2, "retried"),
        *((start, 1, "ok") for start in range(10, 60, 10)),
    ]
    # The late worker was killed; every other one (a replacement too)
    # exited cleanly at the end of the batch.
    exits = sorted(w.process.exitcode for w in forks)
    assert exits[0] == -signal.SIGKILL
    assert exits[1:] == [0] * (len(forks) - 1)


def test_chunk_timeout_triggers_retry():
    """A chunk that stalls past its deadline is re-executed."""
    protocol, factory = _workload()
    clean = _clean_serial(protocol, factory, 30, seed=5)
    runner = pool(
        2, chunk_size=10,
        retry=RetryPolicy(max_retries=3, chunk_timeout_s=0.2, **FAST),
        fault=FaultSpec(rate=0.6, kind="sleep", sleep_s=0.6, seed="sleepy"),
    )
    counts = run_batch(protocol, factory, 30, seed=5, runner=runner)
    assert counts == clean
    assert counts.run_stats.timeouts >= 1
    assert counts.run_stats.failed_attempts >= counts.run_stats.timeouts


def test_wedged_worker_does_not_leak_pool_slot():
    """Regression: ``future.cancel()`` is a no-op on an already-*running*
    future, so a worker wedged past its deadline used to keep its pool
    slot and the retry queued behind the very sleep it was escaping —
    serially eating a queue-wait deadline per retry until the ladder
    exhausted.  A late worker is now killed and replaced, so retries
    land immediately and complete well before the sleeps would have
    drained."""
    protocol, factory = _workload()
    clean = _clean_serial(protocol, factory, 80, seed=5)
    runner = pool(
        2, chunk_size=40,
        retry=RetryPolicy(max_retries=2, chunk_timeout_s=0.15, **FAST),
        # Every chunk's first attempt sleeps 3 s — 20x the deadline, and
        # longer than the whole test budget if a slot were still leaked.
        fault=FaultSpec(
            rate=1.0, kind="sleep", sleep_s=3.0, seed="wedge",
            max_consecutive=1,
        ),
    )
    t0 = time.perf_counter()
    counts = run_batch(protocol, factory, 80, seed=5, runner=runner)
    elapsed = time.perf_counter() - t0
    assert counts == clean
    assert counts.run_stats.timeouts >= 1
    # The retries themselves landed in the pool: no degradation to
    # trusted serial replay, and no waiting out the 3 s sleeps.
    assert counts.run_stats.serial_replays == 0
    assert not counts.run_stats.degraded
    assert elapsed < 3.0


def test_serial_runner_walks_the_same_ladder():
    """The serial backend (and thus the pool's small-batch fallback) is
    just as fault-tolerant."""
    protocol, factory = _workload()
    clean = _clean_serial(protocol, factory, 30, seed=5)
    runner = SerialRunner(
        retry=RetryPolicy(max_retries=1, **FAST),
        fault=FaultSpec(rate=1.0, seed="serial-faults"),
    )
    counts = run_batch(protocol, factory, 30, seed=5, runner=runner)
    assert counts == clean
    assert counts.run_stats.backend == "serial"
    assert counts.run_stats.serial_replays == counts.run_stats.n_chunks == 1

    fallback = ProcessPoolRunner(  # 30 runs < default threshold -> serial
        4,
        retry=RetryPolicy(max_retries=1, **FAST),
        fault=FaultSpec(rate=1.0, seed="serial-faults"),
    )
    via_fallback = run_batch(protocol, factory, 30, seed=5, runner=fallback)
    assert via_fallback == clean
    assert fallback.last_stats.backend == "serial"


def test_early_stop_and_retry_stop_at_same_run_index():
    """(d) Early stopping under fault injection halts at the identical
    run index as the failure-free serial backend."""
    protocol, factory = _workload()
    rule = StopAfter(100)
    serial = run_batch(
        protocol, factory, 300, seed=8,
        runner=SerialRunner(chunk_size=25, fault=NO_FAULTS), early_stop=rule,
    )
    faulty = run_batch(
        protocol, factory, 300, seed=8, early_stop=rule,
        runner=pool(
            3, chunk_size=25,
            retry=RetryPolicy(max_retries=3, **FAST),
            fault=FaultSpec(rate=0.5, seed="es"),
        ),
    )
    assert serial == faulty
    assert serial.total == faulty.total == 100
    assert faulty.run_stats.stopped_early
    assert faulty.run_stats.cancelled_chunks > 0


def test_sweep_with_faults_matches_clean_sweep():
    """Recovery also composes with multi-task sweeps."""
    protocol = Opt2SfeProtocol(make_swap(8))
    factories = strategy_space_for_protocol(protocol)[:3]
    clean = sweep_strategies(
        protocol, factories, GAMMA, n_runs=40, seed=(11, "sweep"),
        runner=SerialRunner(fault=NO_FAULTS),
    )
    faulty = sweep_strategies(
        protocol, factories, GAMMA, n_runs=40, seed=(11, "sweep"),
        runner=pool(
            2, chunk_size=10,
            retry=RetryPolicy(max_retries=2, **FAST),
            fault=FaultSpec(rate=0.4, seed="sweep"),
        ),
    )
    assert clean == faulty


# -- failure-path observability ----------------------------------------------


class AlwaysBroken:
    """A task with a genuine bug: every attempt raises."""

    n_runs = 40

    def run_chunk(self, start, stop):
        raise ValueError("genuine task bug")


def test_real_bug_propagates_but_stats_and_siblings_survive():
    """A genuine task bug still raises — after cancelling outstanding
    futures and recording last_stats in a finally."""
    runner = pool(
        2, chunk_size=10,
        retry=RetryPolicy(max_retries=1, **FAST), fault=NO_FAULTS,
    )
    with pytest.raises(ValueError):
        runner.run([AlwaysBroken()])
    assert runner.last_stats is not None
    assert runner.last_stats.failed_attempts >= 2  # first try + retry

    serial = SerialRunner(retry=RetryPolicy(max_retries=2, **FAST), fault=NO_FAULTS)
    with pytest.raises(ValueError):
        serial.run([AlwaysBroken()])
    assert serial.last_stats is not None
    assert serial.last_stats.failed_attempts == 3  # initial + 2 retries


def test_chunk_records_partition_the_run_range():
    protocol, factory = _workload()
    runner = pool(
        2, chunk_size=16,
        retry=RetryPolicy(max_retries=2, **FAST),
        fault=FaultSpec(rate=0.5, seed="records"),
    )
    counts = run_batch(protocol, factory, 64, seed=2, runner=runner)
    stats = counts.run_stats
    spans = sorted((c.start, c.stop) for c in stats.chunks)
    assert spans == [(0, 16), (16, 32), (32, 48), (48, 64)]
    for c in stats.chunks:
        assert c.outcome in ("ok", "retried", "replayed")
        assert c.attempts >= 1
        assert c.n_runs == c.stop - c.start
    retried = [c for c in stats.chunks if c.outcome in ("retried", "replayed")]
    assert len(retried) > 0
    assert all(c.attempts > 1 for c in retried)


def test_failure_stats_export():
    protocol, factory = _workload()
    runner = pool(
        2, chunk_size=10,
        retry=RetryPolicy(max_retries=2, **FAST),
        fault=FaultSpec(rate=0.5, seed="export"),
    )
    counts = run_batch(protocol, factory, 40, seed=1, runner=runner)
    d = to_dict(counts.run_stats)
    assert d == run_stats_to_dict(counts.run_stats)
    for key in (
        "failed_attempts", "retries", "timeouts", "serial_replays",
        "cancelled_chunks", "degraded", "chunks",
    ):
        assert key in d
    assert d["failed_attempts"] == counts.run_stats.failed_attempts
    assert len(d["chunks"]) == len(counts.run_stats.chunks)
    chunk = counts.run_stats.chunks[0]
    assert to_dict(chunk) == chunk_stats_to_dict(chunk)
    assert chunk_stats_to_dict(chunk)["outcome"] == chunk.outcome

    history = runner.stats_history
    assert history[-1] is runner.last_stats


def test_measured_counts_semantics():
    protocol, factory = _workload()
    counts = _clean_serial(protocol, factory, 20, seed=9)
    assert isinstance(counts, MeasuredCounts)
    assert counts.run_stats is not None
    assert counts.run_stats.executions == 20

    # Equality is by event counts alone, symmetric with EventCounts.
    bare = EventCounts().merge(counts)
    assert counts == bare and bare == counts

    # Stats survive pickling (they no longer ride a dynamic attribute).
    thawed = pickle.loads(pickle.dumps(counts))
    assert thawed == counts
    assert thawed.run_stats == counts.run_stats

    # Merging folds back into plain counts: run_stats describes one
    # finished batch, not a combination of them.
    other = _clean_serial(protocol, factory, 20, seed=10)
    merged = counts + other
    assert merged.total == 40
    assert not hasattr(merged, "run_stats")


def test_explicit_no_faults_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
    runner = SerialRunner(fault=NO_FAULTS)
    assert runner.fault is None
    env_runner = SerialRunner()
    assert env_runner.fault is not None and env_runner.fault.rate == 1.0
