"""The runtime metrics registry and the one path it feeds.

Every counter is named once, where it is counted, and reaches
``RunStats`` and its JSON export through one snapshot/delta path on
every venue.  These tests pin the exported key set and the deterministic
counter values of a batch that meets each store outcome (a cache hit, a
journal replay, a quarantined journal entry, kernel and reference
chunks), and show that a counter added inside a task needs no edit
anywhere else to be exported.
"""

import multiprocessing
import sys
import threading

import pytest

from repro import metrics
from repro.adversaries import (
    LockWatchingAborter,
    fixed,
    strategy_space_for_protocol,
)
from repro.analysis import run_stats_to_dict
from repro.functions import make_concat, make_swap
from repro.protocols import Opt2SfeProtocol, OptNSfeProtocol
from repro.runtime import (
    NO_FAULTS,
    ChunkCache,
    ExecutionTask,
    ProcessPoolRunner,
    RunJournal,
    SerialRunner,
)
from repro.runtime.cache import chunk_key, entry_path


def _serial(**stores):
    return SerialRunner(fault=NO_FAULTS, **stores)


def _pool(**stores):
    return ProcessPoolRunner(2, min_parallel_runs=0, fault=NO_FAULTS, **stores)


VENUES = {"serial": _serial, "pool": _pool}


class TestRegistry:
    def test_delta_holds_only_what_moved(self):
        before = metrics.snapshot()
        metrics.add("test_metrics_probe")
        metrics.add("test_metrics_probe", 2)
        metrics.add("test_metrics_probe_s", 0.5)
        assert metrics.delta(before) == {
            "test_metrics_probe": 3,
            "test_metrics_probe_s": 0.5,
        }
        assert metrics.value("test_metrics_probe") >= 3

    def test_an_unknown_name_reads_zero(self):
        assert metrics.value("test_metrics_never_counted") == 0

    def test_threads_lose_no_count(self):
        """The service's request threads count into the same table: no
        increment may be lost, not even when threads meet a name at once
        for the first time."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = metrics.snapshot()
            start = threading.Barrier(8)

            def count():
                start.wait(60)
                for k in range(2000):
                    metrics.add(f"test_metrics_thread_{k}")

            threads = [threading.Thread(target=count) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        delta = metrics.delta(before)
        assert all(delta[f"test_metrics_thread_{k}"] == 8 for k in range(2000))

    def test_a_forked_child_can_count_while_the_parent_holds_the_lock(self):
        """Pool workers and job processes are forked from processes with
        other threads; a lock copied held would hang the child."""
        fork = multiprocessing.get_context("fork")
        with metrics._LOCK:
            child = fork.Process(target=metrics.add, args=("test_fork",))
            child.start()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join(30)
        assert child.exitcode == 0

    def test_defaults_cover_every_exported_name(self):
        filled = metrics.with_defaults({"cache_hits": 2, "extra": 1})
        assert list(filled)[: len(metrics.EXPORTED)] == list(metrics.EXPORTED)
        assert filled["cache_hits"] == 2 and filled["extra"] == 1
        assert filled["setup_s"] == 0.0 and filled["retries"] == 0


# -- the pinned batch ---------------------------------------------------------


def _tasks():
    """One task the kernels run (two calibration runs) and one the
    reference engine runs, 64 runs each: four 16-run spans apiece."""
    nsfe = OptNSfeProtocol(make_concat(3, 8))
    watch = fixed("lock-watch[0]", lambda: LockWatchingAborter({0}))
    two = Opt2SfeProtocol(make_swap(16))
    strategy = strategy_space_for_protocol(two)[1]
    return [
        ExecutionTask(nsfe, watch, 64, seed="pin-vectorized"),
        ExecutionTask(two, strategy, 64, seed="pin-reference"),
    ]


def _pinned_stats(make_runner, root):
    """The batch's export after warming the setup memos (so the memo
    counts do not depend on what ran earlier in the process), with a
    cache that holds the reference task's first span and a journal that
    holds the kernel task's second span plus one corrupted entry."""
    _serial().run(_tasks())
    cache = ChunkCache(root / "cache")
    warm = _tasks()[1]
    warm.n_runs = 16
    _serial(cache=cache).run([warm])
    journal = RunJournal(root / "journal")
    kernel_task, reference_task = _tasks()
    journal.record(kernel_task, 16, 32, kernel_task.run_chunk(16, 32))
    journal.record(reference_task, 32, 48, reference_task.run_chunk(32, 48))
    torn = entry_path(journal.root, chunk_key(reference_task, 32, 48))
    torn.write_bytes(torn.read_bytes()[:-3])
    runner = make_runner(cache=cache, journal=journal)
    runner.run(_tasks())
    return runner.last_stats, run_stats_to_dict(runner.last_stats)


#: Every key ``run_stats_to_dict`` exports for a batch.
EXPORT_KEYS = {
    "backend", "jobs", "n_tasks", "n_chunks", "requested", "executions",
    "wall_clock_s", "executions_per_sec", "stopped_early", "failed_attempts",
    "retries", "timeouts", "serial_replays", "cancelled_chunks",
    "journal_replayed_chunks", "journal_appended_chunks",
    "journal_corrupt_records", "cache_corrupt_entries", "cache_write_errors",
    "degraded", "setup_s", "execute_s", "classify_s", "memo_hits",
    "memo_misses", "cache_hits", "cache_misses", "cache_stores",
    "execution_backend", "vectorized_runs", "calibration_runs",
    "service_dedup_hits", "service_rate_limited", "chunks",
}

#: Wall-clock figures: everything else in the export is deterministic.
TIMING = {"wall_clock_s", "executions_per_sec", "setup_s", "execute_s",
          "classify_s"}

PINNED = {
    "n_tasks": 2, "n_chunks": 8, "requested": 128, "executions": 128,
    "stopped_early": False, "degraded": False, "execution_backend": "mixed",
    "failed_attempts": 0, "retries": 0, "timeouts": 0, "serial_replays": 0,
    "cancelled_chunks": 0, "journal_replayed_chunks": 1,
    "journal_appended_chunks": 7, "journal_corrupt_records": 1,
    "cache_corrupt_entries": 0, "cache_write_errors": 0, "cache_hits": 1,
    "cache_misses": 6, "cache_stores": 6, "memo_hits": 125, "memo_misses": 0,
    "vectorized_runs": 48, "calibration_runs": 2, "service_dedup_hits": 0,
    "service_rate_limited": 0,
}

#: ``(task, start, stop, attempts, outcome, cache, engine)`` per chunk.
PINNED_CHUNKS = [
    (0, 0, 16, 1, "ok", "stored", "vectorized"),
    (0, 16, 32, 0, "journaled", "", "journal"),
    (0, 32, 48, 1, "ok", "stored", "vectorized"),
    (0, 48, 64, 1, "ok", "stored", "vectorized"),
    (1, 0, 16, 1, "ok", "hit", "cache"),
    (1, 16, 32, 1, "ok", "stored", "reference"),
    (1, 32, 48, 1, "ok", "stored", "reference"),
    (1, 48, 64, 1, "ok", "stored", "reference"),
]


@pytest.mark.parametrize("venue", sorted(VENUES))
def test_export_keys_and_counter_values_are_pinned(venue, tmp_path):
    stats, exported = _pinned_stats(VENUES[venue], tmp_path)
    assert set(exported) == EXPORT_KEYS
    backend, jobs, chunk_venue = {
        "serial": ("serial", 1, "serial"),
        "pool": ("process-pool", 2, "pool"),
    }[venue]
    assert (exported["backend"], exported["jobs"]) == (backend, jobs)
    deterministic = {
        k: v for k, v in exported.items()
        if k not in TIMING | {"backend", "jobs", "chunks"}
    }
    assert deterministic == PINNED
    assert [
        (c["task_index"], c["start"], c["stop"], c["attempts"], c["outcome"],
         c["cache"], c["engine"])
        for c in exported["chunks"]
    ] == PINNED_CHUNKS
    assert {c["backend"] for c in exported["chunks"]} == {chunk_venue}
    for key, value in PINNED.items():
        assert getattr(stats, key) == value


# -- a new counter touches one file -------------------------------------------


class _ProbedTask(ExecutionTask):
    """A task that counts its runs under a name no module declares."""

    def run_chunk(self, start, stop):
        metrics.add("test_probe_runs", stop - start)
        return super().run_chunk(start, stop)


@pytest.mark.parametrize("venue", sorted(VENUES))
def test_a_counter_added_in_a_task_is_exported(venue):
    protocol = Opt2SfeProtocol(make_swap(16))
    strategy = strategy_space_for_protocol(protocol)[0]
    runner = VENUES[venue](chunk_size=16, backend="reference")
    runner.run([_ProbedTask(protocol, strategy, 64, seed="probe")])
    stats = runner.last_stats
    assert stats.backend == {"serial": "serial", "pool": "process-pool"}[venue]
    assert stats.test_probe_runs == 64
    assert run_stats_to_dict(stats)["test_probe_runs"] == 64
