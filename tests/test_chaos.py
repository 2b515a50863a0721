"""Composed faults never change a result: the runtime's chaos property.

The runtime's failure semantics are tested piecewise elsewhere (retry
ladder, store integrity, journal resume, worker death); this module
tests them composed.  One trial picks a venue (serial or pool), a set of
fault dimensions, a seed and a fault rate, runs a fixed two-task
workload under those faults, and asserts what the runtime promises
whatever was injected:

* the merged payload equals a fault-free serial baseline, byte for byte
  (``payload_fingerprint``, the partial codec ``deterministic_payload``
  rests on);
* every requested run is covered;
* the failure counters match the injected schedule: exactly on the
  serial venue, where ``FaultSpec.fault_attempts`` is the whole story,
  and as a failed-attempt trace on the pool;
* a rerun replays journaled spans, and corrupted journal and cache
  entries show up in the corruption counters;
* no pool worker process and no extra thread outlives the trial.

Dimensions
----------
``chunk-faults``        deterministic injected chunk failures (``raise``)
``worker-kill``         injected faults kill the pool worker (``exit``)
``interrupt-resume``    KeyboardInterrupt mid-batch, then a rerun
``cache-corruption``    a warm chunk-cache entry gets a byte flipped
``journal-corruption``  a journal entry gets a byte flipped before a rerun

``interrupt-resume`` never composes with the two corruption dimensions:
they pre-populate the store, and a stored span is never re-executed, so
the interrupting chunk would never run.  :data:`DIMENSION_SETS` leaves
those sets out, so no drawn dimension is ever dropped.

Tier-1 runs the property derandomized, with a fixed number of examples
and no example database.  CI's chaos-soak job selects a bigger budget
with ``pytest --hypothesis-profile=chaos-soak`` (registered in
``conftest.py``).  Two plain tests kill a real ``repro verify`` process
(SIGKILL plus one corrupted journal entry, and SIGINT) and require the
rerun over the same ``--journal`` to give a byte-identical
``deterministic_payload``.
"""

import functools
import itertools
import json
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adversaries import strategy_space_for_protocol
from repro.analysis.export import deterministic_payload
from repro.core import FairnessEvent
from repro.core.utility import EventCounts
from repro.crypto import Rng
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol
from repro.runtime import (
    NO_FAULTS,
    ChunkCache,
    ExecutionTask,
    FaultSpec,
    ProcessPoolRunner,
    RetryPolicy,
    RunJournal,
    SerialRunner,
    plan_chunks,
)
from repro.runtime.cache import chunk_key

from .conftest import leak_failure, payload_fingerprint

VENUES = ("serial", "pool")

DIMENSIONS = (
    "chunk-faults",
    "worker-kill",
    "interrupt-resume",
    "cache-corruption",
    "journal-corruption",
)

#: Dimensions that pre-populate the store the trial's main run reads.
PREPOPULATING = ("cache-corruption", "journal-corruption")

#: Every composable set of one to three dimensions, in canonical order.
DIMENSION_SETS = tuple(
    dims
    for k in (1, 2, 3)
    for dims in itertools.combinations(DIMENSIONS, k)
    if not ("interrupt-resume" in dims and set(dims) & set(PREPOPULATING))
)

#: Runs per task and chunk size: four chunks per task.
RUNS, CHUNK = 24, 6

#: Fast retry ladder so injected faults do not dominate the wall clock.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_s=0.01, backoff_multiplier=1.0)

#: Each example is a whole trial (a pool trial takes up to ~0.3 s), so
#: tier-1 draws a fixed few, reproducibly, and writes no database.
TRIAL_SETTINGS = settings(
    max_examples=20, derandomize=True, database=None, deadline=None
)
if settings.default is settings.get_profile("chaos-soak"):
    TRIAL_SETTINGS = settings.default


def fault_spec(dims, rate, seed):
    """The chunk fault spec a trial's dimensions imply, or ``None``."""
    if "worker-kill" in dims:
        kind = "exit"
    elif "chunk-faults" in dims:
        kind = "raise"
    else:
        return None
    return FaultSpec(
        rate=rate, kind=kind, seed=("chaos-fault", seed), max_consecutive=2
    )


def _tasks():
    """A fresh task list (tasks hold per-run state such as setup memos).

    Two lock-watching strategies under a seed at which every span of a
    task has its own partial, so a store that serves one span's partial
    for another changes the payload (``test_spans_are_distinguishable``).
    """
    protocol = Opt2SfeProtocol(make_swap(8))
    return [
        ExecutionTask(protocol, factory, RUNS, seed=("chaos-workload", 0))
        for factory in strategy_space_for_protocol(protocol)
        if factory.name.startswith("lock-watch")
    ]


def _runner(venue, fault, journal=None, cache=None):
    kwargs = dict(
        chunk_size=CHUNK, retry=FAST_RETRY, fault=fault or NO_FAULTS,
        journal=journal, cache=cache,
    )
    if venue == "serial":
        return SerialRunner(**kwargs)
    return ProcessPoolRunner(2, min_parallel_runs=0, **kwargs)


@functools.lru_cache(maxsize=None)
def _baseline():
    """Fingerprint of the fault-free serial run."""
    return payload_fingerprint(_runner("serial", None).run(_tasks()))


class _InterruptingTask:
    """Delegating task that raises ``KeyboardInterrupt`` on one span.

    It shares the inner task's ``cache_material`` and so its journal
    key: the spans it does complete are replayed by the unwrapped task.
    """

    def __init__(self, inner, boom_start):
        self._inner = inner
        self._boom_start = boom_start

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_chunk(self, start, stop):
        if start == self._boom_start:
            raise KeyboardInterrupt(f"chaos: injected interrupt at run {start}")
        return self._inner.run_chunk(start, stop)


def _flip_byte(path):
    """Corrupt the middle byte of a file (XOR, so always a change)."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _corrupt_one(root, victim):
    """Flip a byte of entry number ``victim`` (mod the entry count) and
    return its path.

    The cache and the journal key entries alike, so one ``victim``
    names the same span in both: once the journal entry is quarantined,
    the recomputation reads the corrupted cache entry.
    """
    entries = sorted(root.glob("*/*.json"))
    assert entries, f"the seeding run stored nothing under {root}"
    path = entries[victim % len(entries)]
    _flip_byte(path)
    return path


def run_trial(venue, dims, seed, rate, workdir):
    """Run one trial and assert every invariant its dimensions imply."""
    rng = Rng(("chaos-trial", seed))
    fault = fault_spec(dims, rate, seed)
    journal_dir, cache_dir = workdir / "journal", workdir / "cache"
    threads_before = threading.active_count()

    # Populate and damage the stores under test.
    victim = rng.randrange(1 << 16)
    if "cache-corruption" in dims:
        _runner("serial", None, cache=ChunkCache(cache_dir)).run(_tasks())
        corrupt_entry = _corrupt_one(cache_dir, victim)
    if "journal-corruption" in dims:
        _runner("serial", None, journal=RunJournal(journal_dir)).run(_tasks())
        _corrupt_one(journal_dir, victim)
    if "interrupt-resume" in dims:
        spans = plan_chunks(RUNS, CHUNK)
        tasks = _tasks()
        boom_start = spans[1 + rng.randrange(len(spans) - 1)][0]
        tasks[0] = _InterruptingTask(tasks[0], boom_start)
        interrupted = _runner(venue, fault, journal=RunJournal(journal_dir))
        with pytest.raises(KeyboardInterrupt):
            interrupted.run(tasks)
        assert interrupted.last_stats.cancelled_chunks >= 1

    cache = ChunkCache(cache_dir) if "cache-corruption" in dims else None
    runner = _runner(venue, fault, RunJournal(journal_dir), cache)
    tasks = _tasks()
    values = runner.run(tasks)
    stats = runner.last_stats

    assert payload_fingerprint(values) == _baseline()
    assert stats.executions == stats.requested
    if fault is not None:
        schedule = [
            fault.fault_attempts(c.task_index, c.start)
            for c in stats.chunks
            if c.outcome in ("ok", "retried", "replayed")
        ]
        if venue == "serial":
            # Serial execution is deterministic: the counters are
            # exactly what the schedule predicts.
            attempts = FAST_RETRY.max_retries + 1
            assert stats.failed_attempts == sum(
                min(n, attempts) for n in schedule
            )
            assert stats.serial_replays == sum(n >= attempts for n in schedule)
        elif any(schedule):
            assert stats.failed_attempts >= 1
    if {"interrupt-resume", "journal-corruption"} & set(dims):
        assert stats.journal_replayed_chunks >= 1
    if "journal-corruption" in dims:
        assert stats.journal_corrupt_records >= 1
    if "cache-corruption" in dims:
        # The trusted serial replay never reads the cache, so a span that
        # ended there leaves its corrupted entry unread.
        replayed = {
            chunk_key(tasks[c.task_index], c.start, c.stop)
            for c in stats.chunks
            if c.outcome == "replayed"
        }
        assert (
            stats.cache_corrupt_entries >= 1
            or corrupt_entry.stem in replayed
        )
    assert leak_failure(threads_before) is None


@TRIAL_SETTINGS
@given(
    venue=st.sampled_from(VENUES),
    dims=st.sampled_from(DIMENSION_SETS),
    seed=st.integers(0, 2**32 - 1),
    rate=st.floats(0.25, 0.6),
)
# The combinations the robustness story hangs on run on every pass.
@example(venue="serial", dims=("journal-corruption",), seed=0, rate=0.4)
@example(venue="pool", dims=("chunk-faults", "interrupt-resume"), seed=0,
         rate=0.4)
@example(venue="pool", dims=("chunk-faults", "worker-kill"), seed=0, rate=0.4)
@example(venue="serial", dims=("chunk-faults", "cache-corruption"), seed=0,
         rate=0.4)
def test_composed_faults_never_change_the_payload(venue, dims, seed, rate):
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        run_trial(venue, dims, seed, rate, Path(workdir))


@pytest.mark.parametrize("venue", VENUES)
@pytest.mark.parametrize("dim", DIMENSIONS)
def test_each_dimension_alone(dim, venue, tmp_path):
    run_trial(venue, (dim,), seed=1, rate=0.4, workdir=tmp_path)


def test_spans_are_distinguishable():
    for task in _tasks():
        partials = [
            payload_fingerprint([task.run_chunk(start, stop)])
            for start, stop in plan_chunks(RUNS, CHUNK)
        ]
        assert len(set(partials)) == len(partials)


class TestPlanning:
    """The dimension sets the property draws from."""

    def test_every_trial_names_at_least_one_dimension(self):
        for dims in DIMENSION_SETS:
            assert dims and set(dims) <= set(DIMENSIONS)

    def test_planner_never_composes_interrupt_with_prepopulation(self):
        for dims in DIMENSION_SETS:
            if "interrupt-resume" in dims:
                assert not set(dims) & set(PREPOPULATING)


class TestTrialSpec:
    """A trial's dimensions imply its chunk fault spec."""

    def test_worker_kill_implies_exit_faults(self):
        assert fault_spec(("worker-kill",), 0.3, 0).kind == "exit"

    def test_chunk_faults_imply_raise(self):
        assert fault_spec(("chunk-faults",), 0.3, 0).kind == "raise"

    def test_kill_wins_over_raise(self):
        spec = fault_spec(("chunk-faults", "worker-kill"), 0.3, 0)
        assert spec.kind == "exit"

    def test_fault_free_dimensions_have_no_spec(self):
        assert fault_spec(("journal-corruption",), 0.3, 0) is None


class TestFingerprint:
    def _values(self, n):
        counts = EventCounts()
        for i in range(n):
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


# -- process trials: kill a real `repro verify`, then rerun it -------------


def _verify_cmd(json_out, journal=None):
    cmd = [
        sys.executable, "-m", "repro", "--seed", "chaos", "verify",
        "--claims", "E2", "--budget", "small", "--json", str(json_out),
    ]
    if journal is not None:
        cmd += ["--journal", str(journal)]
    return cmd


@pytest.fixture(scope="module")
def verify_baseline(fresh_env, tmp_path_factory):
    """Exit code and deterministic payload of an uninterrupted run."""
    out = tmp_path_factory.mktemp("verify") / "baseline.json"
    proc = subprocess.run(
        _verify_cmd(out), env=fresh_env, capture_output=True, text=True,
        timeout=600,
    )
    assert out.exists(), proc.stderr
    return proc.returncode, deterministic_payload(json.loads(out.read_text()))


def _kill_then_rerun(sig, corrupt, env, workdir, baseline):
    journal = workdir / "journal"
    proc = subprocess.Popen(
        _verify_cmd(workdir / "interrupted.json", journal), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Two durable entries before the signal: one to corrupt, one
        # whose replay shows that the rerun resumed.
        deadline = time.monotonic() + 300
        while (
            proc.poll() is None
            and time.monotonic() < deadline
            and len(list(journal.glob("*/*.json"))) < 2
        ):
            time.sleep(0.01)
        if proc.poll() is None:
            proc.send_signal(sig)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    entries = sorted(journal.glob("*/*.json"))
    assert len(entries) >= 2
    if corrupt:
        _flip_byte(entries[len(entries) // 2])

    out = workdir / "resumed.json"
    resumed = subprocess.run(
        _verify_cmd(out, journal), env=env, capture_output=True, text=True,
        timeout=600,
    )
    code, payload = baseline
    assert resumed.returncode == code, resumed.stderr
    report = json.loads(out.read_text())
    assert deterministic_payload(report) == payload
    run_stats = [
        stats
        for check in report["checks"]
        for stats in check["timing"]["run_stats"]
    ]
    assert sum(s["journal_replayed_chunks"] for s in run_stats) >= 1
    if corrupt:
        assert sum(s["journal_corrupt_records"] for s in run_stats) >= 1


def test_sigkill_and_a_corrupted_entry_then_rerun(
    fresh_env, tmp_path, verify_baseline
):
    _kill_then_rerun(signal.SIGKILL, True, fresh_env, tmp_path, verify_baseline)


def test_sigint_then_rerun(fresh_env, tmp_path, verify_baseline):
    _kill_then_rerun(signal.SIGINT, False, fresh_env, tmp_path, verify_baseline)
