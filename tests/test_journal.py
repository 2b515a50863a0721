"""Crash-safe run ledger: record/replay round-trips on every venue,
quarantine of corrupt entries, records of tasks that share a label
surviving each other, opaque-task exclusion, the entry format shared
with the chunk cache, the rename-only write path and the entries a
machine crash can leave, and the resolve_journal precedence contract
(``--journal`` vs ``REPRO_JOURNAL_DIR``)."""

import os

import pytest

from repro import metrics
from repro.adversaries import strategy_space_for_protocol
from repro.core.utility import EventCounts
from repro.core import FairnessEvent
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol
from repro.runtime import (
    CACHE_SCHEMA_VERSION,
    NO_FAULTS,
    ChunkCache,
    ExecutionTask,
    ProcessPoolRunner,
    SMALL_BATCH_THRESHOLD,
    RetryPolicy,
    RunJournal,
    SerialRunner,
    resolve_journal,
)
from repro.runtime.cache import _HEADER_BYTES, chunk_key, entry_path

from .conftest import payload_fingerprint

FAST = dict(backoff_s=0.01, backoff_multiplier=1.0)


def _tasks(n_runs=24, seed="journal-test"):
    protocol = Opt2SfeProtocol(make_swap(8))
    space = strategy_space_for_protocol(protocol)[:2]
    return [
        ExecutionTask(protocol, f, n_runs, seed=(seed, f.name))
        for f in space
    ]


def _serial(journal=None):
    return SerialRunner(
        chunk_size=6,
        retry=RetryPolicy(max_retries=2, **FAST),
        fault=NO_FAULTS,
        journal=journal,
    )


def _pool(journal=None):
    return ProcessPoolRunner(
        2,
        chunk_size=6,
        retry=RetryPolicy(max_retries=2, **FAST),
        fault=NO_FAULTS,
        journal=journal,
    )


#: Both venues, each given a batch large enough that the pool does not
#: fall back to serial (``SMALL_BATCH_THRESHOLD`` runs in all).
VENUES = {"serial": _serial, "pool": _pool}
_VENUE_RUNS = SMALL_BATCH_THRESHOLD // 2


def _entries(root):
    return sorted(root.glob("*/*.json"))


@pytest.fixture(autouse=True)
def _no_ambient_journal(monkeypatch):
    """Explicit journals only: ambient env knobs must not leak in."""
    monkeypatch.delenv("REPRO_JOURNAL_DIR", raising=False)


# -- keys ---------------------------------------------------------------------


class TestKeys:
    def test_key_is_deterministic(self):
        task = _tasks()[0]
        assert chunk_key(task, 0, 6) == chunk_key(task, 0, 6)

    def test_key_varies_with_span_and_content(self):
        a, b = _tasks()
        keys = {
            chunk_key(a, 0, 6),
            chunk_key(a, 6, 12),
            chunk_key(b, 0, 6),
        }
        assert len(keys) == 3

    def test_opaque_task_has_no_key(self):
        class Opaque:
            label = "opaque"
            n_runs = 12

        assert chunk_key(Opaque(), 0, 6) is None


# -- record / replay round trips ---------------------------------------------


class TestRecordResume:
    def test_serial_resume_replays_every_span(self, tmp_path):
        baseline = _serial().run(_tasks())

        first = _serial(journal=RunJournal(tmp_path))
        values = first.run(_tasks())
        assert values == baseline
        stats = first.last_stats
        assert stats.journal_appended_chunks == stats.n_chunks
        assert stats.journal_replayed_chunks == 0

        second = _serial(journal=RunJournal(tmp_path))
        resumed = second.run(_tasks())
        assert payload_fingerprint(resumed) == payload_fingerprint(baseline)
        stats = second.last_stats
        assert stats.journal_replayed_chunks == stats.n_chunks
        assert stats.journal_appended_chunks == 0
        assert stats.executions == stats.requested
        assert all(c.outcome == "journaled" for c in stats.chunks)
        assert all(c.engine == "journal" for c in stats.chunks)

    def test_pool_resumes_a_serial_journal(self, tmp_path):
        baseline = _serial().run(_tasks())
        _serial(journal=RunJournal(tmp_path)).run(_tasks())
        pool = ProcessPoolRunner(
            2,
            chunk_size=6,
            min_parallel_runs=0,
            retry=RetryPolicy(max_retries=2, **FAST),
            fault=NO_FAULTS,
            journal=RunJournal(tmp_path),
        )
        resumed = pool.run(_tasks())
        assert payload_fingerprint(resumed) == payload_fingerprint(baseline)
        stats = pool.last_stats
        assert stats.journal_replayed_chunks == stats.n_chunks

    def test_partial_journal_recomputes_only_the_gap(self, tmp_path):
        baseline = _serial().run(_tasks())
        _serial(journal=RunJournal(tmp_path)).run(_tasks())

        # Drop one record: that single span must recompute, the rest replay.
        records = _entries(tmp_path)
        records[len(records) // 2].unlink()

        resumed = _serial(journal=RunJournal(tmp_path))
        values = resumed.run(_tasks())
        assert payload_fingerprint(values) == payload_fingerprint(baseline)
        stats = resumed.last_stats
        assert stats.journal_replayed_chunks == stats.n_chunks - 1
        # The recomputed chunk is re-journaled for the next resume.
        assert stats.journal_appended_chunks == 1

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        """SIGINT-at-a-chunk-boundary simulation: the interrupted batch
        leaves a durable prefix, and a rerun against the same journal
        completes it to the exact fingerprint of an uninterrupted run."""
        baseline = _serial().run(_tasks())

        class Booby:
            def __init__(self, inner, boom_start):
                self._inner = inner
                self._boom = boom_start

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def run_chunk(self, start, stop):
                if start == self._boom:
                    raise KeyboardInterrupt()
                return self._inner.run_chunk(start, stop)

        tasks = _tasks()
        wrapped = [Booby(tasks[0], boom_start=12), tasks[1]]
        first = _serial(journal=RunJournal(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            first.run(wrapped)
        assert first.last_stats.cancelled_chunks >= 1
        assert len(RunJournal(tmp_path)) >= 1

        second = _serial(journal=RunJournal(tmp_path))
        values = second.run(_tasks())
        assert payload_fingerprint(values) == payload_fingerprint(baseline)
        assert second.last_stats.journal_replayed_chunks >= 1


# -- write path and machine-crash leftovers -----------------------------------


@pytest.mark.parametrize("venue", sorted(VENUES))
def test_journal_writes_without_fsync(venue, tmp_path, monkeypatch):
    """Journal and chunk cache share one rename-only write path: a
    journaled batch on either venue records every span without ever
    calling ``os.fsync``."""
    baseline = _serial().run(_tasks(_VENUE_RUNS))

    def no_fsync(fd):
        raise AssertionError("the run journal must not fsync")

    monkeypatch.setattr(os, "fsync", no_fsync)
    runner = VENUES[venue](journal=RunJournal(tmp_path))
    values = runner.run(_tasks(_VENUE_RUNS))
    stats = runner.last_stats
    assert stats.backend == ("serial" if venue == "serial" else "process-pool")
    assert stats.journal_appended_chunks == stats.n_chunks
    assert payload_fingerprint(values) == payload_fingerprint(baseline)


#: What a machine crash can leave at an entry's final path once the
#: rename reached the disk before the data did.
TORN_ENTRIES = {
    "empty": lambda raw: b"",
    "header-only": lambda raw: raw[:_HEADER_BYTES],
    "zero-filled": lambda raw: bytes(len(raw)),
}


@pytest.mark.parametrize("state", sorted(TORN_ENTRIES))
@pytest.mark.parametrize("venue", sorted(VENUES))
def test_torn_entry_is_quarantined_and_recomputed(venue, state, tmp_path):
    baseline = _serial().run(_tasks(_VENUE_RUNS))
    _serial(journal=RunJournal(tmp_path)).run(_tasks(_VENUE_RUNS))
    records = _entries(tmp_path)
    victim = records[len(records) // 2]
    victim.write_bytes(TORN_ENTRIES[state](victim.read_bytes()))

    resumed = VENUES[venue](journal=RunJournal(tmp_path))
    values = resumed.run(_tasks(_VENUE_RUNS))
    assert payload_fingerprint(values) == payload_fingerprint(baseline)
    stats = resumed.last_stats
    assert stats.journal_corrupt_records == 1
    assert stats.journal_replayed_chunks == len(records) - 1
    assert stats.journal_appended_chunks == 1
    assert list(tmp_path.glob("*/*.corrupt")) == [victim.with_suffix(".corrupt")]


# -- opaque tasks -------------------------------------------------------------


class _PlainTask:
    """Mergeable but content-opaque: must never be journaled."""

    label = "plain"

    def __init__(self, n_runs):
        self.n_runs = n_runs

    def run_chunk(self, start, stop):
        counts = EventCounts()
        for _ in range(start, stop):
            counts.record(FairnessEvent.E11, frozenset({0}))
        return counts


class TestOpaqueTasks:
    def test_opaque_tasks_are_never_journaled(self, tmp_path):
        runner = _serial(journal=RunJournal(tmp_path))
        values = runner.run([_PlainTask(24)])
        assert values[0].total == 24
        assert runner.last_stats.journal_appended_chunks == 0
        assert len(RunJournal(tmp_path)) == 0

    def test_record_reports_refusal(self, tmp_path):
        journal = RunJournal(tmp_path)
        assert journal.record(_PlainTask(12), 0, 6, EventCounts()) is False
        assert journal.fetch(_PlainTask(12), 0, 6) == (False, None)


# -- corruption ---------------------------------------------------------------


class TestQuarantine:
    def _journaled(self, tmp_path):
        _serial(journal=RunJournal(tmp_path)).run(_tasks())
        return _entries(tmp_path)

    def test_bitflip_is_quarantined_and_counted(self, tmp_path):
        baseline = _serial().run(_tasks())
        records = self._journaled(tmp_path)
        victim = records[len(records) // 2]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))

        resumed = _serial(journal=RunJournal(tmp_path))
        values = resumed.run(_tasks())
        assert payload_fingerprint(values) == payload_fingerprint(baseline)
        stats = resumed.last_stats
        assert stats.journal_corrupt_records == 1
        assert stats.journal_replayed_chunks == len(records) - 1
        quarantined = list(tmp_path.glob("*/*.corrupt"))
        assert quarantined == [victim.with_suffix(".corrupt")]

    def test_truncated_record_is_corrupt(self, tmp_path):
        records = self._journaled(tmp_path)
        records[0].write_bytes(records[0].read_bytes()[:10])
        resumed = _serial(journal=RunJournal(tmp_path))
        resumed.run(_tasks())
        assert resumed.last_stats.journal_corrupt_records == 1

    def test_renamed_record_does_not_satisfy_the_wrong_key(self, tmp_path):
        """The key is part of the integrity story: a valid entry copied
        onto another span's path must read as corrupt, not as that span's
        partial."""
        self._journaled(tmp_path)
        task = _tasks()[0]
        a = entry_path(tmp_path, chunk_key(task, 0, 6))
        b = entry_path(tmp_path, chunk_key(task, 6, 12))
        b.write_bytes(a.read_bytes())

        journal = RunJournal(tmp_path)
        before = metrics.snapshot()
        assert journal.fetch(task, 6, 12) == (False, None)
        assert metrics.delta(before) == {"journal_corrupt_records": 1}
        assert b.with_suffix(".corrupt").exists()
        assert journal.fetch(task, 0, 6)[0]

    def test_stray_tmp_files_are_ignored(self, tmp_path):
        records = self._journaled(tmp_path)
        (records[0].parent / "half-written.tmp").write_text("garbage")
        resumed = _serial(journal=RunJournal(tmp_path))
        resumed.run(_tasks())
        stats = resumed.last_stats
        assert stats.journal_corrupt_records == 0
        assert stats.journal_replayed_chunks == len(records)


# -- one store, many tasks ----------------------------------------------------


class TestSharedStore:
    def test_same_label_tasks_keep_each_others_records(self, tmp_path):
        """Tasks that share a strategy label and spans but differ in
        content (here: the seed) have different keys.  A run of the
        second must neither replay nor discard the first's records."""
        first = _tasks(seed="journal-test")[0]
        second = _tasks(seed="journal-test-v2")[0]
        assert first.label == second.label
        _serial(journal=RunJournal(tmp_path)).run([first])
        spans = len(_entries(tmp_path))
        assert spans == 4

        baseline = _serial().run([second, first])
        rerun = _serial(journal=RunJournal(tmp_path))
        values = rerun.run([second, first])
        assert payload_fingerprint(values) == payload_fingerprint(baseline)
        stats = rerun.last_stats
        assert stats.journal_replayed_chunks == spans
        replayed = {c.task_index for c in stats.chunks if c.outcome == "journaled"}
        assert replayed == {1}
        assert stats.journal_corrupt_records == 0
        assert len(_entries(tmp_path)) == 2 * spans
        assert not list(tmp_path.glob("*/*.corrupt"))

    def test_journal_entries_serve_as_cache_entries(self, tmp_path):
        """The journal and the chunk cache share key and entry format,
        so a journal directory warms a cache pointed at it."""
        baseline = _serial().run(_tasks())
        _serial(journal=RunJournal(tmp_path)).run(_tasks())
        warm = SerialRunner(chunk_size=6, fault=NO_FAULTS,
                            cache=ChunkCache(tmp_path))
        assert payload_fingerprint(warm.run(_tasks())) == payload_fingerprint(
            baseline
        )
        assert warm.last_stats.cache_hits == warm.last_stats.n_chunks


# -- configuration plumbing ---------------------------------------------------


class TestResolveJournal:
    def test_no_knobs_means_no_journal(self):
        assert resolve_journal() is None

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "env"))
        journal = resolve_journal(tmp_path / "cli")
        assert journal.root == tmp_path / "cli"

    def test_env_dir_is_the_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "env"))
        journal = resolve_journal()
        assert journal.root == tmp_path / "env"

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        """Bumping the schema version must orphan old entries (they read
        as misses, never as live partials for the new format)."""
        import repro.runtime.cache as cache_mod

        task = _tasks()[0]
        old_key = chunk_key(task, 0, 6)
        monkeypatch.setattr(
            cache_mod, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert chunk_key(task, 0, 6) != old_key
