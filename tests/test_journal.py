"""Crash-safe run ledger: record/resume round-trips on every venue,
quarantine of corrupt and stale records, opt-in resume semantics,
opaque-task exclusion, and the resolve_journal precedence/validation
contract (``--journal``/``--resume`` vs ``REPRO_JOURNAL_DIR``/
``REPRO_RESUME``)."""

import pytest

from repro.adversaries import strategy_space_for_protocol
from repro.core.utility import EventCounts
from repro.core import FairnessEvent
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol
from repro.runtime import (
    ENV_JOURNAL_DIR,
    ENV_RESUME,
    NO_FAULTS,
    ExecutionTask,
    ProcessPoolRunner,
    RetryPolicy,
    RunJournal,
    SerialRunner,
    resolve_journal,
)
from repro.runtime.chaos import payload_fingerprint
from repro.runtime.journal import JOURNAL_SCHEMA_VERSION, _env_flag

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


@pytest.fixture(autouse=True)
def _no_ambient_journal(monkeypatch):
    """Explicit journals only: ambient env knobs must not leak in."""
    monkeypatch.delenv(ENV_JOURNAL_DIR, raising=False)
    monkeypatch.delenv(ENV_RESUME, raising=False)


# -- keys ---------------------------------------------------------------------


class TestKeys:
    def test_key_is_deterministic(self, tmp_path):
        journal = RunJournal(tmp_path)
        task = _tasks()[0]
        assert journal.key_for(task, 0, 6) == journal.key_for(task, 0, 6)

    def test_key_varies_with_span_and_content(self, tmp_path):
        journal = RunJournal(tmp_path)
        a, b = _tasks()
        keys = {
            journal.key_for(a, 0, 6),
            journal.key_for(a, 6, 12),
            journal.key_for(b, 0, 6),
        }
        assert len(keys) == 3

    def test_opaque_task_has_no_key(self, tmp_path):
        journal = RunJournal(tmp_path)

        class Opaque:
            label = "opaque"
            n_runs = 12

        assert journal.key_for(Opaque(), 0, 6) is None


# -- record / resume round trips ---------------------------------------------


class TestRecordResume:
    def test_serial_resume_replays_every_span(self, tmp_path):
        baseline = _serial().run(_tasks())

        first = _serial(journal=RunJournal(tmp_path))
        values = first.run(_tasks())
        assert values == baseline
        stats = first.last_stats
        assert stats.journal_appended_chunks == stats.n_chunks
        assert stats.journal_replayed_chunks == 0

        second = _serial(journal=RunJournal(tmp_path, resume=True))
        resumed = second.run(_tasks())
        assert payload_fingerprint(resumed) == payload_fingerprint(baseline)
        stats = second.last_stats
        assert stats.journal_replayed_chunks == stats.n_chunks
        assert stats.executions == stats.requested
        assert all(c.outcome == "journaled" for c in stats.chunks)
        assert all(c.engine == "journal" for c in stats.chunks)

    def test_resume_is_strictly_opt_in(self, tmp_path):
        _serial(journal=RunJournal(tmp_path)).run(_tasks())
        rerun = _serial(journal=RunJournal(tmp_path, resume=False))
        rerun.run(_tasks())
        assert rerun.last_stats.journal_replayed_chunks == 0

    def test_pool_resumes_a_serial_journal(self, tmp_path):
        baseline = _serial().run(_tasks())
        _serial(journal=RunJournal(tmp_path)).run(_tasks())
        pool = ProcessPoolRunner(
            2,
            chunk_size=6,
            min_parallel_runs=0,
            retry=RetryPolicy(max_retries=2, **FAST),
            fault=NO_FAULTS,
            journal=RunJournal(tmp_path, resume=True),
        )
        resumed = pool.run(_tasks())
        assert payload_fingerprint(resumed) == payload_fingerprint(baseline)
        stats = pool.last_stats
        assert stats.journal_replayed_chunks == stats.n_chunks

    def test_partial_journal_recomputes_only_the_gap(self, tmp_path):
        baseline = _serial().run(_tasks())
        _serial(journal=RunJournal(tmp_path)).run(_tasks())

        # Drop one record: that single span must recompute, the rest replay.
        records = sorted((tmp_path / "records").glob("*.json"))
        records[len(records) // 2].unlink()

        resumed = _serial(journal=RunJournal(tmp_path, resume=True))
        values = resumed.run(_tasks())
        assert payload_fingerprint(values) == payload_fingerprint(baseline)
        stats = resumed.last_stats
        assert stats.journal_replayed_chunks == stats.n_chunks - 1
        # The recomputed chunk is re-journaled for the next resume.
        assert stats.journal_appended_chunks == 1

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        """SIGINT-at-a-chunk-boundary simulation: the interrupted batch
        leaves a durable prefix, and ``--resume`` completes it to the
        exact fingerprint of an uninterrupted run."""
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

        second = _serial(journal=RunJournal(tmp_path, resume=True))
        values = second.run(_tasks())
        assert payload_fingerprint(values) == payload_fingerprint(baseline)
        assert second.last_stats.journal_replayed_chunks >= 1


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
        assert journal.record(_PlainTask(12), 0, 0, 6, EventCounts()) is False


# -- corruption and staleness -------------------------------------------------


class TestQuarantine:
    def _journaled(self, tmp_path):
        _serial(journal=RunJournal(tmp_path)).run(_tasks())
        return sorted((tmp_path / "records").glob("*.json"))

    def test_bitflip_is_quarantined_and_counted(self, tmp_path):
        baseline = _serial().run(_tasks())
        records = self._journaled(tmp_path)
        victim = records[len(records) // 2]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))

        resumed = _serial(journal=RunJournal(tmp_path, resume=True))
        values = resumed.run(_tasks())
        assert payload_fingerprint(values) == payload_fingerprint(baseline)
        stats = resumed.last_stats
        assert stats.journal_corrupt_records == 1
        assert stats.journal_replayed_chunks == len(records) - 1
        quarantined = list((tmp_path / "quarantine").glob("*.json"))
        assert [p.name for p in quarantined] == [victim.name]

    def test_truncated_record_is_corrupt(self, tmp_path):
        records = self._journaled(tmp_path)
        records[0].write_text(records[0].read_text()[: len("{")])
        resumed = _serial(journal=RunJournal(tmp_path, resume=True))
        resumed.run(_tasks())
        assert resumed.last_stats.journal_corrupt_records == 1

    def test_renamed_record_does_not_satisfy_the_wrong_key(self, tmp_path):
        """The filename is part of the integrity story: a valid record
        copied onto another span's key must read as corrupt, not as that
        span's partial."""
        records = self._journaled(tmp_path)
        a, b = records[0], records[1]
        payload = a.read_bytes()
        b.unlink()
        b.write_bytes(payload)

        journal = RunJournal(tmp_path, resume=True)
        journal._load()
        counts = journal.drain_new_counts()
        assert counts["corrupt"] == 1

    def test_stale_records_counted_when_the_task_changed(self, tmp_path):
        self._journaled(tmp_path)
        # Same labels and spans, different seed: every record is stale.
        fresh = _tasks(seed="journal-test-v2")
        baseline = _serial().run(_tasks(seed="journal-test-v2"))
        resumed = _serial(journal=RunJournal(tmp_path, resume=True))
        values = resumed.run(fresh)
        assert payload_fingerprint(values) == payload_fingerprint(baseline)
        stats = resumed.last_stats
        assert stats.journal_replayed_chunks == 0
        assert stats.journal_stale_records == stats.n_chunks
        assert stats.journal_corrupt_records == 0

    def test_stray_tmp_files_are_ignored(self, tmp_path):
        records = self._journaled(tmp_path)
        (tmp_path / "records" / "half-written.tmp").write_text("garbage")
        resumed = _serial(journal=RunJournal(tmp_path, resume=True))
        resumed.run(_tasks())
        stats = resumed.last_stats
        assert stats.journal_corrupt_records == 0
        assert stats.journal_replayed_chunks == len(records)


# -- configuration plumbing ---------------------------------------------------


class TestResolveJournal:
    def test_no_knobs_means_no_journal(self):
        assert resolve_journal() is None

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_JOURNAL_DIR, str(tmp_path / "env"))
        journal = resolve_journal(tmp_path / "cli")
        assert journal.root == tmp_path / "cli"

    def test_env_dir_is_the_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_JOURNAL_DIR, str(tmp_path / "env"))
        journal = resolve_journal()
        assert journal.root == tmp_path / "env"
        assert journal.resume is False

    def test_resume_composes_with_env_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_RESUME, "1")
        assert resolve_journal(tmp_path).resume is True
        monkeypatch.setenv(ENV_RESUME, "0")
        assert resolve_journal(tmp_path, resume=True).resume is True
        assert resolve_journal(tmp_path, resume=False).resume is False

    def test_resume_without_a_directory_raises(self):
        with pytest.raises(ValueError, match=ENV_JOURNAL_DIR):
            resolve_journal(resume=True)

    def test_env_resume_without_dir_raises_from_env(self, monkeypatch):
        monkeypatch.setenv(ENV_RESUME, "true")
        with pytest.raises(ValueError, match=ENV_RESUME):
            RunJournal.from_env()

    @pytest.mark.parametrize("raw", ["maybe", "2", "yes please"])
    def test_garbage_resume_flag_names_the_variable(self, raw, monkeypatch):
        monkeypatch.setenv(ENV_RESUME, raw)
        with pytest.raises(ValueError, match=ENV_RESUME):
            _env_flag(ENV_RESUME)

    @pytest.mark.parametrize(
        "raw,expected",
        [("", False), ("0", False), ("off", False), ("1", True),
         ("TRUE", True), ("on", True)],
    )
    def test_flag_vocabulary(self, raw, expected, monkeypatch):
        monkeypatch.setenv(ENV_RESUME, raw)
        assert _env_flag(ENV_RESUME) is expected

    def test_schema_version_is_part_of_the_key(self, tmp_path, monkeypatch):
        """Bumping the schema version must orphan old records (they read
        as stale, never as live partials for the new format)."""
        import repro.runtime.journal as journal_mod

        journal = RunJournal(tmp_path)
        task = _tasks()[0]
        old_key = journal.key_for(task, 0, 6)
        monkeypatch.setattr(
            journal_mod, "JOURNAL_SCHEMA_VERSION", JOURNAL_SCHEMA_VERSION + 1
        )
        assert journal.key_for(task, 0, 6) != old_key
