"""Crash-safe run ledger: durable checkpoints of completed chunk partials.

A :class:`RunJournal` makes a batch *resumable*: every chunk a runner
completes is appended to an on-disk ledger, and a batch restarted with
``resume=True`` (CLI ``--resume`` / ``REPRO_RESUME``) replays the
journaled spans instead of recomputing them.  Soundness rests on the same
contract as the chunk cache: PR 1/2 made every ``(task, seed, span)``
triple bit-identically replayable, so a journaled partial *is* the value
the chunk would compute, the merge order is unchanged, and the resumed
``deterministic_payload`` is byte-identical to an uninterrupted run on
every venue (serial, process-pool).

Ledger format — built to survive a SIGKILL at any instant:

* One record per chunk under ``<root>/records/<key>.json`` where ``key``
  is the hex fingerprint of the task's canonical content description
  (:meth:`~repro.runtime.tasks.ExecutionTask.cache_material`) plus the
  chunk span and the journal schema version, derived through the same
  injective :func:`~repro.crypto.prf.encode_seed` encoder that seeds the
  runs themselves.  Opaque tasks (no stable content identity) are simply
  never journaled.
* Appends are atomic: write to a temp file in the same directory, fsync,
  ``os.replace``.  A crash mid-append leaves at worst a stray ``.tmp``
  the next load ignores — never a half-written record.
* Every record carries a SHA-256 over its canonical JSON body.  A record
  that fails the checksum, fails to parse, or does not decode to a
  mergeable partial is **quarantined** (moved to ``<root>/quarantine/``)
  and counted — a corrupt ledger degrades to recomputation, never to a
  wrong answer.
* A record whose span matches but whose fingerprint does not (the task
  definition, seed, or fault config changed since the journal was
  written) is a **stale** record: quarantined and counted separately, so
  a resume against the wrong journal is visible in RunStats instead of
  silently recomputing everything.
* Cross-process appends are serialised with an advisory ``flock`` on
  ``<root>/.lock`` where the platform provides one (the atomic replace
  makes concurrent writers safe even without it).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..crypto.prf import encode_seed
from .codec import WireError, decode_partial, encode_partial

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

#: Environment variable naming the journal directory (opt-in).
ENV_JOURNAL_DIR = "REPRO_JOURNAL_DIR"

#: Environment flag requesting replay of journaled spans on the next run.
ENV_RESUME = "REPRO_RESUME"

#: Bumped whenever the meaning of a journaled partial changes (event
#: vocabulary, chunk planning, codec): old records then read as stale
#: instead of poisoning resumed runs.
JOURNAL_SCHEMA_VERSION = 1

_RECORD_SUFFIX = ".json"

_TRUE_FLAGS = ("1", "true", "yes", "on")
_FALSE_FLAGS = ("", "0", "false", "no", "off")


def _env_flag(name: str) -> bool:
    raw = os.environ.get(name, "").strip().lower()
    if raw in _FALSE_FLAGS:
        return False
    if raw in _TRUE_FLAGS:
        return True
    raise ValueError(
        f"{name} must be a boolean flag (1/0/true/false/yes/no/on/off), "
        f"got {raw!r}"
    )


def _canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


class RunJournal:
    """Append-only, checksummed ledger of completed chunk partials.

    ``resume`` gates *reads*: a journal always records what the batch
    completes, but only replays prior records when the caller explicitly
    asked to resume — so an operator cannot accidentally serve a fresh
    run from last week's ledger.
    """

    def __init__(self, root, resume: bool = False):
        self.root = Path(root)
        self.resume = bool(resume)
        self.records_dir = self.root / "records"
        self.quarantine_dir = self.root / "quarantine"
        self.records_dir.mkdir(parents=True, exist_ok=True)
        self._lock_path = self.root / ".lock"
        self._index: Optional[Dict[str, dict]] = None
        self._by_span: Dict[Tuple[str, int, int], List[str]] = {}
        # Incremental quarantine counts, drained by the runner into the
        # BatchLog so RunStats attributes them to the right batch.
        self._new_corrupt = 0
        self._new_stale = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunJournal(root={str(self.root)!r}, resume={self.resume})"

    @classmethod
    def from_env(cls) -> Optional["RunJournal"]:
        """Journal implied by ``REPRO_JOURNAL_DIR`` / ``REPRO_RESUME``.

        ``None`` when no directory is named; a resume request without a
        journal directory is a configuration error, not a silent no-op.
        """
        raw = os.environ.get(ENV_JOURNAL_DIR, "").strip()
        resume = _env_flag(ENV_RESUME)
        if not raw:
            if resume:
                raise ValueError(
                    f"{ENV_RESUME} is set but {ENV_JOURNAL_DIR} names no "
                    "journal directory to resume from"
                )
            return None
        return cls(raw, resume=resume)

    # -- keys ----------------------------------------------------------------

    def key_for(self, task, start: int, stop: int) -> Optional[str]:
        """Fingerprint of one chunk, or ``None`` when the task is opaque."""
        material = getattr(task, "cache_material", None)
        if material is None:
            return None
        material = material()
        if material is None:
            return None
        return encode_seed(
            ("run-journal", JOURNAL_SCHEMA_VERSION, material, start, stop)
        ).hex()

    def _record_path(self, key: str) -> Path:
        return self.records_dir / (key + _RECORD_SUFFIX)

    # -- locking -------------------------------------------------------------

    @contextmanager
    def _locked(self):
        """Advisory cross-process exclusion for ledger mutation."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self._lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- appends -------------------------------------------------------------

    def record(self, task, task_index: int, start: int, stop: int, partial) -> bool:
        """Durably append one completed chunk; ``True`` when journaled.

        Best-effort like the chunk cache: an opaque task, an unencodable
        partial, or a full disk makes the chunk unjournaled (it will be
        recomputed on resume), never a failed batch.
        """
        key = self.key_for(task, start, stop)
        if key is None:
            return False
        try:
            payload = encode_partial(partial)
        except WireError:
            return False
        body = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "key": key,
            "task_label": str(getattr(task, "label", "")),
            "task_index": task_index,
            "start": start,
            "stop": stop,
            "partial": payload,
        }
        record = dict(body)
        record["sha256"] = hashlib.sha256(_canonical(body)).hexdigest()
        path = self._record_path(key)
        try:
            with self._locked():
                fd, tmp = tempfile.mkstemp(
                    dir=str(self.records_dir), suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        json.dump(record, handle, separators=(",", ":"))
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except OSError:
            return False
        if self._index is not None:
            self._index[key] = record
            span = (body["task_label"], start, stop)
            keys = self._by_span.setdefault(span, [])
            if key not in keys:
                keys.append(key)
        return True

    # -- replay --------------------------------------------------------------

    def _verify_record(self, path: Path) -> Optional[dict]:
        """Parse + checksum one record file; ``None`` when corrupt."""
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict):
            return None
        digest = record.get("sha256")
        body = {k: v for k, v in record.items() if k != "sha256"}
        try:
            expected = hashlib.sha256(_canonical(body)).hexdigest()
        except (TypeError, ValueError):
            return None
        if digest != expected:
            return None
        key = record.get("key")
        if not isinstance(key, str) or path.name != key + _RECORD_SUFFIX:
            # A record renamed onto the wrong key must not satisfy that
            # key's fetch: the fingerprint is part of the integrity story.
            return None
        if not isinstance(record.get("start"), int) or not isinstance(
            record.get("stop"), int
        ):
            return None
        return record

    def _load(self) -> None:
        if self._index is not None:
            return
        index: Dict[str, dict] = {}
        by_span: Dict[Tuple[str, int, int], List[str]] = {}
        with self._locked():
            for path in sorted(self.records_dir.glob("*" + _RECORD_SUFFIX)):
                record = self._verify_record(path)
                if record is None:
                    self._quarantine(path)
                    self._new_corrupt += 1
                    continue
                key = record["key"]
                index[key] = record
                span = (
                    str(record.get("task_label", "")),
                    record["start"],
                    record["stop"],
                )
                by_span.setdefault(span, []).append(key)
        self._index = index
        self._by_span = by_span

    def fetch(self, task, task_index: int, start: int, stop: int):
        """``(True, partial)`` when a resumable record exists.

        Only consults the ledger when ``resume`` was requested.  A miss
        quarantines any *stale* records for the same span (same task
        label and run range, different content fingerprint — the task
        changed under the journal) so they are counted rather than
        silently ignored forever.
        """
        if not self.resume:
            return False, None
        self._load()
        assert self._index is not None
        key = self.key_for(task, start, stop)
        if key is None:
            return False, None
        record = self._index.get(key)
        if record is None:
            span = (str(getattr(task, "label", "")), start, stop)
            for other in self._by_span.pop(span, []):
                if self._index.pop(other, None) is not None:
                    self._quarantine(self._record_path(other))
                    self._new_stale += 1
            return False, None
        try:
            partial = decode_partial(record["partial"])
        except (WireError, KeyError, TypeError, ValueError):
            self._index.pop(key, None)
            self._quarantine(self._record_path(key))
            self._new_corrupt += 1
            return False, None
        return True, partial

    # -- bookkeeping ---------------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def drain_new_counts(self) -> Dict[str, int]:
        """Quarantine counts since the last drain (corrupt / stale)."""
        counts = {"corrupt": self._new_corrupt, "stale": self._new_stale}
        self._new_corrupt = 0
        self._new_stale = 0
        return counts

    def __len__(self) -> int:
        """Number of live (non-quarantined) records on disk."""
        return sum(1 for _ in self.records_dir.glob("*" + _RECORD_SUFFIX))


def resolve_journal(path=None, resume: Optional[bool] = None) -> Optional[RunJournal]:
    """Explicit path > ``REPRO_JOURNAL_DIR`` > no journal.

    ``resume`` composes with ``REPRO_RESUME`` (either requests a resume);
    resuming with no journal directory raises — there is nothing to
    resume from, and pretending otherwise would silently recompute.
    """
    env_resume = _env_flag(ENV_RESUME)
    resume = env_resume if resume is None else bool(resume) or env_resume
    if path is not None:
        return RunJournal(path, resume=resume)
    raw = os.environ.get(ENV_JOURNAL_DIR, "").strip()
    if raw:
        return RunJournal(raw, resume=resume)
    if resume:
        raise ValueError(
            f"--resume requested but neither --journal nor {ENV_JOURNAL_DIR} "
            "names a journal directory to resume from"
        )
    return None
