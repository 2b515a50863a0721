"""Crash-safe run ledger: checkpoints of completed chunk partials.

A :class:`RunJournal` is a content-addressed store of chunk partials
that the runner reads on every run and writes after every chunk it
computes.  A partial is a pure function of its key (task content, seed,
span), so a stored partial *is* the value the chunk would compute: the
merge order is unchanged, and a batch rerun against the same directory
after a crash replays the spans that were recorded and computes only
the rest.  Its ``deterministic_payload`` is byte-identical to an
uninterrupted run on every venue (serial, process-pool).  Resuming is
just running again with the same ``--journal``.

Everything but where it runs (the parent) is the chunk cache's: key,
entry format, layout, quarantine rule and rename-only write path (see
:mod:`repro.runtime.cache`).  A process crash loses nothing recorded; a
machine crash may cost recomputation, never a wrong answer: a lost entry
is a miss, a torn one is quarantined and counted in
``journal_corrupt_records``.  Opaque tasks are never journaled.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .cache import chunk_key, count_entries, read_entry, write_entry
from .config import knob


class RunJournal:
    """Checksummed, content-addressed store of chunk partials."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Entries quarantined as corrupt so far; the runner attributes
        #: the increments to the batch that met them.
        self.corrupt = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunJournal(root={str(self.root)!r})"

    def record(self, task, start: int, stop: int, partial) -> bool:
        """Store one computed chunk; ``True`` when journaled.

        A process crash then loses nothing; a machine crash may cost
        recomputation, never a wrong answer.  An opaque task, an
        unencodable partial or a full disk leaves the chunk unjournaled
        (the next run recomputes it), never a failed batch.
        """
        key = chunk_key(task, start, stop)
        if key is None:
            return False
        return write_entry(self.root, key, partial)

    def fetch(self, task, start: int, stop: int):
        """``(True, partial)`` when the chunk is journaled, else
        ``(False, None)``."""
        key = chunk_key(task, start, stop)
        if key is None:
            return False, None
        outcome, partial = read_entry(self.root, key)
        if outcome == "corrupt":
            self.corrupt += 1
        return outcome == "hit", partial

    def __len__(self) -> int:
        return count_entries(self.root)


def resolve_journal(path=None) -> Optional[RunJournal]:
    """Explicit path > ``REPRO_JOURNAL_DIR`` > no journal."""
    path = knob("REPRO_JOURNAL_DIR", path)
    return RunJournal(path) if path is not None else None
