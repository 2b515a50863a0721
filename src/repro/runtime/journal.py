"""Crash-safe run ledger: durable checkpoints of completed chunk partials.

A :class:`RunJournal` is a content-addressed store of chunk partials
that the runner reads on every run and writes after every chunk it
computes.  A partial is a pure function of its key (task content, seed,
span), so a stored partial *is* the value the chunk would compute: the
merge order is unchanged, and a batch rerun against the same directory
after a crash replays the spans that were recorded and computes only
the rest.  Its ``deterministic_payload`` is byte-identical to an
uninterrupted run on every venue (serial, process-pool).  Resuming is
just running again with the same ``--journal``.

Key, entry format, directory layout and quarantine rule are the chunk
cache's (see :mod:`repro.runtime.cache`); what differs is where each
runs.  The journal lives in the parent process, and every append is
fsynced before the atomic rename, so a SIGKILL at any instant leaves
either the whole entry or none of it.  Corrupt entries are quarantined
and counted in ``journal_corrupt_records``: a damaged ledger degrades
to recomputation, never to a wrong answer.  Opaque tasks (no stable
content identity) are never journaled.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .cache import chunk_key, count_entries, read_entry, write_entry
from .config import knob


class RunJournal:
    """Durable, checksummed, content-addressed store of chunk partials."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Entries quarantined as corrupt so far; the runner attributes
        #: the increments to the batch that met them.
        self.corrupt = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunJournal(root={str(self.root)!r})"

    def record(self, task, start: int, stop: int, partial) -> bool:
        """Durably store one computed chunk; ``True`` when journaled.

        Best-effort like the chunk cache: an opaque task, an unencodable
        partial, or a full disk leaves the chunk unjournaled (the next
        run recomputes it), never a failed batch.
        """
        key = chunk_key(task, start, stop)
        if key is None:
            return False
        return write_entry(self.root, key, partial, durable=True)

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
