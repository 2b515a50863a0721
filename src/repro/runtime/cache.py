"""Hot-path caching: setup memos and persistent chunk results.

Two distinct kinds of reuse live in the performance layer, with very
different soundness arguments:

* **Process-local setup memoization** — pure, content-keyed caches on the
  deterministic constructors the profiler flagged as hot: validated prime
  moduli and interned :class:`~repro.crypto.field.Field` instances
  (``crypto.field``), Lagrange reconstruction bases, compiled truth-table
  circuits (``circuits.compiler``), and circuit layer plans
  (``circuits.circuit``).  Those memos live next to the constructors they
  accelerate (the low layers must not import the runtime) and count
  their hits and misses into :mod:`repro.metrics`, as the stores below
  count their traffic.

* **Persistent chunk stores** — on-disk stores of chunk partials keyed
  by a canonical fingerprint of (protocol, strategy, input sampler,
  master seed, chunk span, schema version), built on the
  same injective :func:`~repro.crypto.prf.encode_seed` encoder that
  derives run seeds.  Sound because every ``(task, seed, span)`` triple
  is bit-identically replayable: a stored partial *is* the value the
  chunk would compute, so merge order and early-stop decisions are
  unchanged.  Two classes share this module's key, entry format,
  directory layout, quarantine rule and write path: :class:`ChunkCache`
  (consulted inside the worker that runs the chunk) and
  :class:`~repro.runtime.journal.RunJournal` (consulted by the parent).
  Both are opt-in: a store exists only when a flag or its
  environment variable (``--cache``/``REPRO_CACHE_DIR``,
  ``--journal``/``REPRO_JOURNAL_DIR``) names a directory, and only
  :func:`~repro.runtime.runner.resolve_runner` reads those variables.

What may never be cached: anything downstream of an ``Rng`` draw inside a
run (adversary instances, dealt shares, transcripts in flight) keyed by
less than the full task fingerprint, and any object a consumer mutates.
Tasks opt into chunk caching by providing ``cache_material()`` returning
a canonical description of everything their partials depend on — tasks
that cannot name their content (closures without labels) return ``None``
and are simply never cached.

This module keeps no counters of its own: every count it makes goes to
:mod:`repro.metrics` under its ``RunStats`` export name, in whichever
process makes it, and reaches the batch's ``RunStats`` by the runners'
snapshot/delta path.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from .. import metrics
from ..crypto.prf import encode_seed
from .codec import WireError, decode_partial, encode_partial
from .config import knob

#: Bumped whenever the meaning of a stored partial changes (event
#: vocabulary, classifier semantics, chunk planning) **or** the on-disk
#: entry format changes.  The version is part of every key, so old
#: entries then miss instead of poisoning new runs.  Version 2 added the
#: integrity header, version 3 the JSON partial codec, version 4 the key
#: inside the checksummed payload and one format for cache and journal,
#: version 5 dropped the engine-fault element of the task material.
CACHE_SCHEMA_VERSION = 5

#: Entry layout: a 4-byte magic, the SHA-256 of the payload, then the
#: payload: ``{"key": ..., "partial": ...}`` as compact JSON, the partial
#: in the tagged form of :func:`~repro.runtime.codec.encode_partial`.
#: The digest turns a torn write or a flipped bit into a *detected*
#: corruption instead of an undifferentiated miss; the embedded key
#: means an entry copied onto another key's path never serves that key;
#: and the codec means a hostile entry can at worst decode to wrong
#: counts, never execute code.
_ENTRY_MAGIC = b"RCS4"
_DIGEST_BYTES = 32
_HEADER_BYTES = len(_ENTRY_MAGIC) + _DIGEST_BYTES


def chunk_key(task, start: int, stop: int) -> Optional[str]:
    """Content key of one chunk, or ``None`` when the task is opaque."""
    material = getattr(task, "cache_material", None)
    material = material() if material is not None else None
    if material is None:
        return None
    return encode_seed(
        ("chunk", CACHE_SCHEMA_VERSION, material, start, stop)
    ).hex()


def entry_path(root: Path, key: str) -> Path:
    """Where the entry for ``key`` lives under a store's ``root``."""
    return root / key[:2] / f"{key}.json"


def count_entries(root: Path) -> int:
    """Number of live entries under ``root`` (walks the directory)."""
    return sum(1 for _ in root.glob("*/*.json"))


def _quarantine(path: Path) -> None:
    """Rename a corrupt entry aside so it cannot poison the next lookup."""
    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass


def read_entry(root: Path, key: str) -> Tuple[str, object]:
    """``("hit", partial)``, ``("miss", None)`` or ``("corrupt", None)``.

    A missing or unreadable file is a miss.  An entry with the wrong
    magic, a short header, a checksum mismatch, a payload naming another
    key, or a payload the codec rejects is quarantined and reported as
    corrupt.
    """
    path = entry_path(root, key)
    try:
        data = path.read_bytes()
    except OSError:
        return "miss", None
    try:
        if data[: len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
            raise ValueError("bad magic")
        payload = data[_HEADER_BYTES:]
        digest = data[len(_ENTRY_MAGIC):_HEADER_BYTES]
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("checksum mismatch")
        body = json.loads(payload)
        if body["key"] != key:
            raise ValueError("misfiled entry")
        partial = decode_partial(body["partial"])
    except Exception:
        _quarantine(path)
        return "corrupt", None
    return "hit", partial


def write_entry(root: Path, key: str, partial) -> bool:
    """Atomically persist one partial; ``False`` when it could not be.

    Writes a temp file beside the entry and ``os.replace``s it into
    place, so concurrent writers and a process killed mid-write leave at
    worst a stray ``.tmp`` file.  A process crash loses nothing recorded;
    a machine crash may cost recomputation, never a wrong answer (a lost
    entry is a miss, a torn one fails its checksum).  A partial the codec
    cannot encode and a failed write both return ``False``.
    """
    try:
        encoded = encode_partial(partial)
    except WireError:
        return False
    payload = json.dumps(
        {"key": key, "partial": encoded}, separators=(",", ":")
    ).encode("utf-8")
    path = entry_path(root, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(
                    _ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True


class ChunkCache:
    """Content-addressed on-disk store of chunk partials, best-effort.

    Entries use the module's shared key, format and layout.  An
    unreadable entry is a miss, a corrupt one a quarantined miss counted
    in ``cache_corrupt_entries``, and a failed write (or a partial the
    codec cannot encode) is counted in ``cache_write_errors``: the
    cache can make a sweep faster but can never make it fail or change
    its result.  The measured partials are payoff-independent, so
    entries are shared across payoff vectors soundly.  Its traffic is
    counted in :mod:`repro.metrics` in whichever process consults it.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChunkCache(root={str(self.root)!r})"

    def fetch(self, key: str) -> Tuple[bool, object]:
        """``(True, partial)`` on a hit, ``(False, None)`` otherwise."""
        outcome, partial = read_entry(self.root, key)
        if outcome == "corrupt":
            metrics.add("cache_corrupt_entries")
        hit = outcome == "hit"
        metrics.add("cache_hits" if hit else "cache_misses")
        return hit, partial

    def store(self, key: str, value) -> None:
        """Atomically persist one partial (best-effort, checksummed)."""
        stored = write_entry(self.root, key, value)
        metrics.add("cache_stores" if stored else "cache_write_errors")

    def __len__(self) -> int:
        return count_entries(self.root)


def resolve_cache(path=None) -> Optional[ChunkCache]:
    """Explicit path > ``REPRO_CACHE_DIR`` > no cache."""
    path = knob("REPRO_CACHE_DIR", path)
    return ChunkCache(path) if path is not None else None
