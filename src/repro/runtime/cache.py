"""Hot-path caching: persistent chunk results and per-phase instrumentation.

Two distinct kinds of reuse live in the performance layer, with very
different soundness arguments:

* **Process-local setup memoization** — pure, content-keyed caches on the
  deterministic constructors the profiler flagged as hot: validated prime
  moduli and interned :class:`~repro.crypto.field.Field` instances
  (``crypto.field``), Lagrange reconstruction bases, compiled truth-table
  circuits (``circuits.compiler``), and circuit layer plans
  (``circuits.circuit``).  Those memos live next to the constructors they
  accelerate (the low layers must not import the runtime); this module
  only *aggregates* their hit/miss counters into the batch statistics.

* **Persistent chunk-result cache** (:class:`ChunkCache`) — an opt-in
  on-disk store of chunk partials keyed by a canonical fingerprint of
  (protocol, strategy, input sampler, fault config, master seed, chunk
  span, schema version), built on the same injective
  :func:`~repro.crypto.prf.encode_seed` encoder that derives run seeds.
  Sound because PR 1/2 made every ``(task, seed, span)`` triple
  bit-identically replayable: a cached partial *is* the value the chunk
  would compute, so merge order and early-stop decisions are unchanged.
  Strictly opt-in: a cache exists only when ``--cache`` or
  ``REPRO_CACHE_DIR`` names a directory — there is no ambient default.

What may never be cached: anything downstream of an ``Rng`` draw inside a
run (adversary instances, dealt shares, transcripts in flight) keyed by
less than the full task fingerprint, and any object a consumer mutates.
Tasks opt into chunk caching by providing ``cache_material()`` returning
a canonical description of everything their partials depend on — tasks
that cannot name their content (closures without labels) return ``None``
and are simply never cached.

Per-phase wall-clock (setup / execute / classify) is accumulated in the
process-local :data:`PHASES` clock by ``ExecutionTask.run_chunk``;
runners snapshot/delta the combined instrumentation around each chunk so
worker processes ship their phase times and counter increments back to
the parent inside the chunk result.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from ..crypto.prf import encode_seed
from .codec import WireError, decode_partial, encode_partial

#: Environment variable naming the chunk-cache directory (opt-in).
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Bumped whenever the meaning of a cached partial changes (event
#: vocabulary, classifier semantics, chunk planning) **or** the on-disk
#: entry format changes: old entries then miss instead of poisoning new
#: runs.  Version 2 added the per-entry integrity header below; version 3
#: replaced pickled payloads with the JSON partial codec.
CACHE_SCHEMA_VERSION = 3

#: On-disk entry layout since schema v3: a 4-byte magic, the SHA-256 of
#: the payload, then the payload itself — the partial in the tagged-JSON
#: form of :func:`~repro.runtime.codec.encode_partial`, the codec the
#: run journal uses too.  The digest turns a torn write or a flipped bit
#: into a *detected* corruption (quarantined and counted) instead of an
#: undifferentiated miss, and the codec means a hostile entry can at
#: worst decode to wrong counts, never execute code.
_ENTRY_MAGIC = b"RCC3"
_DIGEST_BYTES = 32


class PhaseClock:
    """Process-local accumulator of per-phase wall-clock seconds."""

    __slots__ = ("setup_s", "execute_s", "classify_s")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.setup_s = 0.0
        self.execute_s = 0.0
        self.classify_s = 0.0


#: The clock ``ExecutionTask.run_chunk`` feeds (one per process; workers
#: ship deltas back to the parent inside chunk results).
PHASES = PhaseClock()

#: Keys of the instrumentation snapshot/delta dictionaries.
INSTRUMENT_KEYS = (
    "setup_s",
    "execute_s",
    "classify_s",
    "memo_hits",
    "memo_misses",
    "cache_hits",
    "cache_misses",
    "cache_stores",
    "cache_corrupt",
    "cache_write_errors",
    "vectorized_runs",
)


def instrumentation_snapshot() -> dict:
    """Current process-local phase clocks and cache counters.

    Runners bracket each chunk with ``snapshot``/``delta`` so the
    increments can be attributed to that chunk (and, for pool chunks,
    shipped from the worker back to the parent).
    """
    # Imported lazily: the memos live in the low layers, and the runtime
    # reads their counters without the low layers knowing about us.
    from ..circuits import compiler
    from ..crypto import field
    from .vectorized.registry import COUNTERS as vectorized_counters

    field_memo = field.memo_counters()
    circuit_memo = compiler.memo_counters()
    return {
        "setup_s": PHASES.setup_s,
        "execute_s": PHASES.execute_s,
        "classify_s": PHASES.classify_s,
        "memo_hits": field_memo["hits"] + circuit_memo["hits"],
        "memo_misses": field_memo["misses"] + circuit_memo["misses"],
        "cache_hits": ChunkCache.counters["hits"],
        "cache_misses": ChunkCache.counters["misses"],
        "cache_stores": ChunkCache.counters["stores"],
        "cache_corrupt": ChunkCache.counters["corrupt"],
        "cache_write_errors": ChunkCache.counters["write_errors"],
        "vectorized_runs": vectorized_counters["vectorized_runs"],
    }


def instrumentation_delta(before: dict) -> dict:
    """Instrumentation increments since a ``before`` snapshot."""
    after = instrumentation_snapshot()
    return {k: after[k] - before[k] for k in INSTRUMENT_KEYS}


def faults_fingerprint(faults) -> str:
    """Canonical string form of an ``EngineFaults`` bundle (or ``None``)."""
    if faults is None:
        return ""
    return json.dumps(faults.to_dict(), sort_keys=True)


class ChunkCache:
    """Content-addressed on-disk store of chunk partials.

    Entries are JSON-encoded mergeable partials (behind a magic +
    SHA-256 integrity header, see :data:`_ENTRY_MAGIC`) under
    ``<root>/<key[:2]>/<key>.json`` where ``key`` is the hex digest of
    the task's canonical fingerprint plus the chunk span and schema
    version.  Lookups and stores are best-effort: an unreadable entry is
    a miss, a *corrupt* entry (bad magic, checksum mismatch, or a
    payload the codec rejects) is a quarantined miss counted in
    ``counters["corrupt"]``, and a failed write — or a partial the codec
    cannot encode — is counted in ``counters["write_errors"]``: the
    cache can make a sweep faster but can never make it fail or change
    its result.  The measured partials are payoff-independent, so
    entries are shared across payoff vectors soundly.
    """

    #: Process-wide traffic counters (workers ship deltas back).
    counters = {
        "hits": 0,
        "misses": 0,
        "stores": 0,
        "corrupt": 0,
        "write_errors": 0,
    }

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ChunkCache(root={str(self.root)!r})"

    @classmethod
    def from_env(cls) -> Optional["ChunkCache"]:
        """Cache implied by ``REPRO_CACHE_DIR``; ``None`` when unset."""
        raw = os.environ.get(ENV_CACHE_DIR, "").strip()
        if not raw:
            return None
        return cls(raw)

    # -- keys ---------------------------------------------------------------
    def key_for(self, task, start: int, stop: int) -> Optional[str]:
        """Fingerprint of one chunk, or ``None`` when the task is opaque."""
        material = getattr(task, "cache_material", None)
        if material is None:
            return None
        material = material()
        if material is None:
            return None
        return encode_seed(
            ("chunk-cache", CACHE_SCHEMA_VERSION, material, start, stop)
        ).hex()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- access -------------------------------------------------------------
    def fetch(self, key: str) -> Tuple[bool, object]:
        """``(True, partial)`` on a hit, ``(False, None)`` otherwise.

        An entry that fails its integrity check — wrong magic, short
        header, checksum mismatch, or a payload behind a *valid* checksum
        that is not a partial in the JSON codec (a schema bug or a
        foreign writer, not bit rot, but equally unusable) — is
        quarantined (renamed aside so it cannot poison the next lookup
        either) and counted as both corrupt and a miss.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            # Missing or unreadable entry: an ordinary miss.
            ChunkCache.counters["misses"] += 1
            return False, None
        try:
            if data[: len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
                raise ValueError("bad magic")
            header_len = len(_ENTRY_MAGIC) + _DIGEST_BYTES
            digest = data[len(_ENTRY_MAGIC):header_len]
            payload = data[header_len:]
            if len(digest) != _DIGEST_BYTES:
                raise ValueError("truncated header")
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("checksum mismatch")
            value = decode_partial(json.loads(payload))
        except Exception:
            ChunkCache.counters["corrupt"] += 1
            ChunkCache.counters["misses"] += 1
            self._quarantine(path)
            return False, None
        ChunkCache.counters["hits"] += 1
        return True, value

    @staticmethod
    def _quarantine(path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def store(self, key: str, value) -> None:
        """Atomically persist one partial (best-effort, checksummed)."""
        try:
            encoded = encode_partial(value)
        except WireError:
            ChunkCache.counters["write_errors"] += 1
            return
        payload = json.dumps(encoded, separators=(",", ":")).encode("utf-8")
        path = self._path(key)
        blob = _ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            ChunkCache.counters["write_errors"] += 1
            return
        ChunkCache.counters["stores"] += 1

    def __len__(self) -> int:
        """Number of stored entries (walks the directory)."""
        return sum(1 for _ in self.root.glob("*/*.json"))


def resolve_cache(path=None) -> Optional[ChunkCache]:
    """Explicit path > ``REPRO_CACHE_DIR`` > no cache."""
    if path is not None:
        return ChunkCache(path)
    return ChunkCache.from_env()
