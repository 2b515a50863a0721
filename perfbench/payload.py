"""Payload digests and the pinned reference digests they are checked against.

A digest is the first 16 hex digits of the SHA-256 of an artefact's
``deterministic_payload`` in canonical JSON (sorted keys, no spaces), after
a JSON round trip so that an in-process object and the same object read
back from the wire or from disk hash identically.

``pins.json`` holds the digests of the serial reference run for every
input the workloads can draw; ``perfbench/pin.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Keys ``deterministic_payload`` strips: wall clocks and chunk layout.
_VOLATILE_KEYS = ("timing", "chunk_spans")


def deterministic_payload(payload):
    """The backend-invariant part of an artefact (mirrors the program's
    ``analysis.export.deterministic_payload``).  A copy, not an import,
    so that the checker does not change when the program under test
    does."""
    if isinstance(payload, dict):
        return {
            k: deterministic_payload(v)
            for k, v in payload.items()
            if k not in _VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [deterministic_payload(v) for v in payload]
    return payload


def digest(payload) -> str:
    """Digest of an already-deterministic payload."""
    canonical = json.dumps(
        json.loads(json.dumps(payload)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def claim_digests(report: dict) -> dict:
    """``{claim_id: digest}`` for every check of a ``repro verify --json``
    artefact."""
    return {
        check["claim"]["claim_id"]: digest(deterministic_payload(check))
        for check in report["checks"]
    }


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())
