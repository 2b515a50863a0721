"""Wire protocol for the distributed runner: framing and payload codecs.

Everything that crosses a coordinator↔worker TCP connection is one
*frame*: a 4-byte big-endian length prefix followed by that many bytes of
UTF-8 JSON.  JSON (rather than pickle) is a deliberate security and
portability boundary — the fork-only closure restriction of
``ProcessPoolRunner`` must not leak into the wire protocol, and a worker
must never execute code smuggled inside a task description.  Frames are
bounded by :data:`MAX_FRAME`; an oversized, truncated, or non-JSON frame
raises :class:`FrameError` on the receiving side, which the peer treats
as a dead connection (never as a crash).

Chunk partials are mergeable values (see ``runtime.tasks``): this module
can round-trip :class:`~repro.core.utility.EventCounts`, ``int``, and
(nested) tuples of those.  Encoding preserves dict insertion order, so a
partial decoded from the wire merges byte-identically to one computed
in-process — the distributed venue inherits the determinism contract for
free.
"""

from __future__ import annotations

import json
import socket
import struct
from collections import Counter
from typing import Optional

from ...core.events import FairnessEvent
from ...core.utility import EventCounts

#: Bumped on any incompatible change to frames or task specs; a worker
#: refuses a coordinator speaking a different version.
PROTOCOL_VERSION = 1

#: Hard cap on a single frame's payload (a chunk partial is a few KB;
#: anything near this bound is a corrupt or hostile peer).
MAX_FRAME = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class WireError(RuntimeError):
    """Base class for wire-level failures."""


class FrameError(WireError):
    """An oversized, truncated, or non-JSON frame."""


class ConnectionClosed(WireError):
    """The peer closed the connection (EOF mid-frame or between frames)."""


# -- framing -----------------------------------------------------------------


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialise one message and write it length-prefixed."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        piece = sock.recv(remaining)
        if not piece:
            raise ConnectionClosed(
                f"connection closed with {remaining}/{n} bytes outstanding"
            )
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    """Read one length-prefixed JSON frame (honours the socket timeout).

    Raises :class:`ConnectionClosed` on EOF, :class:`FrameError` on an
    oversized length prefix or a body that is not a JSON object, and
    propagates ``socket.timeout`` untouched so callers can poll.
    """
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds MAX_FRAME")
    body = _recv_exact(sock, length)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError(
            f"frame must decode to an object, got {type(message).__name__}"
        )
    return message


# -- chunk-partial codec -----------------------------------------------------


def encode_partial(value):
    """Tagged-JSON form of a mergeable chunk partial.

    Supports exactly the partial types the distributed venue ships and
    the chunk stores persist: :class:`EventCounts`, ``int``, a
    ``collections.Counter`` with ``str`` keys and ``int`` counts, and
    tuples/lists of those.  Raises :class:`WireError` on anything else —
    the coordinator then executes that task locally instead of shipping
    it, and the stores skip the chunk.
    """
    if isinstance(value, bool):
        raise WireError("bool is not a mergeable partial")
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, EventCounts):
        return {
            "t": "events",
            # Insertion order matters downstream (float folds iterate
            # these dicts), so both mappings are shipped as ordered
            # pair-lists and rebuilt in the same order.
            "counts": [[e.name, c] for e, c in value.counts.items()],
            "corr": [
                [sorted(subset), c]
                for subset, c in value.corruption_counts.items()
            ],
        }
    if isinstance(value, Counter):
        items = [[k, c] for k, c in value.items()]
        if not all(
            isinstance(k, str) and type(c) is int for k, c in items
        ):
            raise WireError("Counter partials need str keys and int counts")
        return {"t": "counter", "v": items}
    if isinstance(value, (tuple, list)):
        return {"t": "tuple", "v": [encode_partial(item) for item in value]}
    raise WireError(
        f"no wire encoding for partial type {type(value).__name__}"
    )


def decode_partial(payload):
    """Inverse of :func:`encode_partial` (raises :class:`WireError`)."""
    if not isinstance(payload, dict) or "t" not in payload:
        raise WireError("malformed partial payload")
    tag = payload["t"]
    if tag == "int":
        return int(payload["v"])
    if tag == "events":
        counts = EventCounts(counts={}, corruption_counts={})
        for name, c in payload["counts"]:
            counts.counts[FairnessEvent[name]] = int(c)
        for members, c in payload["corr"]:
            counts.corruption_counts[frozenset(members)] = int(c)
        return counts
    if tag == "counter":
        counter = Counter()
        for key, c in payload["v"]:
            if not isinstance(key, str):
                raise WireError("Counter partial keys must be str")
            counter[key] = int(c)
        return counter
    if tag == "tuple":
        return tuple(decode_partial(item) for item in payload["v"])
    raise WireError(f"unknown partial tag {tag!r}")
