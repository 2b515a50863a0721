"""JSON codecs for chunk partials, seeds and strategy names.

Two halves:

* the **chunk-partial codec** (:func:`encode_partial` /
  :func:`decode_partial`) that the chunk cache and the run journal
  persist partials with — plain tagged JSON, so nothing read back from
  disk can execute code;
* the **task helpers** the service canonicalizes requests with: tagged
  seed values (:func:`tag_value` / :func:`untag_value`), strategy names
  rebuilt into adversary factories (:func:`resolve_strategy`), and the
  content fingerprint of a task (:func:`task_fingerprint`).
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Optional

from ..core.events import FairnessEvent
from ..core.utility import EventCounts
from ..crypto.prf import encode_seed

#: Versions the fingerprint material; bumping it re-keys every service job.
CODEC_VERSION = 1


class WireError(RuntimeError):
    """A partial with no JSON form, or a malformed stored one."""


class CodecError(RuntimeError):
    """A seed or strategy name this codebase cannot (or refuses to) rebuild."""


# -- chunk-partial codec -----------------------------------------------------


def encode_partial(value):
    """Tagged-JSON form of a mergeable chunk partial.

    Supports exactly the partial types the chunk stores persist:
    :class:`EventCounts`, ``int``, a ``collections.Counter`` with ``str``
    keys and ``int`` counts, and tuples/lists of those.  Raises
    :class:`WireError` on anything else, and the stores skip the chunk.
    """
    if isinstance(value, bool):
        raise WireError("bool is not a mergeable partial")
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, EventCounts):
        return {
            "t": "events",
            # Insertion order matters downstream (float folds iterate
            # these dicts), so both mappings are stored as ordered
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


# -- tagged seed values ------------------------------------------------------
# Seeds are arbitrary compositions of the types ``encode_seed`` supports;
# this tagging makes exactly that set JSON-round-trippable (and nothing
# more — objects that ``encode_seed`` would repr-fallback are rejected,
# because their repr is not a stable identity).


def tag_value(value):
    """Tagged-JSON form of one seed component (raises CodecError)."""
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": str(value)}
    if isinstance(value, str):
        return {"t": "str", "v": value}
    if isinstance(value, (bytes, bytearray)):
        return {"t": "bytes", "v": bytes(value).hex()}
    if isinstance(value, float):
        return {"t": "float", "v": value.hex()}
    if value is None:
        return {"t": "none"}
    if isinstance(value, (tuple, list)):
        return {
            "t": "tuple" if isinstance(value, tuple) else "list",
            "v": [tag_value(item) for item in value],
        }
    raise CodecError(f"seed component {value!r} has no canonical wire form")


def untag_value(payload):
    """Inverse of :func:`tag_value` (raises CodecError)."""
    if not isinstance(payload, dict) or "t" not in payload:
        raise CodecError("malformed tagged value")
    tag = payload["t"]
    if tag == "bool":
        return bool(payload["v"])
    if tag == "int":
        return int(payload["v"])
    if tag == "str":
        return str(payload["v"])
    if tag == "bytes":
        return bytes.fromhex(payload["v"])
    if tag == "float":
        return float.fromhex(payload["v"])
    if tag == "none":
        return None
    if tag in ("tuple", "list"):
        items = [untag_value(item) for item in payload["v"]]
        return tuple(items) if tag == "tuple" else items
    raise CodecError(f"unknown value tag {tag!r}")


# -- strategies --------------------------------------------------------------
# Strategy identity is the factory *name* — exactly the contract the
# chunk cache keys on.  The resolver below rebuilds every naming
# convention the codebase uses.


def _parse_party_set(text: str) -> frozenset:
    """Corruption set from a bracket label: ``"01"`` or ``"0, 1"``."""
    text = text.strip()
    if "," in text:
        return frozenset(int(part) for part in text.split(","))
    if not text.isdigit():
        raise CodecError(f"unparseable corruption label {text!r}")
    return frozenset(int(ch) for ch in text)


def resolve_strategy(name: str):
    """Rebuild the :class:`AdversaryFactory` a name denotes.

    Covers the standard sweep (``passive[01]``, ``lock-watch[01]``,
    ``abort@r3[01]``, ``func-abort[coin,ask][01]``) and the
    claim-registry spellings (``lock-watch[0, 1]``, ``lock-watch-t2``,
    ``lw2``).
    """
    from ..adversaries import (
        AbortAtRound,
        FunctionalityAborter,
        KnownOutputStopper,
        LockWatchingAborter,
        PassiveAdversary,
        SignalDeviator,
        fixed,
    )

    match = re.fullmatch(r"passive\[([^\]]*)\]", name)
    if match:
        parties = _parse_party_set(match.group(1))
        return fixed(name, lambda: PassiveAdversary(set(parties)))
    match = re.fullmatch(r"lock-watch\[([^\]]*)\]", name)
    if match:
        parties = _parse_party_set(match.group(1))
        return fixed(name, lambda: LockWatchingAborter(set(parties)))
    match = re.fullmatch(r"abort@r(\d+)\[([^\]]*)\]", name)
    if match:
        rnd = int(match.group(1))
        parties = _parse_party_set(match.group(2))
        return fixed(name, lambda: AbortAtRound(set(parties), rnd))
    match = re.fullmatch(r"func-abort\[([^,\]]+),(ask|noask)\]\[([^\]]*)\]", name)
    if match:
        fname = match.group(1)
        ask = match.group(2) == "ask"
        parties = _parse_party_set(match.group(3))
        return fixed(
            name,
            lambda: FunctionalityAborter(set(parties), fname, ask_first=ask),
        )
    match = re.fullmatch(r"(?:lock-watch-t|lw)(\d+)", name)
    if match:
        t = int(match.group(1))
        return fixed(name, lambda: LockWatchingAborter(set(range(t))))
    if name == "lw-t2":
        return fixed(name, lambda: LockWatchingAborter({0, 1}))
    if name == "sd1":
        return fixed(name, lambda: SignalDeviator({0}))
    if name == "known-output":
        return fixed(name, lambda: KnownOutputStopper(0, known_output=1))
    raise CodecError(f"no registered strategy codec for {name!r}")


# -- task identity -----------------------------------------------------------


def task_fingerprint(task) -> Optional[str]:
    """Content digest of a task (the chunk cache's identity, versioned)."""
    material = getattr(task, "cache_material", None)
    if material is None:
        return None
    material = material()
    if material is None:
        return None
    return encode_seed(("task-spec", CODEC_VERSION, material)).hex()
