"""Every ``REPRO_*`` environment knob, parsed in one place.

:data:`KNOBS` is the table of the knobs the program reads: each row has
the variable's name, the CLI flag that sets the same value (if any),
the accepted spellings, a range check and a default.  :func:`knob`
resolves one of them with the precedence explicit argument >
environment > default, and a blank environment value counts as unset.
Errors have one shape: ``REPRO_X must be <what>, got '<raw>'`` for an
environment value, with the argument's or flag's name in place of the
variable for an explicit value.  Nothing is cached: every call reads
the environment afresh.  This is the only module of the package that
reads ``os.environ``.

:func:`check_environment` is the CLI's edge check: an unknown
``REPRO_*`` variable (a typo, or a knob that no longer exists) is an
error instead of being silently ignored, and every known one is parsed
before any work starts.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple, Optional

#: Chunk fault-injection modes (see ``runtime.retry``): raise in the
#: worker, kill the worker process, or stall past the chunk deadline.
FAULT_KINDS = ("raise", "exit", "sleep")


def int_or_auto(raw: str) -> int:
    """An integer, or ``auto`` for 0 ("every CPU this process may use")."""
    return 0 if raw.strip().lower() == "auto" else int(raw)


def int_or_str(raw: str):
    """Numeric seeds parse to ``int``: ``encode_seed`` is type-tagged, so
    the string "0" and the default ``0`` would draw different patterns."""
    try:
        return int(raw)
    except ValueError:
        return raw


class Knob(NamedTuple):
    name: str
    flag: Optional[str]
    #: Completes "must be ...": the accepted spellings and range.
    what: str
    #: Spelling -> value (raises ``ValueError`` on garbage); the CLI
    #: flag uses the same parser as its argparse ``type``.
    parse: Callable
    #: Range check on a parsed value.
    valid: Callable
    default: object


def _anything(value) -> bool:
    return True


KNOBS = {row.name: row for row in (
    Knob("REPRO_JOBS", "--jobs", "a non-negative integer or 'auto'",
         int_or_auto, lambda v: v >= 0, 1),
    Knob("REPRO_MAX_RETRIES", "--max-retries", "a non-negative integer",
         int, lambda v: v >= 0, 2),
    Knob("REPRO_FAULT_RATE", None, "a number in [0, 1]",
         float, lambda v: 0.0 <= v <= 1.0, 0.0),
    Knob("REPRO_FAULT_KIND", None, f"one of {', '.join(FAULT_KINDS)}",
         str, FAULT_KINDS.__contains__, "raise"),
    Knob("REPRO_FAULT_SEED", None, "an integer or a string",
         int_or_str, _anything, 0),
    Knob("REPRO_SERVICE_RATE", None, "a positive finite number",
         float, lambda v: 0.0 < v < float("inf"), 20.0),
    Knob("REPRO_SERVICE_BURST", None, "a positive integer",
         int, lambda v: v >= 1, 40),
    Knob("REPRO_SERVICE_QUEUE", None, "a positive integer",
         int, lambda v: v >= 1, 16),
    Knob("REPRO_CACHE_DIR", "--cache", "a directory",
         str, _anything, None),
    Knob("REPRO_JOURNAL_DIR", "--journal", "a directory",
         str, _anything, None),
)}


def knob(name: str, value=None, source: Optional[str] = None):
    """Knob ``name``: explicit ``value`` > environment > default.

    ``source`` names an explicit value in errors (default: the knob's
    flag, else the variable); a string value is parsed like the
    environment's spelling.
    """
    row = KNOBS[name]
    if value is None:
        value = os.environ.get(name, "").strip()
        if not value:
            return row.default
        source = name
    try:
        parsed = row.parse(value) if isinstance(value, str) else value
        ok = row.valid(parsed)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise must_be(source or row.flag or name, row.what, value)
    return parsed


def must_be(source: str, what: str, value) -> ValueError:
    """The one error shape: ``<source> must be <what>, got <value>``."""
    return ValueError(f"{source} must be {what}, got {value!r}")


def positive(value, source: str):
    """``value`` when it is ``None`` or a positive number, else the
    table's error naming ``source``: the runner settings that have a flag
    but no environment variable (``--chunk-size``, ``--chunk-timeout``)."""
    if value is not None and not value > 0:
        raise must_be(source, "a positive number", value)
    return value


def check_environment() -> None:
    """Reject unknown ``REPRO_*`` variables; parse every known one."""
    unknown = sorted(
        name for name in os.environ
        if name.startswith("REPRO_") and name not in KNOBS
    )
    if unknown:
        raise ValueError(
            f"unknown environment variable {', '.join(unknown)}; "
            f"the known knobs are {', '.join(KNOBS)}"
        )
    for name in KNOBS:
        knob(name)
