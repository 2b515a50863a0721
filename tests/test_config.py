"""The ``REPRO_*`` knob table (``runtime.config``).

One parametrized test per case, over every knob: a valid environment
value reaches the code that uses the knob, an explicit value beats the
environment, a blank value means unset, and a garbage or out-of-range
value raises a ``ValueError`` naming the variable.  Each row reads the
knob through its consumer (the runner, the token bucket, the job
pool, ...), not through :func:`knob` alone, so the wiring is checked
too.
"""

import re
from pathlib import Path

import pytest

from repro.runtime import (
    NO_FAULTS,
    FaultSpec,
    ProcessPoolRunner,
    RetryPolicy,
    SerialRunner,
    resolve_cache,
    resolve_journal,
    resolve_jobs,
    resolve_runner,
    usable_cpus,
)
from repro.runtime.config import KNOBS, check_environment, knob
from repro.service import JobPool, TokenBucket

ARCHITECTURE = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"


@pytest.fixture(autouse=True)
def no_knobs(monkeypatch):
    """Start every test from an environment with no ``REPRO_*`` set (CI
    runs the suite under ``REPRO_FAULT_RATE`` and friends)."""
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)


def _fault(**explicit):
    """The fault spec of a runner: built from ``explicit`` fields when
    any is given (at rate 0.5), from the ``REPRO_FAULT_*`` knobs else."""
    given = {k: v for k, v in explicit.items() if v is not None}
    spec = FaultSpec(**{"rate": 0.5, **given}) if given else None
    return SerialRunner(fault=spec).fault or NO_FAULTS


def _retries(value):
    retry = None if value is None else RetryPolicy(max_retries=value)
    return SerialRunner(retry=retry).retry.max_retries


def _queue_limit(value):
    pool = JobPool(queue_limit=value, workers=1)
    try:
        return pool.queue_limit
    finally:
        pool.close()


def _root(store):
    return None if store is None else str(store.root)


#: knob -> (read(explicit or None), valid raw value, what it reads as,
#: an explicit value, garbage or out-of-range raw values, extra env).
#: The seed and the store directories accept any non-blank string.
ROWS = {
    "REPRO_JOBS": (
        resolve_jobs, "5", 5, 3, ["many", "-3", "2.5"], {},
    ),
    "REPRO_MAX_RETRIES": (
        _retries, "5", 5, 1, ["many", "-3", "1.5"], {},
    ),
    "REPRO_FAULT_RATE": (
        lambda v: _fault(rate=v).rate, "0.25", 0.25, 0.75,
        ["nope", "7", "-0.5", "nan"], {},
    ),
    "REPRO_FAULT_KIND": (
        lambda v: _fault(kind=v).kind, "exit", "exit", "sleep",
        ["boom", "EXIT"], {"REPRO_FAULT_RATE": "0.5"},
    ),
    "REPRO_FAULT_SEED": (
        lambda v: _fault(seed=v).seed, "ci", "ci", "explicit", [],
        {"REPRO_FAULT_RATE": "0.5"},
    ),
    "REPRO_SERVICE_RATE": (
        lambda v: TokenBucket(rate=v).rate, "2.5", 2.5, 9.0,
        ["lots", "-3", "0", "inf"], {},
    ),
    "REPRO_SERVICE_BURST": (
        lambda v: TokenBucket(burst=v).burst, "7", 7, 9,
        ["lots", "-3", "0", "2.5"], {},
    ),
    "REPRO_SERVICE_QUEUE": (
        _queue_limit, "3", 3, 9, ["lots", "-3", "0"], {},
    ),
    "REPRO_CACHE_DIR": (
        lambda v: _root(resolve_cache(v)), "env-cache", "env-cache",
        "explicit-cache", [], {},
    ),
    "REPRO_JOURNAL_DIR": (
        lambda v: _root(resolve_journal(v)), "env-journal", "env-journal",
        "explicit-journal", [], {},
    ),
}


def test_every_knob_has_a_row():
    assert set(ROWS) == set(KNOBS)


def _prepare(name, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the store rows create directories
    read, raw, value, explicit, garbage, env = ROWS[name]
    for var, extra in env.items():
        monkeypatch.setenv(var, extra)
    return read, raw, value, explicit


@pytest.fixture(params=sorted(ROWS))
def row(request, monkeypatch, tmp_path):
    return (request.param,) + _prepare(request.param, monkeypatch, tmp_path)


def test_valid_value_applies(row, monkeypatch):
    name, read, raw, value, _ = row
    monkeypatch.setenv(name, raw)
    assert read(None) == value


def test_explicit_beats_env(row, monkeypatch):
    name, read, raw, _, explicit = row
    monkeypatch.setenv(name, raw)
    assert read(explicit) == explicit


@pytest.mark.parametrize("blank", ["", "  "], ids=["empty", "spaces"])
def test_blank_means_unset(row, monkeypatch, blank):
    name, read, _, _, _ = row
    monkeypatch.setenv(name, blank)
    blank_value = read(None)
    monkeypatch.delenv(name)
    assert blank_value == read(None)
    assert knob(name) == KNOBS[name].default


@pytest.mark.parametrize("name,raw", [
    (name, raw) for name in sorted(ROWS) for raw in ROWS[name][4]
])
def test_garbage_raises_naming_the_variable(name, raw, monkeypatch,
                                            tmp_path):
    read = _prepare(name, monkeypatch, tmp_path)[0]
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError,
                       match=f"^{name} must be .*, got '{re.escape(raw)}'$"):
        read(None)


# -- the behaviours around the table ------------------------------------------


def test_defaults():
    assert resolve_jobs() == 1
    assert isinstance(resolve_runner(), SerialRunner)
    assert SerialRunner().retry.max_retries == 2
    assert SerialRunner().fault is None
    assert resolve_cache() is None and resolve_journal() is None


def test_jobs_auto_means_every_usable_cpu(monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert resolve_jobs() == usable_cpus() == 3
    assert knob("REPRO_JOBS", "auto", "--jobs") == 0
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert resolve_jobs() == 2
    assert isinstance(resolve_runner(), ProcessPoolRunner)


def test_zero_fault_rate_means_no_injection(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_RATE", "0")
    monkeypatch.setenv("REPRO_FAULT_KIND", "exit")
    assert SerialRunner().fault is None


def test_numeric_fault_seed_matches_int_spec(monkeypatch):
    """``encode_seed`` is type-tagged, so the env string "0" must parse
    to the int 0 of a directly built spec, or the fault patterns of
    ``REPRO_FAULT_SEED=0`` and the default would differ."""
    monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
    monkeypatch.setenv("REPRO_FAULT_SEED", "0")
    spec = SerialRunner().fault
    assert spec.seed == 0 and isinstance(spec.seed, int)
    reference = FaultSpec(rate=0.5, seed=0)
    cells = [(t, s) for t in range(4) for s in (0, 9)]
    assert [spec.fault_attempts(*c) for c in cells] == [
        reference.fault_attempts(*c) for c in cells
    ]


def test_knobs_are_read_at_each_call(monkeypatch):
    # No caching at import: a later setenv takes effect.
    assert knob("REPRO_MAX_RETRIES") == 2
    monkeypatch.setenv("REPRO_MAX_RETRIES", "4")
    assert knob("REPRO_MAX_RETRIES") == 4


# -- the edge check -----------------------------------------------------------


@pytest.mark.parametrize("name", [
    "REPRO_CHANNEL_LOSS", "REPRO_CHANNEL_DELAY", "REPRO_CHANNEL_DUP",
    "REPRO_BROADCAST_LOSS", "REPRO_CRASH_RATE", "REPRO_ENGINE_FAULT_SEED",
    "REPRO_BACKEND", "REPRO_CHUNK_SIZE", "REPRO_CHUNK_TIMEOUT",
])
def test_deleted_knobs_are_unknown(monkeypatch, name):
    monkeypatch.setenv(name, "1")
    with pytest.raises(ValueError, match=f"variable {name};"):
        check_environment()


def test_edge_check_lists_the_known_knobs_and_parses_them(monkeypatch):
    check_environment()  # a clean environment passes
    monkeypatch.setenv("REPRO_JOBZ", "2")
    with pytest.raises(ValueError) as exc:
        check_environment()
    assert all(name in str(exc.value) for name in KNOBS)
    monkeypatch.delenv("REPRO_JOBZ")
    monkeypatch.setenv("REPRO_SERVICE_BURST", "0")  # read by no runner
    with pytest.raises(ValueError, match="REPRO_SERVICE_BURST"):
        check_environment()


def test_docs_table_lists_exactly_the_knobs():
    """docs/architecture.md's knob table names every row of ``KNOBS``
    with its flag, and nothing else."""
    rows = re.findall(
        r"^\| `(REPRO_[A-Z_]+)` \| (?:`(--[a-z-]+)`|—) \|",
        ARCHITECTURE.read_text(encoding="utf-8"),
        flags=re.MULTILINE,
    )
    assert {name: flag or None for name, flag in rows} == {
        name: row.flag for name, row in KNOBS.items()
    }
    assert len(rows) == len(KNOBS)
