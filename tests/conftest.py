"""Shared fixtures and helpers for the test suite."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import settings

import repro
from repro.core import PayoffVector
from repro.crypto import Rng
from repro.functions import make_and, make_concat, make_swap
from repro.runtime import EarlyStopRule
from repro.runtime.codec import encode_partial

# CI's chaos-soak job runs the chaos property under this profile
# (``pytest --hypothesis-profile=chaos-soak``); see tests/test_chaos.py.
settings.register_profile(
    "chaos-soak", max_examples=300, derandomize=True, database=None,
    deadline=None,
)


def payload_fingerprint(values) -> str:
    """Canonical digest of a batch's merged values.

    Built on the partial codec, the one representation every chunk store
    round-trips, so "bit-identical" means the same here as it does for
    journal and cache entries.
    """
    blob = json.dumps(
        [encode_partial(v) for v in values],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def leak_failure(threads_before: int, deadline_s: float = 10.0) -> Optional[str]:
    """``None`` once this process is back to ``threads_before`` threads
    and has no child processes; otherwise what is still alive."""
    t_end = time.monotonic() + deadline_s
    while True:
        children = multiprocessing.active_children()
        threads = threading.active_count()
        if not children and threads <= threads_before:
            return None
        if time.monotonic() >= t_end:
            return (
                f"leaked: {len(children)} process(es), "
                f"{max(0, threads - threads_before)} extra thread(s)"
            )
        time.sleep(0.05)


@dataclass(frozen=True)
class StopAfter(EarlyStopRule):
    """Early-stop rule that fires once ``n`` runs are folded in, i.e. at
    the first chunk boundary at or past ``n`` on every venue."""

    n: int

    def should_stop(self, counts) -> bool:
        return counts.total >= self.n


@pytest.fixture
def forks(monkeypatch):
    """Every process-pool worker forked while the test runs."""
    from repro.runtime import runner

    forked = []

    class CountingWorker(runner.Worker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            forked.append(self)

    monkeypatch.setattr(runner, "Worker", CountingWorker)
    return forked


@pytest.fixture
def rng():
    return Rng(b"test-suite")


@pytest.fixture
def gamma():
    """The canonical Γ+fair vector used across tests."""
    return PayoffVector(0.0, 0.0, 1.0, 0.5)


@pytest.fixture
def gamma_fair_only():
    """A Γfair vector outside Γ+fair (γ00 > γ11)."""
    return PayoffVector(0.6, 0.0, 1.0, 0.5)


@pytest.fixture
def swap16():
    return make_swap(16)


@pytest.fixture
def and_func():
    return make_and()


@pytest.fixture
def concat5():
    return make_concat(5, 8)


@pytest.fixture(scope="session")
def fresh_env():
    """Environment for a child interpreter: ``src`` on the path and no
    ``REPRO_*`` knobs set."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


@pytest.fixture
def fresh_python(fresh_env):
    """Run ``code`` in a new interpreter under :func:`fresh_env`; return
    its stdout (the run must exit 0)."""

    def run(code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=fresh_env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
