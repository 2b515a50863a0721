"""Shared fixtures for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import PayoffVector
from repro.crypto import Rng
from repro.functions import make_and, make_concat, make_swap


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


@pytest.fixture
def fresh_python():
    """Run ``code`` in a new interpreter with ``src`` on the path and no
    ``REPRO_*`` knobs set; return its stdout (the run must exit 0)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )

    def run(code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
