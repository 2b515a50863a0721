"""Starting, timing and reaping the processes under test.

Every child runs in its own session, so it and anything it forks (pool
workers) form one process group that :meth:`Child.stop` can kill and
wait out.  A child is reaped with ``os.wait4``, which also yields its
peak resident set size.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from pathlib import Path


def child_env(root: Path, pycache: Path, tmp: Path, extra=None) -> dict:
    """The environment of a process under test: no ``REPRO_*`` knobs from
    the caller, ``src`` on the path, byte code cached under ``pycache``,
    temporary files under ``tmp``, one BLAS thread."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PERFBENCH_"))}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONPYCACHEPREFIX=str(pycache),
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.update(extra or {})
    return env


class Child:
    """One process under test, started now."""

    def __init__(self, cmd, env: dict, cwd: Path, stdout=None, stderr=None,
                 cpu=None):
        self.t_spawn = time.perf_counter()
        #: Wall-clock spawn time, comparable with file modification times.
        self.t_spawn_epoch = time.time()
        self.proc = subprocess.Popen(
            [str(c) for c in cmd], env=env, cwd=str(cwd),
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stderr=stderr if stderr is not None else subprocess.DEVNULL,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.pgid = self.proc.pid
        self.code = None
        self.wall_s = None
        self.maxrss_mb = None

    def wait(self, timeout: float) -> int:
        """Reap the child (killing its group after ``timeout`` seconds);
        record its exit code, wall time and peak RSS."""
        timer = threading.Timer(timeout, self._kill_group)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.wall_s = time.perf_counter() - self.t_spawn
        self.code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.code
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self._reap_group()
        return self.code

    def stop(self) -> None:
        """Kill the child and its group if still running, then wait."""
        if self.code is None:
            self._kill_group()
            self.wait(30.0)
        for pipe in (self.proc.stdout, self.proc.stderr):
            if pipe is not None:
                pipe.close()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _group_alive(self) -> bool:
        try:
            os.killpg(self.pgid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def _reap_group(self, grace_s: float = 2.0) -> None:
        """Wait until no process of the child's group is left; kill the
        stragglers once ``grace_s`` has passed."""
        for last_try in (False, True):
            deadline = time.monotonic() + grace_s
            while self._group_alive():
                if time.monotonic() > deadline:
                    break
                time.sleep(0.02)
            else:
                return
            if not last_try:
                self._kill_group()


def run(cmd, env: dict, cwd: Path, timeout: float, stdout_path=None,
        stderr_path=None, cpu=None) -> Child:
    """Run a child to completion (pinned to ``cpu`` if given); return it
    with its measurements."""
    out = open(stdout_path, "wb") if stdout_path else None
    err = open(stderr_path, "wb") if stderr_path else None
    try:
        child = Child(cmd, env, cwd, stdout=out, stderr=err, cpu=cpu)
        try:
            child.wait(timeout)
        finally:
            child.stop()
    finally:
        for handle in (out, err):
            if handle is not None:
                handle.close()
    return child
