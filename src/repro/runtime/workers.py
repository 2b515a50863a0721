"""Forked worker processes that serve a request loop over a duplex pipe.

The one out-of-process primitive of the runtime: the process pool's chunk
workers (``runtime.runner``) and the service's job processes
(``service.jobs``) are both a :class:`Worker` — a ``fork``-started child
running ``serve(conn, *args)``, where ``conn`` is the child end of a
duplex pipe whose parent end the :class:`Worker` holds.  Forking means
``args`` are inherited, not pickled, so they may hold closures (task
factories, runner factories); only the messages crossing the pipe are
pickled.

A child ignores SIGINT (Ctrl-C belongs to the parent, which decides what
to drain) and closes every pipe end it inherited from earlier workers, so
each pipe reaches end-of-file once its two owners are gone.  A child
that forks workers of its own hands its own end to that rule too.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from multiprocessing import util as mp_util
from multiprocessing.connection import wait

#: How often :meth:`Worker.recv` checks that the child is alive while
#: waiting: a grandchild can hold a dead child's pipe or exit sentinel
#: open, so end-of-file alone does not prove a death.
LIVENESS_POLL_S = 1.0

#: Seconds :meth:`Worker.stop` gives a child to exit after its pipe closes.
STOP_GRACE_S = 10.0

_FORK = multiprocessing.get_context("fork")

#: Every worker pipe end this process holds.  A new child closes its
#: inherited copies, so no pipe is kept open by a sibling.
_OPEN_ENDS: set = set()


def _close_end(end) -> None:
    _OPEN_ENDS.discard(end)
    end.close()


def _child_main(conn, serve, args) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in _OPEN_ENDS:
        end.close()
    _OPEN_ENDS.clear()
    _OPEN_ENDS.add(conn)
    serve(conn, *args)


class Worker:
    """One forked child serving ``serve(conn, *args)`` until end-of-file."""

    def __init__(self, serve, *args, name: str = "repro-worker"):
        parent_end, child_end = _FORK.Pipe()
        # Registered before the fork, so the child closes this end too.
        _OPEN_ENDS.add(parent_end)
        self.conn = parent_end
        self.process = _FORK.Process(
            target=_child_main,
            args=(child_end, serve, args),
            name=name,
            daemon=False,  # a job process forks pool workers of its own
        )
        self.process.start()
        child_end.close()
        # At interpreter exit multiprocessing joins every non-daemonic
        # child; an abandoned worker exits once its pipe closes.
        mp_util.Finalize(self, _close_end, args=(parent_end,), exitpriority=10)

    def recv(self):
        """The child's next message; ``EOFError`` once it is gone."""
        while not self.conn.poll(LIVENESS_POLL_S):
            if not self.process.is_alive():
                raise EOFError
        return self.conn.recv()

    def stop(self) -> None:
        """Close the pipe, wait for the child to exit, kill it if it does
        not within ``STOP_GRACE_S``."""
        _close_end(self.conn)
        # is_alive() polls waitpid: the exit sentinel can stay open in a
        # grandchild, so it only cuts each wait short.
        deadline = time.monotonic() + STOP_GRACE_S
        while self.process.is_alive() and time.monotonic() < deadline:
            wait([self.process.sentinel], 0.01)
        self.kill()

    def kill(self) -> None:
        """Close the pipe, kill the child and reap it."""
        _close_end(self.conn)
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
