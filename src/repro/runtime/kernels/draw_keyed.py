"""The draw-keyed chunk kernel: a run's event looked up by its small draws.

A run's fairness event is, for most eligible pairs, a function of a few
*small* draws, ones with at most 64 values (``coin``;
``randrange``/``randint``/``choice`` over at most 64 values;
``getrandbits(k <= 6)``): ΠOpt2SFE's î, ΠOptnSFE's i*, a coin protocol's
coin.  The matcher steps run 0 with a :class:`RecordingRng` and keeps,
per labelled stream, the calls up to its last small draw (the
*schedule*); replaying it on run k's streams, large draws included,
gives run k's small values (its *key*).  Each key value among the first
``min(n_runs, 256)`` runs is calibrated on the first two runs showing
it, which must make run 0's draws, draw nothing on a deep copy of their
``Rng``, not hang, read back their key and agree on event and corruption
set; otherwise, or above 16 key values, the task stays on the engine.
A run of an uncalibrated key runs on the engine (``kernel_fallback_runs``).
See docs/architecture.md, "Execution backends".
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ... import metrics
from ...core.events import FairnessEvent
from ...core.utility import EventCounts
from ...crypto.prf import Rng

#: Runs searched for key values; one of probability p is missed with
#: probability (1 - p) ** 256.
_SEARCH = 256
_MAX_KEYS = 16
_SMALL = 64


def _is_small(method: str, args: tuple) -> bool:
    """Whether a draw takes at most :data:`_SMALL` values."""
    if method == "randrange":
        width = args[0] if len(args) == 1 else args[1] - args[0]
    elif method == "randint":
        width = args[1] - args[0] + 1
    elif method == "choice":
        width = len(args[0])
    elif method == "getrandbits":
        width = 1 << args[0]
    else:
        width = 2 if method == "coin" else _SMALL + 1
    return width <= _SMALL


class _Log:
    """One calibration run's outermost draws, shared by its recorders."""

    def __init__(self):
        self.draws, self.opened, self.copied_draw = [], Counter(), False


class RecordingRng(Rng):
    """An ``Rng`` that logs its outermost draws as ``((path, occurrence),
    method, args, small, value)``.  Forks record too, each a stream of
    its own (two forks of one label are two copies of one stream).  A
    deep copy and its forks log nothing: a draw on one flags the log."""

    def __init__(self, seed, log: _Log, path: tuple = (), copied=False):
        super().__init__(seed)
        self._log, self._path, self._copied, self._depth = log, path, copied, 0
        if not copied:
            self._stream_id = (path, log.opened[path])
            log.opened[path] += 1

    def fork(self, label: str) -> "RecordingRng":
        seed, path = Rng.fork(self, label).seed_bytes, self._path + (label,)
        return RecordingRng(seed, self._log, path, self._copied)

    def __deepcopy__(self, memo):
        clone = Rng.__deepcopy__(self, memo)
        clone._log, clone._path, clone._copied = self._log, self._path, True
        clone._depth = 0
        return clone


def _recorded(method: str):
    draw = getattr(Rng, method)

    def recorded(self, *args):
        if self._depth:  # an inner call of an outer draw
            return draw(self, *args)
        self._depth = 1
        try:
            value = draw(self, *args)
        finally:
            self._depth = 0
        if self._copied:
            self._log.copied_draw = True
        else:
            args = tuple(tuple(a) if isinstance(a, list) else a for a in args)
            small = _is_small(method, args)
            entry = (self._stream_id, method, args, small, value)
            self._log.draws.append(entry)
        return value

    return recorded


for _method in ("getrandbits", "randbytes", "randrange", "randint", "random",
                "choice", "shuffle", "sample", "coin"):
    setattr(RecordingRng, _method, _recorded(_method))


def _calibrate(task, master: Rng, k: int):
    """Run ``k`` on the engine through a recorder: ``((event, corrupted),
    draws, schedule, key)``, or ``None`` if it hangs or draws on a copy."""
    metrics.add("calibration_runs")
    log = _Log()
    run = RecordingRng(master.fork(f"run-{k}").seed_bytes, log)
    phases = [0.0, 0.0, 0.0]
    outcome = task.run_one(run, phases)
    for name, seconds in zip(("setup_s", "execute_s", "classify_s"), phases):
        metrics.add(name, seconds)
    if outcome[0] is FairnessEvent.HONEST_HUNG or log.copied_draw:
        return None
    streams = {}
    for stream, *call in log.draws:
        streams.setdefault(stream, []).append(call)
    schedule, key = [], []
    for (path, _), calls in streams.items():
        smalls = [i for i, call in enumerate(calls) if call[2]]
        if smalls:
            made = calls[: smalls[-1] + 1]
            schedule.append((path, tuple(tuple(call[:3]) for call in made)))
            key.extend(calls[i][3] for i in smalls)
    draws = [draw[:4] for draw in log.draws]
    return outcome, draws, tuple(schedule), tuple(key)


def _replay(schedule, run: Rng) -> tuple:
    """The small values ``run`` draws at the schedule's positions."""
    key = []
    for path, calls in schedule:
        rng = run
        for label in path:
            rng = rng.fork(label)
        for method, args, small in calls:
            if method == "shuffle":
                args = (list(args[0]),)
            value = getattr(rng, method)(*args)
            if small:
                key.append(value)
    return tuple(key)


def matcher(task, adversary) -> Optional[callable]:
    """The draw-keyed kernel of ``task``, or ``None``."""
    from ...protocols.gordon_katz import GordonKatzProtocol

    # Gordon–Katz's i* is a loop of ``random()`` draws, so its runs' draw
    # schedules differ, and two witnesses with equal i* would pass.
    if isinstance(task.protocol, GordonKatzProtocol):
        return None
    token = getattr(task.input_sampler, "cache_token", "")
    if task.input_sampler is not None and not str(token).startswith("const:"):
        return None
    master = Rng(task.seed)
    first = _calibrate(task, master, 0)
    if first is None:
        return None
    _, draws, schedule, _ = first
    window = min(task.n_runs, _SEARCH)
    witnesses = {}
    try:
        for k in range(window):
            key = _replay(schedule, master.fork(f"run-{k}"))
            runs = witnesses.setdefault(key, [])
            if len(witnesses) > _MAX_KEYS:
                return None
            if len(runs) < 2:
                runs.append(k)
    except TypeError:  # an unhashable small value
        return None
    events = {}
    for key, runs in witnesses.items():
        if len(runs) < 2 and window < task.n_runs:
            continue  # one run stands only for itself
        outcomes = set()
        for k in runs:
            run = first if k == 0 else _calibrate(task, master, k)
            if run is None or run[1] != draws or run[3] != key:
                return None
            outcomes.add(run[0])
        if len(outcomes) != 1:
            return None
        (events[key],) = outcomes

    def kernel(start: int, stop: int) -> EventCounts:
        counts = EventCounts()
        fallback = 0
        for k in range(start, stop):
            run = master.fork(f"run-{k}")
            outcome = events.get(_replay(schedule, run))
            if outcome is None:
                fallback += 1
                outcome = task.run_one(run)
            counts.record(*outcome)
        metrics.add("vectorized_runs", stop - start - fallback)
        if fallback:
            metrics.add("kernel_fallback_runs", fallback)
        return counts

    return kernel
