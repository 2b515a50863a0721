"""A layer tracer that wraps the program's public functions from outside.

:class:`Tracer` replaces each target in :data:`TARGETS` with a timing
wrapper.  A target is a module-level function, a method defined on a
class, every override of a method in the subclasses of a class, or a
class (replaced by a counting subclass).  A function that other modules
imported by name is also replaced at each of those import sites, so calls
through ``from x import f`` are seen too.  :meth:`Tracer.uninstall`
puts every original back.

Each call opens a frame on a per-thread stack.  When it returns, the
frame's duration is added to its span name's inclusive time, the duration
minus its children's is added to its self time, and, for the coarse span
names (everything outside :data:`LEAF_SPANS`), a span record ``(id,
parent id, name, start, end, trace id)`` is kept in memory.  The trace id
is the run id given to the tracer, or the service job id while a job runs.
Nothing is written until :meth:`Tracer.report`.

A target that no longer exists is not an error: it is listed in
``report()["absent"]`` with the reason, and the metrics built on it are
reported absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: ``(span name, module, attribute)``.  ``Class.method`` wraps a method;
#: ``Class.method+`` wraps the method's override in every subclass too;
#: an attribute naming a class replaces it with a counting subclass.
TARGETS = (
    ("setup.protocol_registry", "repro.cli", "_protocol_registry"),
    ("setup.claim_registry", "repro.verify.claims", "default_registry"),
    ("verify.check_claim", "repro.verify.checker", "check_claim"),
    ("runtime.batch", "repro.runtime.runner", "SerialRunner.run"),
    ("runtime.batch", "repro.runtime.runner", "ProcessPoolRunner.run"),
    ("runtime.pool_spawn", "repro.runtime.runner", "ProcessPoolExecutor"),
    ("engine.run", "repro.engine.execution", "run_execution"),
    ("engine.clone", "repro.engine.party", "HonestRunner.clone"),
    ("adversaries.probe", "repro.adversaries.base",
     "MachineDrivingAdversary.coalition_probe"),
    ("functionalities.invoke", "repro.functionalities.base",
     "Functionality.invoke+"),
    ("crypto.prg_read", "repro.crypto.prf", "Prg.read"),
    ("crypto.rng_fork", "repro.crypto.prf", "Rng.fork"),
    ("crypto.mac", "repro.crypto.mac", "gen_mac_key"),
    ("crypto.mac", "repro.crypto.mac", "tag"),
    ("crypto.mac", "repro.crypto.mac", "verify"),
    ("crypto.signature", "repro.crypto.signature", "gen"),
    ("crypto.signature", "repro.crypto.signature", "sign"),
    ("crypto.signature", "repro.crypto.signature", "ver"),
    ("crypto.sharing", "repro.crypto.secret_sharing", "additive_share"),
    ("crypto.sharing", "repro.crypto.secret_sharing", "additive_reconstruct"),
    ("crypto.sharing", "repro.crypto.secret_sharing", "xor_share"),
    ("crypto.sharing", "repro.crypto.secret_sharing", "xor_reconstruct"),
    ("crypto.sharing", "repro.crypto.secret_sharing", "shamir_share"),
    ("crypto.sharing", "repro.crypto.secret_sharing", "shamir_reconstruct"),
    ("crypto.sharing", "repro.crypto.authenticated_sharing", "deal"),
    ("crypto.sharing", "repro.crypto.authenticated_sharing", "reconstruct"),
    ("core.classify", "repro.core.events", "classify"),
    ("journal.record", "repro.runtime.journal", "RunJournal.record"),
    ("journal.fetch", "repro.runtime.journal", "RunJournal.fetch"),
    ("cache.fetch", "repro.runtime.cache", "ChunkCache.fetch"),
    ("cache.store", "repro.runtime.cache", "ChunkCache.store"),
    ("service.rpc", "repro.service.server", "ServiceServer.handle_rpc"),
    ("service.submit", "repro.service.jobs", "JobPool.submit"),
    ("service.job", "repro.service.jobs", "JobPool._run"),
)

#: Modules imported before installing, so that subclasses and by-name
#: import sites defined there exist when the tracer looks for them.
PRELOAD = ("repro.cli", "repro.protocols", "repro.gmw", "repro.verify",
           "repro.service")

#: High-frequency spans kept as counts and times only, not as records.
LEAF_SPANS = frozenset({
    "engine.clone", "adversaries.probe", "functionalities.invoke",
    "crypto.prg_read", "crypto.rng_fork", "crypto.mac", "crypto.signature",
    "crypto.sharing", "core.classify",
})

#: Span records kept per thread; further spans are counted, not stored.
MAX_SPANS_PER_THREAD = 200_000

_clock = time.perf_counter


class _ThreadState:
    __slots__ = ("index", "stack", "agg", "spans", "dropped", "trace_id",
                 "next_id")

    def __init__(self, index: int, trace_id: str):
        self.index = index
        self.stack = []       # frames: [name, start, child_s, span id]
        self.agg = {}         # name -> [calls, inclusive_s, self_s]
        self.spans = []
        self.dropped = 0
        self.trace_id = trace_id
        self.next_id = 0


class Tracer:
    def __init__(self, trace_id: str = "run", targets=TARGETS,
                 preload=PRELOAD):
        self.trace_id = trace_id
        self.targets = targets
        self.preload = preload
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []    # (owner, attribute, original), install order
        self.absent = {}      # span name -> reason
        self.wrapped = {}     # span name -> number of attributes replaced
        #: Counters and samples the hooks fill (see ``_HOOKS``).
        self.counts = {}
        self.samples = {}
        self.protocols = {}   # id(protocol) -> [protocol, runs, rounds, msgs]
        self.submitted_at = {}

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states), self.trace_id)
                self._states.append(state)
            self._local.state = state
            return state

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        before, after, on_result = _HOOKS.get(name, (None, None, None))
        record = name not in LEAF_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            token = before(tracer, state, args) if before else None
            stack = state.stack
            span_id = state.next_id
            state.next_id += 1
            frame = [name, _clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[1]
                entry = state.agg.get(name)
                if entry is None:
                    entry = state.agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if record:
                    if len(state.spans) < MAX_SPANS_PER_THREAD:
                        state.spans.append((
                            f"{state.index}.{span_id}",
                            f"{state.index}.{stack[-1][3]}" if stack else None,
                            name, frame[1], end, state.trace_id,
                        ))
                    else:
                        state.dropped += 1
                if name == "runtime.batch" and _outermost_batch_in_claim(stack):
                    entry = state.agg.setdefault(
                        "verify.in_runner", [0, 0.0, 0.0]
                    )
                    entry[0] += 1
                    entry[1] += duration
                if after is not None:
                    after(tracer, state, args, token, duration)
            if on_result is not None:
                on_result(tracer, state, args, result)
            return result

        return traced

    def _counting_class(self, cls, name: str):
        tracer = self

        class Counted(cls):
            def __init__(self, *args, **kwargs):
                tracer.count(name)
                super().__init__(*args, **kwargs)

        Counted.__name__ = cls.__name__
        Counted.__qualname__ = cls.__qualname__
        return Counted

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _replace_import_sites(self, original, replacement) -> int:
        """Point every ``repro`` module attribute bound to ``original`` at
        ``replacement``; return how many were replaced."""
        n = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)
                    n += 1
        return n

    def _install_one(self, name: str, module_name: str, path: str) -> int:
        module = importlib.import_module(module_name)
        parts = path.split(".")
        if len(parts) == 1:
            original = vars(module)[parts[0]]
            if isinstance(original, type):
                replacement = self._counting_class(original, name)
            else:
                replacement = self._wrap(original, name)
            return self._replace_import_sites(original, replacement)
        cls_name, method = parts
        subclasses = method.endswith("+")
        method = method.rstrip("+")
        cls = vars(module)[cls_name]
        classes = _all_subclasses(cls) if subclasses else [cls]
        n = 0
        for klass in classes:
            fn = klass.__dict__.get(method)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            self._patch(klass, method, self._wrap(fn, name))
            n += 1
        if n == 0:
            raise KeyError(f"{cls_name}.{method}")
        return n

    def install(self) -> "Tracer":
        for module_name in self.preload:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for name, module_name, path in self.targets:
            try:
                n = self._install_one(name, module_name, path)
            except (ImportError, KeyError, AttributeError, TypeError) as exc:
                self.absent.setdefault(
                    name,
                    f"target {module_name}:{path} not found "
                    f"({type(exc).__name__}: {exc})",
                )
                continue
            self.wrapped[name] = self.wrapped.get(name, 0) + n
        # A name with at least one live target is present.
        for name in list(self.absent):
            if self.wrapped.get(name):
                del self.absent[name]
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        """Merged per-name ``{calls, inclusive_s, self_s}``, hook counters,
        samples, span records and the absent targets."""
        agg = {}
        spans = []
        dropped = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, incl, self_s) in state.agg.items():
                total = agg.setdefault(name, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += incl
                total[2] += self_s
            spans.extend(state.spans)
            dropped += state.dropped
        protocols = []
        for protocol, runs, rounds, messages in self.protocols.values():
            protocols.append({
                "name": getattr(protocol, "name", type(protocol).__name__),
                "runs": runs, "rounds": rounds, "messages": messages,
                "predicted": _predicted_cost(protocol),
            })
        return {
            "trace_id": self.trace_id,
            "layers": {
                name: {"calls": c, "inclusive_s": i, "self_s": s}
                for name, (c, i, s) in sorted(agg.items())
            },
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "protocols": protocols,
            "absent": dict(self.absent),
            "wrapped": dict(self.wrapped),
            "spans": spans,
            "spans_dropped": dropped,
        }


def _all_subclasses(cls):
    seen = []
    todo = [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def _outermost_batch_in_claim(stack) -> bool:
    """True when a just-closed batch ran directly inside a claim check
    (not nested in another batch)."""
    for frame in reversed(stack):
        if frame[0] == "runtime.batch":
            return False
        if frame[0] == "verify.check_claim":
            return True
    return False


def _predicted_cost(protocol):
    """The symbolic cost model's honest-run prediction, or ``None``."""
    try:
        from repro.analysis.symbolic_cost import evaluate, model_for
    except ImportError:
        return None
    try:
        if model_for(protocol) is None:
            return None
        cost = evaluate(protocol)
    except Exception:  # an unmodelled or unbindable protocol
        return None
    return {"rounds": cost.rounds, "messages": cost.total_messages}


# -- hooks: (before, after, on_result) ---------------------------------------


def _engine_result(tracer, state, args, result):
    protocol = args[0]
    rounds = getattr(result, "rounds_used", 0)
    messages = len(getattr(result, "transcript", ()))
    with tracer._lock:
        entry = tracer.protocols.get(id(protocol))
        if entry is None:
            entry = tracer.protocols[id(protocol)] = [protocol, 0, 0, 0]
        entry[1] += 1
        entry[2] += rounds
        entry[3] += messages


def _fetch_result(counter):
    def hook(tracer, state, args, result):
        if isinstance(result, tuple) and result and result[0]:
            tracer.count(counter)
    return hook


def _rpc_before(tracer, state, args):
    try:
        request = json.loads(args[1])
        method = request.get("method")
        params = request.get("params") or {}
    except (ValueError, AttributeError, IndexError, TypeError):
        return False
    return method == "job.result" and bool(params.get("timeout_s"))


def _rpc_after(tracer, state, args, long_poll, duration):
    if not long_poll:
        tracer.sample("service.rpc_ms", duration * 1e3)


def _submit_result(tracer, state, args, result):
    job, deduped = result
    if not deduped:
        tracer.submitted_at[job.key] = _clock()


def _job_before(tracer, state, args):
    job = args[1]
    submitted = tracer.submitted_at.get(job.key)
    if submitted is not None:
        tracer.sample("service.queue_wait_ms", (_clock() - submitted) * 1e3)
    previous = state.trace_id
    state.trace_id = job.key
    return previous


def _job_after(tracer, state, args, previous, duration):
    state.trace_id = previous
    tracer.sample("service.exec_ms", duration * 1e3)


_HOOKS = {
    "engine.run": (None, None, _engine_result),
    "journal.fetch": (None, None, _fetch_result("journal.hits")),
    "cache.fetch": (None, None, _fetch_result("cache.hits")),
    "service.rpc": (_rpc_before, _rpc_after, None),
    "service.submit": (None, None, _submit_result),
    "service.job": (_job_before, _job_after, None),
}
