"""Distributed runner venue tests: wire framing, the task-spec codec,
partial encoding, worker-address parsing, and localhost coordinator ↔
subprocess-worker end-to-end runs (bit-identity with the serial venue,
worker death and reassignment, wedged-chunk deadlines, and total-loss
degradation to in-process replay).

The e2e tests spawn real ``repro worker`` subprocesses on port 0 and
read the announced port from stdout, so nothing here assumes a free
well-known port.  Explicit ``retry``/``fault`` arguments keep the suite
stable whatever ``REPRO_FAULT_*`` the environment sets.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.adversaries import strategy_space_for_protocol
from repro.analysis import run_batch, sweep_strategies
from repro.core import FairnessEvent, PayoffVector
from repro.core.utility import EventCounts
from repro.crypto import Rng
from repro.functions import make_and, make_concat, make_contract_exchange, make_swap
from repro.gmw import ThresholdGmwProtocol
from repro.protocols import (
    CoinOrderedContractSigning,
    DummyProtocol,
    GordonKatzProtocol,
    GradualReleaseProtocol,
    NaiveContractSigning,
    Opt2SfeProtocol,
    OptNSfeProtocol,
    SingleRoundProtocol,
    UnbalancedOptProtocol,
)
from repro.runtime import (
    NO_FAULTS,
    DistributedRunner,
    ExecutionTask,
    FaultSpec,
    RetryPolicy,
    SerialRunner,
    parse_workers,
    resolve_heartbeat,
)
from repro.runtime.distributed import (
    CodecError,
    ConnectionClosed,
    FrameError,
    MAX_FRAME,
    WireError,
    decode_partial,
    decode_task,
    encode_partial,
    encode_task,
    recv_frame,
    send_frame,
    task_fingerprint,
)
from repro.runtime.distributed.codec import tag_value, untag_value

GAMMA = PayoffVector(0.0, 0.0, 1.0, 0.5)

#: Fast retry ladder for tests.
FAST = dict(backoff_s=0.01, backoff_multiplier=1.0)


# -- wire framing ------------------------------------------------------------


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestFraming:
    def test_round_trip(self):
        a, b = _pair()
        try:
            for msg in (
                {"type": "ready"},
                {"type": "chunk", "task": 0, "start": 0, "stop": 40, "gen": 3},
                {"nested": {"deep": [1, 2, {"x": "y"}]}, "unicode": "Γ+fair ≥ ½"},
            ):
                send_frame(a, msg)
                assert recv_frame(b) == msg
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected_on_both_sides(self):
        a, b = _pair()
        try:
            with pytest.raises(FrameError):
                send_frame(a, {"blob": "x" * MAX_FRAME})
            # A forged oversized length prefix is rejected before any
            # attempt to allocate/read the body.
            a.sendall(struct.pack(">I", MAX_FRAME + 1))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_is_connection_closed(self):
        a, b = _pair()
        try:
            payload = json.dumps({"type": "ready"}).encode()
            frame = struct.pack(">I", len(payload)) + payload
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(ConnectionClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_clean_eof_is_connection_closed(self):
        a, b = _pair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(b)
        finally:
            b.close()

    @pytest.mark.parametrize(
        "body",
        [b"not json at all", b"\xff\xfe\x00garbage", b"[1, 2, 3]", b'"str"'],
        ids=["not-json", "not-utf8", "array", "scalar"],
    )
    def test_garbage_and_non_object_bodies_rejected(self, body):
        a, b = _pair()
        try:
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# -- partial-value encoding --------------------------------------------------


class TestPartialCodec:
    def test_int_and_tuple_round_trip(self):
        for part in (0, 17, (1, 2, 3), (0,)):
            assert decode_partial(encode_partial(part)) == part

    def test_bool_rejected(self):
        # bool is an int subclass; letting it through would silently
        # change merge semantics.
        with pytest.raises(WireError):
            encode_partial(True)

    def test_event_counts_round_trip_preserves_key_order(self):
        part = EventCounts()
        # Insertion order matters downstream: estimate_from_counts sums
        # floats in dict order, so the wire form must preserve it.
        part.record(FairnessEvent.E01, frozenset({1}))
        part.record(FairnessEvent.E11, frozenset({0}))
        part.record(FairnessEvent.E01, frozenset({0, 1}))
        part.record(FairnessEvent.E10, frozenset({0}))
        dec = decode_partial(encode_partial(part))
        assert dec == part
        assert list(dec.counts.keys()) == list(part.counts.keys())
        assert list(dec.corruption_counts.keys()) == list(
            part.corruption_counts.keys()
        )

    def test_str_counter_round_trip_preserves_key_order(self):
        part = Counter({"b": 2, "a": 1, "c": 3})
        dec = decode_partial(json.loads(json.dumps(encode_partial(part))))
        assert isinstance(dec, Counter)
        assert list(dec.items()) == list(part.items())

    def test_counter_with_non_str_keys_rejected(self):
        for part in (Counter({1: 2}), Counter({("a",): 1}),
                     Counter({"a": 1.5})):
            with pytest.raises(WireError):
                encode_partial(part)

    def test_wire_form_is_json_safe(self):
        part = EventCounts()
        part.record(FairnessEvent.E00, frozenset({0}))
        wire = encode_partial(part)
        assert json.loads(json.dumps(wire)) == wire

    def test_tag_value_round_trip(self):
        for value in (0, 1, True, False, "0", "text", 2.5, None,
                      (1, "x"), b"\x00\xff", ((0, 1), "nested")):
            assert untag_value(tag_value(value)) == value
        # The int/str/bool distinction survives (encode_seed is
        # type-tagged, so "0", 0, and False must stay distinct).
        assert untag_value(tag_value(0)) is not True
        assert isinstance(untag_value(tag_value("0")), str)
        assert isinstance(untag_value(tag_value(0)), int)
        assert isinstance(untag_value(tag_value(True)), bool)


# -- task-spec codec ---------------------------------------------------------


def _codec_zoo():
    return [
        DummyProtocol(make_swap(8)),
        Opt2SfeProtocol(make_swap(8)),
        GordonKatzProtocol(make_and(), p=2),
        OptNSfeProtocol(make_concat(3, 8)),
        SingleRoundProtocol(make_swap(16)),
        GradualReleaseProtocol(make_and()),
        NaiveContractSigning(make_contract_exchange(16)),
        CoinOrderedContractSigning(make_contract_exchange(16)),
        UnbalancedOptProtocol(make_concat(3, 8)),
        ThresholdGmwProtocol(make_concat(3, 8)),
    ]


class TestTaskCodec:
    def test_every_registered_protocol_strategy_pair_round_trips(self):
        """Whole-space coverage: every (protocol, strategy) pair the
        search layer can produce must survive encode → JSON → decode
        with an identical fingerprint and a behaviourally equal
        adversary."""
        pairs = 0
        for protocol in _codec_zoo():
            for factory in strategy_space_for_protocol(protocol):
                task = ExecutionTask(
                    protocol, factory, n_runs=16, seed=(3, protocol.name)
                )
                spec = encode_task(task)
                assert spec is not None, (protocol.name, factory.name)
                again = decode_task(json.loads(json.dumps(spec)))
                assert task_fingerprint(again) == task_fingerprint(task)
                a = factory(Rng("codec-probe"))
                b = again.factory(Rng("codec-probe"))
                assert type(a) is type(b), (protocol.name, factory.name)
                assert a.__dict__ == b.__dict__, (protocol.name, factory.name)
                pairs += 1
        assert pairs > 100  # the space is genuinely broad

    def test_fingerprint_tamper_detected(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        factory = strategy_space_for_protocol(protocol)[1]
        spec = encode_task(ExecutionTask(protocol, factory, n_runs=8, seed=1))
        spec["fingerprint"] = "0" * len(spec["fingerprint"])
        with pytest.raises(CodecError):
            decode_task(spec)

    def test_opaque_task_is_not_encodable(self):
        class Opaque:
            n_runs = 8

            def run_chunk(self, start, stop):
                return stop - start

        assert encode_task(Opaque()) is None

    def test_anonymous_factory_is_not_encodable(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        task = ExecutionTask(protocol, lambda rng: None, n_runs=8, seed=1)
        assert encode_task(task) is None

    def test_seed_types_stay_distinct(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        factory = strategy_space_for_protocol(protocol)[1]
        for seed in (0, "0", (1, "x"), b"\x07"):
            task = ExecutionTask(protocol, factory, n_runs=8, seed=seed)
            again = decode_task(encode_task(task))
            assert again.seed == seed
            assert type(again.seed) is type(seed)


# -- worker address parsing --------------------------------------------------


class TestParseWorkers:
    def test_string_forms(self):
        assert parse_workers("") == []
        assert parse_workers("h1:9000") == [("h1", 9000)]
        assert parse_workers(" h1:9000 , h2:9001 ") == [
            ("h1", 9000), ("h2", 9001)
        ]

    def test_iterable_forms(self):
        assert parse_workers([("h1", 9000), ["h2", 9001], "h3:9002"]) == [
            ("h1", 9000), ("h2", 9001), ("h3", 9002)
        ]

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "a:1,b:2")
        assert parse_workers(None) == [("a", 1), ("b", 2)]
        monkeypatch.delenv("REPRO_WORKERS")
        assert parse_workers(None) == []

    @pytest.mark.parametrize("bad", ["justhost", ":9000", "h1:port"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_workers(bad)

    @pytest.mark.parametrize("bad", ["h1:0", "h1:70000", "h1:-5"])
    def test_out_of_range_port_names_the_knob(self, bad, monkeypatch):
        # The error must name REPRO_WORKERS: the value may have come from
        # the environment, and "bad port" alone is undebuggable there.
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            parse_workers(None)

    def test_non_integer_port_names_the_knob(self):
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            parse_workers("h1:port")

    def test_runner_requires_at_least_one(self):
        with pytest.raises(ValueError):
            DistributedRunner([])


class TestHeartbeatResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT_S", raising=False)
        assert resolve_heartbeat() == 1.0

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "5")
        assert resolve_heartbeat(0.25) == 0.25

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "2.5")
        assert resolve_heartbeat() == 2.5

    @pytest.mark.parametrize("bad", ["soon", "0", "-1", "nan"])
    def test_garbage_env_names_the_variable(self, bad, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_S", bad)
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT_S"):
            resolve_heartbeat()

    def test_explicit_non_positive_rejected(self):
        with pytest.raises(ValueError):
            resolve_heartbeat(0.0)


# -- localhost end-to-end ----------------------------------------------------


def _src_path():
    return str(Path(repro.__file__).resolve().parents[1])


@contextmanager
def _worker_fleet(n, env_extra=None):
    """Spawn ``n`` ``repro worker --once`` subprocesses on port 0 and
    yield their announced addresses."""
    env = os.environ.copy()
    env["PYTHONPATH"] = _src_path() + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    procs, addrs = [], []
    try:
        for _ in range(n):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--listen", "127.0.0.1:0", "--once"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            procs.append(proc)
            info = json.loads(proc.stdout.readline())
            assert info["event"] == "listening"
            addrs.append((info["host"], info["port"]))
        yield addrs
    finally:
        deadline = time.monotonic() + 5.0
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _workload():
    protocol = Opt2SfeProtocol(make_swap(8))
    factory = strategy_space_for_protocol(protocol)[1]
    return protocol, factory


def _clean_serial(protocol, factory, n_runs, seed, **kw):
    return run_batch(
        protocol, factory, n_runs, seed=seed,
        runner=SerialRunner(fault=NO_FAULTS), **kw,
    )


class TestEndToEnd:
    def test_two_workers_bit_identical_with_serial(self):
        protocol, factory = _workload()
        clean = _clean_serial(protocol, factory, 120, seed=7)
        with _worker_fleet(2) as addrs:
            runner = DistributedRunner(
                addrs, chunk_size=20,
                retry=RetryPolicy(max_retries=2, **FAST), fault=NO_FAULTS,
            )
            counts = run_batch(protocol, factory, 120, seed=7, runner=runner)
        assert counts == clean
        stats = counts.run_stats
        assert stats.backend == "distributed"
        assert stats.jobs == 2
        assert stats.executions == 120
        assert stats.worker_deaths == 0
        # Every chunk carries its worker attribution, and (with two
        # live workers and six chunks) the fleet actually shared work.
        workers = {c.worker for c in stats.chunks if c.outcome == "ok"}
        assert all(w for w in workers)
        assert len(workers) >= 1

    def test_sweep_across_venues_bit_identical(self):
        protocol = Opt2SfeProtocol(make_swap(8))
        factories = strategy_space_for_protocol(protocol)[:3]
        serial = sweep_strategies(
            protocol, factories, GAMMA, n_runs=40, seed=(11, "dist")
        )
        with _worker_fleet(2) as addrs:
            distributed = sweep_strategies(
                protocol, factories, GAMMA, n_runs=40, seed=(11, "dist"),
                runner=DistributedRunner(addrs, chunk_size=10, fault=NO_FAULTS),
            )
        assert serial == distributed

    def test_worker_killed_mid_batch_chunks_reassigned(self):
        """A ``kind="exit"`` injected fault kills the worker process
        mid-batch; the coordinator must notice the death, requeue the
        chunk, and still finish bit-identically."""
        protocol, factory = _workload()
        clean = _clean_serial(protocol, factory, 120, seed=7)
        with _worker_fleet(2) as addrs:
            runner = DistributedRunner(
                addrs, chunk_size=20,
                retry=RetryPolicy(max_retries=3, **FAST),
                fault=FaultSpec(
                    rate=0.6, kind="exit", seed="kill", max_consecutive=1
                ),
            )
            counts = run_batch(protocol, factory, 120, seed=7, runner=runner)
        assert counts == clean
        stats = counts.run_stats
        assert stats.backend == "distributed"
        assert stats.worker_deaths >= 1
        assert stats.failed_attempts >= stats.worker_deaths
        assert stats.executions == 120

    def test_total_worker_loss_degrades_to_local_replay(self):
        """When every worker dies, the remaining spans resolve through
        the in-process ladder — the batch always completes."""
        protocol, factory = _workload()
        clean = _clean_serial(protocol, factory, 80, seed=7)
        with _worker_fleet(2) as addrs:
            runner = DistributedRunner(
                addrs, chunk_size=20,
                retry=RetryPolicy(max_retries=1, **FAST),
                fault=FaultSpec(
                    rate=1.0, kind="exit", seed="carnage", max_consecutive=8
                ),
            )
            counts = run_batch(protocol, factory, 80, seed=7, runner=runner)
        assert counts == clean
        stats = counts.run_stats
        assert stats.worker_deaths == 2
        assert stats.degraded
        assert stats.serial_replays >= 1
        assert stats.executions == 80

    def test_wedged_chunk_reassigned_without_killing_worker(self):
        """A ``kind="sleep"`` fault stalls the chunk but heartbeats keep
        flowing: the chunk *deadline* (not the death detector) fires,
        the span is reassigned under a bumped generation, and the
        sleeper survives to serve again."""
        protocol, factory = _workload()
        clean = _clean_serial(protocol, factory, 80, seed=7)
        with _worker_fleet(2) as addrs:
            runner = DistributedRunner(
                addrs, chunk_size=40,
                retry=RetryPolicy(max_retries=2, chunk_timeout_s=0.5, **FAST),
                fault=FaultSpec(
                    rate=1.0, kind="sleep", sleep_s=2.0, seed="wedge",
                    max_consecutive=1,
                ),
            )
            counts = run_batch(protocol, factory, 80, seed=7, runner=runner)
        assert counts == clean
        stats = counts.run_stats
        assert stats.timeouts >= 1
        assert stats.worker_deaths == 0
        assert stats.executions == 80

    def test_unreachable_fleet_falls_back_to_serial(self):
        protocol, factory = _workload()
        clean = _clean_serial(protocol, factory, 40, seed=7)
        # Hold a bound-but-not-listening socket for the whole test: the
        # port stays reserved (connects get ECONNREFUSED) instead of the
        # old bind/close dance, which let the OS re-issue the port to
        # another process between close() and the runner's connect.
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            runner = DistributedRunner(
                [("127.0.0.1", port)], connect_timeout_s=0.3, fault=NO_FAULTS,
            )
            counts = run_batch(protocol, factory, 40, seed=7, runner=runner)
        finally:
            probe.close()
        assert counts == clean
        assert runner.last_stats.backend == "serial"

    def test_early_stop_halts_at_identical_run_index(self):
        from repro.runtime import UtilityBoundStop

        protocol, factory = _workload()
        rule = UtilityBoundStop(GAMMA, bound=0.95, min_runs=16)
        serial = run_batch(
            protocol, factory, 300, seed=8,
            runner=SerialRunner(chunk_size=25, fault=NO_FAULTS),
            early_stop=rule,
        )
        with _worker_fleet(2) as addrs:
            distributed = run_batch(
                protocol, factory, 300, seed=8,
                runner=DistributedRunner(addrs, chunk_size=25, fault=NO_FAULTS),
                early_stop=rule,
            )
        assert serial == distributed
        assert serial.total == distributed.total < 300
        assert distributed.run_stats.stopped_early
        # (No cancelled_chunks assertion: fast workers may legitimately
        # resolve every span before the fold reaches the stop index —
        # out-of-order resolution changes accounting, never the value.)
