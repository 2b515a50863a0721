"""Service venue end-to-end tests: the JSON-RPC job server over HTTP.

Every test in the HTTP classes drives a real ``ServiceServer`` on a
localhost ephemeral port through real sockets — the submission path,
the dedupe contract (N concurrent identical requests → one execution,
byte-identical payloads), monotonic chunk streaming, spec-compliant
JSON-RPC error objects, the rate-limit and queue-full admission errors,
and a shutdown that drains in-flight jobs without leaking threads or
processes (``conftest.leak_failure``).  Explicit
``fault``/rate/queue arguments keep the suite stable whatever
``REPRO_FAULT_*``/``REPRO_SERVICE_*`` the environment sets.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.adversaries import strategy_space_for_protocol
from repro.analysis import estimate_utility
from repro.analysis.export import estimate_to_dict, run_stats_to_dict
from repro.cli import main
from repro.core import PayoffVector
from repro.functions import make_swap
from repro.protocols import Opt2SfeProtocol
from repro.runtime import NO_FAULTS, SerialRunner
from repro.runtime.cache import ChunkCache
from repro.runtime.config import knob
from repro.service import server as server_module
from repro.service import JobPool, ServiceServer, TokenBucket

from .conftest import leak_failure

GAMMA = PayoffVector(0.0, 0.0, 1.0, 0.5)

#: A small, always-available estimate_utility request.
REQUEST = {
    "protocol": "opt-2sfe",
    "strategy": "lock-watch[0]",
    "runs": 64,
    "seed": 11,
}


def _serial():
    return SerialRunner(fault=NO_FAULTS)


def _post(port, body, tenant=None, timeout=60):
    """One raw POST; returns ``(status, decoded body or None)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Repro-Tenant"] = tenant
        conn.request("POST", "/", body, headers)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, (json.loads(raw) if raw else None)
    finally:
        conn.close()


def _rpc(port, method, params=None, request_id=1, tenant=None, timeout=60):
    body = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params is not None:
        body["params"] = params
    status, decoded = _post(port, json.dumps(body), tenant=tenant,
                            timeout=timeout)
    assert status == 200
    return decoded


def _result(port, job_id, tenant=None, timeout_s=60):
    reply = _rpc(port, "job.result",
                 {"job_id": job_id, "timeout_s": timeout_s}, tenant=tenant)
    assert "result" in reply, reply
    return reply["result"]


@contextmanager
def _server(**kw):
    kw.setdefault("runner_factory", _serial)
    kw.setdefault("rate", 10_000.0)
    kw.setdefault("burst", 10_000)
    kw.setdefault("queue_limit", 16)
    kw.setdefault("workers", 2)
    srv = ServiceServer(**kw)
    srv.bind()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown(drain=False)
        thread.join(10)


def _children(pid):
    """Pids of the live processes whose parent is ``pid`` (Linux)."""
    if not os.path.isdir("/proc"):
        pytest.skip("needs /proc")
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and int(stat[1]) == pid:
                found.append(int(entry))
    return found


def _stat(pid):
    """``(state, ppid)`` of ``pid`` from ``/proc``; ``None`` once gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return fields[0], fields[1]


def _running(pid) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


class TestLifecycle:
    def test_full_job_lifecycle_over_http(self):
        with _server() as srv:
            reply = _rpc(srv.port, "estimate_utility", REQUEST)
            sub = reply["result"]
            assert sub["deduped"] is False
            job_id = sub["job_id"]
            assert len(job_id) == 64 and int(job_id, 16) >= 0

            result = _result(srv.port, job_id)
            status = _rpc(srv.port, "job.status", {"job_id": job_id})["result"]
            assert status["state"] == "done"
            assert status["progress"]["executions"] == REQUEST["runs"]

            # The artefact is exactly what the library computes directly
            # (the registry's opt-2sfe wraps a 16-bit swap).
            protocol = Opt2SfeProtocol(make_swap(16))
            factory = next(
                f for f in strategy_space_for_protocol(protocol)
                if f.name == REQUEST["strategy"]
            )
            direct = estimate_to_dict(estimate_utility(
                protocol, factory, GAMMA,
                n_runs=REQUEST["runs"], seed=REQUEST["seed"],
                runner=_serial(),
            ))
            assert result["artifact"] == direct
            # estimate_to_dict has no timing subtree, so the
            # deterministic payload is the artefact itself.
            assert result["deterministic_payload"] == direct
            # RunStats ride along, service counters included.
            assert result["run_stats"]
            last = result["run_stats"][-1]
            assert last["executions"] == REQUEST["runs"]
            assert "service_dedup_hits" in last
            assert "service_rate_limited" in last

    def test_service_info_reports_bound_port(self):
        with _server() as srv:
            info = _rpc(srv.port, "service.info")["result"]
            assert info["port"] == srv.port
            assert info["host"] == "127.0.0.1"
            assert "estimate_utility" in info["methods"]
            assert "job.stream" in info["methods"]

    def test_accepted_connections_set_tcp_nodelay(self, monkeypatch):
        # A reply is written as headers then body.  With Nagle's
        # algorithm on, each RPC after a keep-alive connection's first
        # waited ~40 ms for the client's delayed acknowledgement of the
        # headers, so every accepted socket must have TCP_NODELAY set.
        nodelay = []
        setup = server_module._Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ))

        monkeypatch.setattr(server_module._Handler, "setup", recording_setup)
        body = json.dumps(
            {"jsonrpc": "2.0", "id": 1, "method": "service.info"}
        )
        with _server() as srv:
            assert _post(srv.port, body)[0] == 200
        assert nodelay and all(nodelay), nodelay

    def test_ephemeral_bind_returns_real_port(self):
        srv = ServiceServer(port=0, runner_factory=_serial)
        try:
            port = srv.bind()
            assert port != 0 and srv.port == port
        finally:
            srv.shutdown(drain=False)

    def test_result_before_done_and_cancel(self):
        gate = threading.Event()

        def blocked(runner, params):
            gate.wait(30)
            return {"ok": True}

        with _server(workers=1) as srv:
            srv.register_method("test.block", blocked)
            running = _rpc(srv.port, "test.block", {"k": 1})["result"]["job_id"]
            pending = _rpc(srv.port, "test.block", {"k": 2})["result"]["job_id"]
            try:
                reply = _rpc(srv.port, "job.result",
                             {"job_id": running, "timeout_s": 0})
                assert reply["error"]["code"] == -32002  # JOB_NOT_DONE
                assert reply["error"]["data"]["state"] in ("pending", "running")

                # A pending job cancels; a running one does not.
                got = _rpc(srv.port, "job.cancel", {"job_id": pending})["result"]
                assert got["cancelled"] is True
                got = _rpc(srv.port, "job.cancel", {"job_id": running})["result"]
                assert got["cancelled"] is False
            finally:
                gate.set()
            assert _result(srv.port, running)["artifact"] == {"ok": True}
            reply = _rpc(srv.port, "job.result",
                         {"job_id": pending, "timeout_s": 30})
            assert reply["error"]["code"] == -32004  # JOB_CANCELLED

    def test_unknown_job_id(self):
        with _server() as srv:
            for method in ("job.status", "job.result", "job.stream",
                           "job.cancel"):
                reply = _rpc(srv.port, method, {"job_id": "f" * 64})
                assert reply["error"]["code"] == -32001, method


class TestDedupe:
    def test_concurrent_identical_requests_execute_once(self):
        n_clients = 4
        request = dict(REQUEST, runs=96, seed=23)
        with _server(workers=2) as srv:
            barrier = threading.Barrier(n_clients)
            submissions, results, errors = [], [], []

            def client():
                try:
                    barrier.wait(10)
                    sub = _rpc(srv.port, "estimate_utility", request)["result"]
                    submissions.append(sub)
                    results.append(_result(srv.port, sub["job_id"]))
                except Exception as exc:  # surface in the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=client)
                       for _ in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not errors, errors

            # One job id, exactly one execution, N-1 dedup hits.
            assert len({s["job_id"] for s in submissions}) == 1
            assert sum(1 for s in submissions if not s["deduped"]) == 1
            stats = _rpc(srv.port, "service.stats")["result"]
            assert stats["executed"] == 1
            assert stats["submitted"] == 1
            assert stats["dedup_hits"] == n_clients - 1

            # Byte-identical payloads for every client.
            encoded = {
                json.dumps(
                    {k: r[k] for k in
                     ("job", "artifact", "deterministic_payload", "run_stats")},
                    sort_keys=True,
                )
                for r in results
            }
            assert len(encoded) == 1

    def test_dedup_hits_land_in_runstats_export(self):
        """A dedupe that precedes completion is stamped into the job's
        final RunStats (deterministically, via a gated job)."""
        gate = threading.Event()

        def gated(runner, canon):
            gate.wait(30)
            from repro.analysis import run_batch

            protocol = Opt2SfeProtocol(make_swap(8))
            factory = strategy_space_for_protocol(protocol)[0]
            run_batch(protocol, factory, 16, seed=1, runner=runner)
            return {"ok": True}

        pool = JobPool(runner_factory=_serial, queue_limit=4, workers=1)
        try:
            job, deduped = pool.submit("k1", "gated", {}, gated)
            assert not deduped
            again, deduped = pool.submit("k1", "gated", {}, gated)
            assert deduped and again is job
            gate.set()
            assert job.done.wait(30) and job.state == "done"
            last = job.result["run_stats"][-1]
            assert last["service_dedup_hits"] == 1
        finally:
            gate.set()
            pool.close(drain=False)

    def test_resubmission_after_completion_dedupes(self):
        with _server() as srv:
            first = _rpc(srv.port, "estimate_utility", REQUEST)["result"]
            _result(srv.port, first["job_id"])
            second = _rpc(srv.port, "estimate_utility", REQUEST)["result"]
            assert second["deduped"] is True
            assert second["job_id"] == first["job_id"]
            assert _rpc(srv.port, "service.stats")["result"]["executed"] == 1

    def test_failed_jobs_are_not_cached(self):
        attempts = []

        def flaky(runner, params):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return {"ok": True}

        with _server() as srv:
            srv.register_method("test.flaky", flaky)
            job_id = _rpc(srv.port, "test.flaky", {})["result"]["job_id"]
            reply = _rpc(srv.port, "job.result",
                         {"job_id": job_id, "timeout_s": 30})
            assert reply["error"]["code"] == -32003  # JOB_FAILED
            assert "transient" in reply["error"]["data"]
            retry = _rpc(srv.port, "test.flaky", {})["result"]
            assert retry["deduped"] is False  # failure evicted, re-ran
            assert _result(srv.port, retry["job_id"])["artifact"] == {"ok": True}


class TestStreaming:
    def test_chunk_partials_stream_monotonically(self):
        request = dict(REQUEST, runs=256)
        factory = lambda: SerialRunner(fault=NO_FAULTS, chunk_size=16)
        with _server(runner_factory=factory) as srv:
            job_id = _rpc(srv.port, "estimate_utility", request)["result"]["job_id"]
            cursor, polls, seen = 0, [], []
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                frame = _rpc(srv.port, "job.stream",
                             {"job_id": job_id, "since": cursor})["result"]
                assert frame["cursor"] >= cursor  # never rewinds
                assert frame["since"] == cursor
                seen.extend(frame["events"])
                polls.append(len(frame["events"]))
                cursor = frame["cursor"]
                if frame["done"]:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("job did not finish in time")

            # Events are totally ordered, gap-free, and cover every run.
            assert [e["seq"] for e in seen] == list(range(len(seen)))
            assert seen == sorted(seen, key=lambda e: e["start"])
            executed = sum(e["stop"] - e["start"] for e in seen
                           if e["outcome"] != "cancelled")
            assert executed == request["runs"]
            assert len(seen) == request["runs"] // 16

            final = _result(srv.port, job_id)
            assert len(final["run_stats"][-1]["chunks"]) == len(seen)


class TestJobProcesses:
    """Built-in jobs run in one job process per worker thread."""

    def test_concurrent_jobs_count_only_their_own_chunks(self, tmp_path):
        # Instrumentation counters are process-global; two jobs sharing
        # a process would read each other's cache lookups into their
        # RunStats.
        cache = ChunkCache(tmp_path)
        factory = lambda: SerialRunner(fault=NO_FAULTS, chunk_size=16,
                                       cache=cache)
        with _server(runner_factory=factory, workers=2) as srv:
            job_ids = [
                _rpc(srv.port, "estimate_utility",
                     dict(REQUEST, runs=256, strategy=strategy))
                ["result"]["job_id"]
                for strategy in ("lock-watch[0]", "passive[0]")
            ]
            for job_id in job_ids:
                stats = _result(srv.port, job_id)["run_stats"]
                lookups = sum(s["cache_hits"] + s["cache_misses"]
                              for s in stats)
                assert lookups == sum(s["n_chunks"] for s in stats) == 16

    def test_killed_job_process_fails_its_job_and_is_replaced(self):
        factory = lambda: SerialRunner(fault=NO_FAULTS, chunk_size=16)
        with _server(runner_factory=factory, workers=1) as srv:
            victim = srv.pool._processes[0].process
            job_id = _rpc(srv.port, "estimate_utility",
                          dict(REQUEST, runs=100_000))["result"]["job_id"]
            deadline = time.monotonic() + 60
            while not srv.pool.get(job_id).events_since(0)[0]:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            os.kill(victim.pid, signal.SIGKILL)

            reply = _rpc(srv.port, "job.result",
                         {"job_id": job_id, "timeout_s": 30})
            assert reply["error"]["code"] == -32003  # JOB_FAILED
            assert f"job process {victim.pid} exited" in reply["error"]["data"]

            result = _result(srv.port, _rpc(srv.port, "estimate_utility",
                                            REQUEST)["result"]["job_id"])
            assert result["artifact"]["n_runs"] == REQUEST["runs"]
            replacement = srv.pool._processes[0].process
            assert replacement.pid != victim.pid and replacement.is_alive()
            assert not victim.is_alive()

    def test_system_exit_fails_only_its_job(self):
        calls = []

        def factory():  # runs in the job process, which keeps `calls`
            calls.append(1)
            if len(calls) == 1:
                raise SystemExit("bad runner flags")
            return _serial()

        with _server(runner_factory=factory, workers=1) as srv:
            pid = srv.pool._processes[0].process.pid
            job_id = _rpc(srv.port, "estimate_utility",
                          REQUEST)["result"]["job_id"]
            reply = _rpc(srv.port, "job.result",
                         {"job_id": job_id, "timeout_s": 30})
            assert reply["error"]["code"] == -32003  # JOB_FAILED
            assert reply["error"]["data"] == "SystemExit: bad runner flags"
            retry = _rpc(srv.port, "estimate_utility",
                         REQUEST)["result"]["job_id"]
            assert _result(srv.port, retry)["artifact"]["n_runs"] == 64
            assert srv.pool._processes[0].process.pid == pid

    def test_received_keys_and_short_strings_are_shared(self):
        # Every retained result would otherwise hold its own copy of
        # each key and each repeated short string it arrived with.
        with _server(workers=1) as srv:
            jobs = []
            for seed in (1, 2):
                job_id = _rpc(srv.port, "estimate_utility",
                              dict(REQUEST, seed=seed))["result"]["job_id"]
                _result(srv.port, job_id)
                jobs.append(srv.pool.get(job_id))
            first, second = (job.result["run_stats"][-1] for job in jobs)
            for (k1, v1), (k2, v2) in zip(first.items(), second.items()):
                assert k1 is k2
                if isinstance(v1, str) and v1 == v2:
                    assert v1 is v2, k1
            events = [job.events_since(0)[0][0] for job in jobs]
            assert events[0]["outcome"] is events[1]["outcome"]

    def test_extension_methods_run_on_the_worker_thread(self):
        def where(runner, params):
            return {"pid": os.getpid()}

        with _server() as srv:
            srv.register_method("test.where", where)
            job_id = _rpc(srv.port, "test.where", {})["result"]["job_id"]
            assert _result(srv.port, job_id)["artifact"] == {
                "pid": os.getpid()
            }


class TestMalformedRequests:
    """Spec-compliant JSON-RPC 2.0 error objects on every bad input."""

    def _check_error_shape(self, reply, code, request_id=None):
        assert reply["jsonrpc"] == "2.0"
        assert reply["id"] == request_id
        assert set(reply) == {"jsonrpc", "id", "error"}
        assert reply["error"]["code"] == code
        assert isinstance(reply["error"]["message"], str)

    def test_parse_error(self):
        with _server() as srv:
            status, reply = _post(srv.port, "{not json")
            assert status == 200
            self._check_error_shape(reply, -32700)

    def test_invalid_request_envelopes(self):
        bad = [
            json.dumps([]),                                   # batch
            json.dumps("hi"),                                 # not an object
            json.dumps({"id": 1, "method": "service.info"}),  # no jsonrpc
            json.dumps({"jsonrpc": "1.0", "id": 1, "method": "x"}),
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": 7}),
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": ""}),
            json.dumps({"jsonrpc": "2.0", "id": True, "method": "x"}),
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": "x",
                        "params": "str"}),
        ]
        with _server() as srv:
            for body in bad:
                status, reply = _post(srv.port, body)
                assert status == 200
                self._check_error_shape(reply, -32600)

    def test_method_not_found(self):
        with _server() as srv:
            for name in ("nope", "job.nope", "service.nope"):
                reply = _rpc(srv.port, name, request_id=7)
                self._check_error_shape(reply, -32601, request_id=7)

    def test_fault_sensitivity_is_not_a_method(self):
        # The engine runs the paper's lossless network only: no fault
        # sweep is served, and service.info does not advertise one.
        with _server() as srv:
            reply = _rpc(
                srv.port, "fault_sensitivity", {"protocol": "opt-2sfe"},
                request_id=9,
            )
            self._check_error_shape(reply, -32601, request_id=9)
            info = _rpc(srv.port, "service.info")["result"]
            assert "fault_sensitivity" not in info["methods"]

    def test_invalid_params(self):
        cases = [
            ("estimate_utility", {}),                      # missing required
            ("estimate_utility", dict(REQUEST, bogus=1)),  # unknown field
            ("estimate_utility", dict(REQUEST, runs=0)),
            ("estimate_utility", dict(REQUEST, runs=True)),
            ("estimate_utility", dict(REQUEST, gamma=[1.0, 1.0, 0.0, 0.0])),
            ("estimate_utility", dict(REQUEST, gamma=[0.0, 0.0, 1.0])),
            ("estimate_utility", dict(REQUEST, seed={"oops": 1})),
            ("estimate_utility", dict(REQUEST, protocol="nope")),
            ("estimate_utility", dict(REQUEST, strategy="nope")),
            ("sweep_strategies", {"protocol": "opt-2sfe", "runs": -4}),
            ("verify_claims", {"claims": "E999"}),
            ("verify_claims", {"budget": "enormous"}),
            ("job.status", {}),
            ("job.result", {"job_id": 5}),
        ]
        with _server() as srv:
            for method, params in cases:
                reply = _rpc(srv.port, method, params, request_id=3)
                self._check_error_shape(reply, -32602, request_id=3)

    def test_array_params_rejected(self):
        with _server() as srv:
            status, reply = _post(srv.port, json.dumps(
                {"jsonrpc": "2.0", "id": 1, "method": "service.info",
                 "params": []}
            ))
            assert reply["error"]["code"] == -32602

    def test_notification_gets_no_body(self):
        with _server() as srv:
            status, reply = _post(srv.port, json.dumps(
                {"jsonrpc": "2.0", "method": "service.info"}
            ))
            assert status == 204 and reply is None


class TestAdmissionControl:
    def test_rate_limit_returns_documented_error(self):
        # A frozen clock means the bucket never refills: burst=2 admits
        # exactly two requests, the third gets RATE_LIMITED.
        with _server(rate=1.0, burst=2, clock=lambda: 0.0) as srv:
            assert "result" in _rpc(srv.port, "service.info", tenant="a")
            assert "result" in _rpc(srv.port, "service.info", tenant="a")
            reply = _rpc(srv.port, "service.info", tenant="a")
            assert reply["error"]["code"] == -32029  # RATE_LIMITED
            assert reply["error"]["data"]["retry_after_s"] > 0
            assert reply["error"]["data"]["tenant"] == "a"
            # Tenants are independent buckets.
            assert "result" in _rpc(srv.port, "service.info", tenant="b")
            stats = _rpc(srv.port, "service.stats", tenant="c")["result"]
            assert stats["rate_limited"] == 1

    def test_queue_full_returns_documented_error(self):
        gate = threading.Event()

        def blocked(runner, params):
            gate.wait(30)
            return {"ok": True}

        with _server(workers=1, queue_limit=1) as srv:
            srv.register_method("test.block", blocked)
            job_id = _rpc(srv.port, "test.block", {})["result"]["job_id"]
            try:
                reply = _rpc(srv.port, "estimate_utility", REQUEST)
                assert reply["error"]["code"] == -32053  # QUEUE_FULL
                assert reply["error"]["data"]["queue_limit"] == 1
                stats = _rpc(srv.port, "service.stats")["result"]
                assert stats["queue_rejections"] == 1
            finally:
                gate.set()
            _result(srv.port, job_id)
            # Capacity is back once the pool drains.
            sub = _rpc(srv.port, "estimate_utility", REQUEST)["result"]
            assert _result(srv.port, sub["job_id"])["artifact"]


class TestShutdown:
    def test_shutdown_drains_inflight_jobs_without_leaks(self):
        threads_before = threading.active_count()
        srv = ServiceServer(runner_factory=_serial, rate=1000.0,
                            burst=1000, queue_limit=8, workers=2)
        srv.bind()
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        job_id = _rpc(srv.port, "estimate_utility",
                      dict(REQUEST, runs=128))["result"]["job_id"]
        job = srv.pool.get(job_id)
        reply = _rpc(srv.port, "service.shutdown", {"drain": True})
        assert reply["result"] == {"stopping": True, "drain": True}

        # The in-flight job finishes even though the listener is gone.
        assert job.done.wait(60)
        assert job.state == "done"
        assert job.result["run_stats"][-1]["executions"] == 128
        thread.join(10)
        assert not thread.is_alive()
        assert leak_failure(threads_before) is None

    def test_reply_is_written_before_the_serve_loop_returns(
        self, monkeypatch
    ):
        # A slow reply write must still land before serve_forever()
        # returns: `repro serve` exits as soon as it does, and daemon
        # handler threads die with the process.
        events = []
        write_reply = server_module._Handler._reply

        def slow_reply(handler, status, body):
            time.sleep(0.3)
            write_reply(handler, status, body)
            events.append("replied")

        monkeypatch.setattr(server_module._Handler, "_reply", slow_reply)
        srv = ServiceServer(runner_factory=_serial, rate=1000.0,
                            burst=1000, queue_limit=8, workers=1)
        srv.bind()

        def serve():
            srv.serve_forever()
            events.append("serve returned")

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        reply = _rpc(srv.port, "service.shutdown", {"drain": True})
        assert reply["result"] == {"stopping": True, "drain": True}
        thread.join(10)
        assert events == ["replied", "serve returned"]

    def test_close_without_drain_cancels_pending(self):
        gate = threading.Event()
        started = threading.Event()

        def blocked(runner, params):
            started.set()
            gate.wait(30)
            return {"ok": True}

        threads_before = threading.active_count()
        pool = JobPool(runner_factory=_serial, queue_limit=8, workers=1)
        running, _ = pool.submit("r", "test.block", {}, blocked)
        # Wait for the single worker to actually dequeue "r"; otherwise
        # close() could cancel it while it is still pending.
        assert started.wait(10)
        pending, _ = pool.submit("p", "test.block", {}, blocked)
        gate.set()
        pool.close(drain=False)
        assert running.state == "done"
        assert pending.state == "cancelled"
        assert leak_failure(threads_before) is None


class TestServeCli:
    def _env(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        for key in list(env):
            if key.startswith("REPRO_"):
                env.pop(key)
        return env

    def test_serve_announces_ephemeral_port_and_shuts_down(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._env(),
            text=True,
        )
        try:
            info = json.loads(proc.stdout.readline())
            assert info["event"] == "listening"
            assert info["host"] == "127.0.0.1"
            port = info["port"]
            assert isinstance(port, int) and port > 0

            # The API reports the same address it announced.
            via_api = _rpc(port, "service.info")["result"]
            assert via_api["port"] == port

            sub = _rpc(port, "estimate_utility", REQUEST)["result"]
            result = _result(port, sub["job_id"])
            assert result["artifact"]["n_runs"] == REQUEST["runs"]

            _rpc(port, "service.shutdown", {"drain": True})
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_shutdown_follows_its_reply_and_serve_waits_for_it(
        self, monkeypatch
    ):
        # Regression: `repro serve` could exit before the handler thread
        # flushed the service.shutdown reply (RemoteDisconnected on the
        # client).  The reply must be written before shutdown starts, by
        # the thread that then runs the shutdown, and `serve` must not
        # return while that thread still holds the shutdown.  A hook
        # holds the handler thread inside JobPool.close until `serve`
        # has started its own shutdown call, so the order is fixed
        # without sleeps or clocks.
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            monkeypatch.delenv(key)
        events = []
        servers = []
        announced = threading.Event()
        serve_stopping = threading.Event()
        write_reply = server_module._Handler._reply
        real_shutdown = ServiceServer.shutdown
        real_close = JobPool.close

        def reply(handler, status, body):
            write_reply(handler, status, body)
            events.append(("replied", threading.current_thread()))

        def shutdown(srv, drain=True):
            if threading.current_thread() is serve_thread:
                events.append("serve stopping")
                serve_stopping.set()
            else:
                events.append(("shutdown", threading.current_thread()))
            real_shutdown(srv, drain=drain)

        def close(pool, drain=True):
            assert serve_stopping.wait(60)
            real_close(pool, drain=drain)
            events.append("pool closed")

        def announce(srv, out=None):
            servers.append(srv)
            announced.set()

        monkeypatch.setattr(server_module._Handler, "_reply", reply)
        monkeypatch.setattr(ServiceServer, "shutdown", shutdown)
        monkeypatch.setattr(ServiceServer, "announce", announce)
        monkeypatch.setattr(JobPool, "close", close)

        def serve():
            main(["serve", "--listen", "127.0.0.1:0"])
            events.append("serve returned")

        serve_thread = threading.Thread(target=serve, daemon=True)
        serve_thread.start()
        assert announced.wait(60)
        reply = _rpc(servers[0].port, "service.shutdown", {"drain": True})
        assert reply["result"] == {"stopping": True, "drain": True}
        serve_thread.join(60)
        assert not serve_thread.is_alive()
        handler = events[0][1]
        assert events == [
            ("replied", handler),
            ("shutdown", handler),
            "serve stopping",
            "pool closed",
            "serve returned",
        ]

    def _serve(self, *global_flags):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *global_flags, "serve",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env(),
            text=True,
            start_new_session=True,
        )
        port = json.loads(proc.stdout.readline())["port"]
        return proc, port

    @staticmethod
    def _stop(proc):
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()

    def test_job_processes_exit_when_the_server_is_killed(self):
        proc, port = self._serve()
        try:
            # One job process has run a job, the other is idle.
            sub = _rpc(port, "estimate_utility", REQUEST)["result"]
            _result(port, sub["job_id"])
            children = _children(proc.pid)
            assert len(children) == 2
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10
            while any(map(_running, children)):
                assert time.monotonic() < deadline, "orphaned job processes"
                time.sleep(0.05)
        finally:
            self._stop(proc)

    def test_sigint_drains_and_exits_cleanly(self):
        proc, port = self._serve()
        try:
            sub = _rpc(port, "estimate_utility",
                       dict(REQUEST, runs=512))["result"]
            assert sub["state"] in ("pending", "running")
            children = _children(proc.pid)
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=60) == 0
            assert "Traceback" not in proc.stderr.read()
            assert not any(map(_running, children))
        finally:
            self._stop(proc)

    def test_pool_runner_inside_a_job_process_matches_serial(self):
        request = dict(REQUEST, runs=128)
        proc, port = self._serve("--jobs", "2")
        try:
            sub = _rpc(port, "estimate_utility", request)["result"]
            result = _result(port, sub["job_id"])
            _rpc(port, "service.shutdown", {"drain": True})
            assert proc.wait(timeout=30) == 0
        finally:
            self._stop(proc)
        assert [s["backend"] for s in result["run_stats"]] == ["process-pool"]
        assert result["run_stats"][0]["jobs"] == 2

        protocol = Opt2SfeProtocol(make_swap(16))
        factory = next(
            f for f in strategy_space_for_protocol(protocol)
            if f.name == request["strategy"]
        )
        serial = estimate_to_dict(estimate_utility(
            protocol, factory, GAMMA,
            n_runs=request["runs"], seed=request["seed"], runner=_serial(),
        ))
        assert result["deterministic_payload"] == serial

    def test_serve_rejects_malformed_listen(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--listen", "nope"],
            capture_output=True,
            env=self._env(),
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "HOST:PORT" in proc.stderr


class TestServiceEnvKnobs:
    """The service knobs beside the table test in ``tests/test_config.py``
    (which covers env values, precedence, blanks and garbage)."""

    def test_defaults(self, monkeypatch):
        for var in ("REPRO_SERVICE_RATE", "REPRO_SERVICE_BURST",
                    "REPRO_SERVICE_QUEUE"):
            monkeypatch.delenv(var, raising=False)
        bucket = TokenBucket()
        assert (bucket.rate, bucket.burst) == (20.0, 40)
        assert knob("REPRO_SERVICE_QUEUE") == 16

    def test_explicit_garbage_raises(self):
        with pytest.raises(ValueError, match="^rate must be"):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError, match="^burst must be"):
            TokenBucket(burst=0)
        with pytest.raises(ValueError, match="^queue_limit must be"):
            JobPool(queue_limit=-1)

    def test_server_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_QUEUE", "many")
        with pytest.raises(ValueError, match="REPRO_SERVICE_QUEUE"):
            ServiceServer(runner_factory=_serial)


class TestTokenBucket:
    def test_refill_restores_admission(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=1, clock=lambda: now[0])
        ok, _ = bucket.allow("t")
        assert ok
        ok, retry = bucket.allow("t")
        assert not ok and retry == pytest.approx(0.5)
        now[0] = 0.6  # 1.2 tokens refilled, capped at burst
        ok, _ = bucket.allow("t")
        assert ok

    def test_burst_capped(self):
        now = [0.0]
        bucket = TokenBucket(rate=1000.0, burst=3, clock=lambda: now[0])
        now[0] = 100.0  # a long idle never exceeds burst tokens
        admitted = sum(bucket.allow("t")[0] for _ in range(10))
        assert admitted == 3
