"""The JSON-RPC-over-HTTP front end (``repro serve``).

A stdlib :class:`~http.server.ThreadingHTTPServer` accepts one JSON-RPC
2.0 request per ``POST``; the handler thread runs admission control
(per-tenant token bucket, then the bounded job pool) and returns
immediately with a job id — Monte-Carlo work happens in the pool's
job processes, never on a connection thread, so slow experiments
cannot starve the accept loop.

Tenancy is the ``X-Repro-Tenant`` header when present, else the
client's address — good enough to keep one hot client from starving
the rest without inventing an auth system.

Binding: ``port 0`` asks the OS for an ephemeral port,
:meth:`ServiceServer.bind` returns the port actually bound, and
:meth:`ServiceServer.announce` prints a single JSON line
(``{"event": "listening", ...}``) so scripts and CI can scrape the
address without racing to pre-pick a free port.  ``service.info``
reports the same address over the API.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional

from ..crypto.prf import encode_seed
from . import canonical, methods, wire
from .jobs import JobPool, PoolClosed, QueueFull
from .ratelimit import TokenBucket

#: Longest ``job.result`` long-poll the server will honour, seconds.
MAX_RESULT_WAIT_S = 300.0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A reply leaves as two writes, headers then body.  With Nagle's
    # algorithm on, the body waits for the client to acknowledge the
    # headers, which a keep-alive client delays by ~40 ms: every RPC
    # after a connection's first would pay that stall.
    disable_nagle_algorithm = True
    # Quiet by default: per-request access logging belongs to the host's
    # reverse proxy, not a research service's stdout (which carries the
    # announce line).
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self):
        try:
            self._post()
        finally:
            # A service.shutdown request stops the server only now, with
            # its reply already on the wire.
            if self.server.service.stop_after_reply():
                self.close_connection = True

    def _post(self):
        service = self.server.service
        length = self.headers.get("Content-Length")
        if length is None:
            self._reply(
                411, wire.error_body(None, wire.INVALID_REQUEST,
                                     data="Content-Length required")
            )
            return
        try:
            raw = self.rfile.read(int(length))
        except (ValueError, OSError):
            self._reply(400, wire.error_body(None, wire.PARSE_ERROR))
            return
        tenant = self.headers.get("X-Repro-Tenant") or self.client_address[0]
        body = service.handle_rpc(raw, tenant)
        if body is None:  # notification: acknowledged, no body
            self.send_response(204)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self._reply(200, body)

    def do_GET(self):
        # The API is POST-only; a GET gets a pointer, not a 404 mystery.
        self._reply(
            405,
            wire.error_body(None, wire.INVALID_REQUEST,
                            data="POST JSON-RPC 2.0 requests to this endpoint"),
        )

    def _reply(self, status: int, body: dict) -> None:
        encoded = wire.dumps(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)
        self.wfile.flush()


class _Httpd(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: "ServiceServer"


class ServiceServer:
    """One fairness service: transport + limiter + job pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        runner_factory: Optional[Callable[[], object]] = None,
        rate: Optional[float] = None,
        burst: Optional[int] = None,
        queue_limit: Optional[int] = None,
        workers: int = 2,
        clock=None,
    ):
        self.host = host
        self.port = port
        self.limiter = (
            TokenBucket(rate, burst, clock=clock)
            if clock is not None
            else TokenBucket(rate, burst)
        )
        self.pool = JobPool(
            runner_factory, queue_limit=queue_limit, workers=workers
        )
        self._httpd: Optional[_Httpd] = None
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        #: Per handler thread: ``stop_drain`` of a service.shutdown whose
        #: reply is not yet written (see stop_after_reply).
        self._requests = threading.local()
        self._serving = threading.Event()
        #: Extension point: extra methods callable over the wire, each a
        #: ``fn(runner, params) -> artifact dict`` admitted through the
        #: job pool like the built-ins but run on its worker thread, not
        #: in a job process (the e2e suite registers a gated method here
        #: to exercise queue-full deterministically).
        self._extra: Dict[str, Callable] = {}

    # -- lifecycle -----------------------------------------------------------

    def bind(self) -> int:
        """Bind the listening socket; return the actual port (port 0 →
        whatever the OS granted)."""
        self._httpd = _Httpd((self.host, self.port), _Handler)
        self._httpd.service = self
        self.port = self._httpd.server_address[1]
        return self.port

    def announce(self, out=None) -> None:
        """One machine-readable line on stdout: where we listen."""
        payload = {
            "event": "listening",
            "service": "repro-fairness",
            "version": canonical.SERVICE_VERSION,
            "host": self.host,
            "port": self.port,
        }
        out = out if out is not None else sys.stdout
        out.write(json.dumps(payload, sort_keys=True) + "\n")
        out.flush()

    def serve_forever(self) -> None:
        if self._httpd is None:
            self.bind()
        self._serving.set()
        try:
            self._httpd.serve_forever(poll_interval=0.05)
        finally:
            self._serving.clear()

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, close the pool (draining by default), close
        the socket.  Idempotent and safe from any thread but the serve
        loop's; a second caller returns once the first has finished."""
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
            # socketserver's shutdown() blocks on an event only the serve
            # loop sets; calling it on a bound-but-never-served instance
            # would hang forever, so skip straight to closing the socket.
            if self._httpd is not None and self._serving.is_set():
                self._httpd.shutdown()
            self.pool.close(drain=drain)
            if self._httpd is not None:
                self._httpd.server_close()

    def stop_after_reply(self) -> bool:
        """Run the ``service.shutdown`` the calling handler thread's
        request asked for, if any; return whether it did.  Handlers call
        this once their reply is written."""
        drain = getattr(self._requests, "stop_drain", None)
        if drain is None:
            return False
        self._requests.stop_drain = None
        self.shutdown(drain=drain)
        return True

    def register_method(self, name: str, fn: Callable) -> None:
        if name in canonical.METHOD_SCHEMAS or name.startswith(("job.", "service.")):
            raise ValueError(f"cannot shadow built-in method {name!r}")
        self._extra[name] = fn

    # -- dispatch ------------------------------------------------------------

    def handle_rpc(self, raw: bytes, tenant: str) -> Optional[dict]:
        """Process one request body; return the response body (or
        ``None`` for notifications, which are acknowledged unanswered)."""
        try:
            request = wire.parse_request(raw)
        except wire.RpcError as exc:
            return exc.body(None)
        request_id = request.get("id")
        notification = "id" not in request
        try:
            result = self._dispatch(
                request["method"], request.get("params", {}), tenant
            )
        except wire.RpcError as exc:
            return None if notification else exc.body(request_id)
        except canonical.ServiceParamError as exc:
            if notification:
                return None
            return wire.error_body(
                request_id, wire.INVALID_PARAMS, data=str(exc)
            )
        except Exception as exc:  # never leak a traceback as a 500
            if notification:
                return None
            return wire.error_body(
                request_id, wire.INTERNAL_ERROR,
                data=f"{type(exc).__name__}: {exc}",
            )
        return None if notification else wire.result_body(request_id, result)

    def _dispatch(self, method: str, params, tenant: str):
        if not isinstance(params, dict):
            raise wire.RpcError(
                wire.INVALID_PARAMS,
                data="params must be an object (by-name), not an array",
            )
        allowed, retry_after = self.limiter.allow(tenant)
        if not allowed:
            self.pool.note_rate_limited()
            raise wire.RpcError(
                wire.RATE_LIMITED,
                data={
                    "retry_after_s": retry_after,
                    "tenant": tenant,
                    "rate": self.limiter.rate,
                    "burst": self.limiter.burst,
                },
            )
        if method in canonical.METHOD_SCHEMAS:
            return self._submit_builtin(method, params)
        if method in self._extra:
            return self._submit_extra(method, params)
        if method.startswith("job."):
            return self._job_call(method, params)
        if method == "service.info":
            return self._info()
        if method == "service.stats":
            return self.pool.stats()
        if method == "service.shutdown":
            return self._shutdown_call(params)
        raise wire.RpcError(wire.METHOD_NOT_FOUND, data=method)

    # -- submissions ---------------------------------------------------------

    def _submit_builtin(self, method: str, params: dict):
        canon = canonical.canonicalize(method, params)
        methods.validate(method, canon)
        key = canonical.job_key_canonical(method, canon)
        return self._admit(key, method, canon, None)

    def _submit_extra(self, method: str, params: dict):
        key = encode_seed(
            (
                "service-job",
                canonical.SERVICE_VERSION,
                method,
                json.dumps(params, sort_keys=True),
            )
        ).hex()
        return self._admit(key, method, params, self._extra[method])

    def _admit(self, key, method, canon, fn):
        try:
            job, deduped = self.pool.submit(key, method, canon, fn)
        except QueueFull as exc:
            raise wire.RpcError(
                wire.QUEUE_FULL, data={"queue_limit": exc.limit}
            )
        except PoolClosed:
            raise wire.RpcError(wire.SHUTTING_DOWN)
        return {"job_id": job.key, "state": job.state, "deduped": deduped}

    # -- job surface ---------------------------------------------------------

    def _job(self, params: dict):
        job_id = params.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise canonical.ServiceParamError(
                "'job_id' must be a non-empty string"
            )
        job = self.pool.get(job_id)
        if job is None:
            raise wire.RpcError(wire.JOB_NOT_FOUND, data=job_id)
        return job

    def _job_call(self, method: str, params: dict):
        if method == "job.status":
            return self._job(params).status()
        if method == "job.result":
            return self._result(params)
        if method == "job.stream":
            return self._stream(params)
        if method == "job.cancel":
            return self._cancel(params)
        raise wire.RpcError(wire.METHOD_NOT_FOUND, data=method)

    def _result(self, params: dict):
        job = self._job(params)
        timeout = params.get("timeout_s", 0)
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise canonical.ServiceParamError("'timeout_s' must be a number")
        timeout = max(0.0, min(float(timeout), MAX_RESULT_WAIT_S))
        if timeout:
            job.done.wait(timeout)
        if job.state == "failed":
            raise wire.RpcError(wire.JOB_FAILED, data=job.error)
        if job.state == "cancelled":
            raise wire.RpcError(wire.JOB_CANCELLED, data=job.key)
        if job.state != "done":
            raise wire.RpcError(
                wire.JOB_NOT_DONE,
                data={"job_id": job.key, "state": job.state},
            )
        body = dict(job.result)
        body["service"] = self.pool.stats()
        return body

    def _stream(self, params: dict):
        job = self._job(params)
        since = params.get("since", 0)
        if isinstance(since, bool) or not isinstance(since, int) or since < 0:
            raise canonical.ServiceParamError(
                "'since' must be a non-negative integer"
            )
        events, cursor = job.events_since(since)
        return {
            "job_id": job.key,
            "state": job.state,
            "since": since,
            "cursor": cursor,
            "events": events,
            "done": job.done.is_set(),
        }

    def _cancel(self, params: dict):
        job, cancelled = self.pool.cancel(params_job_id(params))
        if job is None:
            raise wire.RpcError(
                wire.JOB_NOT_FOUND, data=params.get("job_id")
            )
        return {
            "job_id": job.key,
            "state": job.state if not cancelled else "cancelling",
            "cancelled": cancelled,
        }

    # -- service surface -----------------------------------------------------

    def _info(self) -> dict:
        return {
            "service": "repro-fairness",
            "version": canonical.SERVICE_VERSION,
            "host": self.host,
            "port": self.port,
            "methods": sorted(
                list(canonical.METHOD_SCHEMAS)
                + list(self._extra)
                + [
                    "job.status", "job.result", "job.stream", "job.cancel",
                    "service.info", "service.stats", "service.shutdown",
                ]
            ),
            "rate": self.limiter.rate,
            "burst": self.limiter.burst,
            "queue_limit": self.pool.queue_limit,
        }

    def _shutdown_call(self, params: dict):
        drain = params.get("drain", True)
        if not isinstance(drain, bool):
            raise canonical.ServiceParamError("'drain' must be a boolean")
        # Deferred to stop_after_reply(): stopping now would let the
        # process exit before this reply is written.
        self._requests.stop_drain = drain
        return {"stopping": True, "drain": drain}


def params_job_id(params: dict) -> str:
    job_id = params.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise canonical.ServiceParamError(
            "'job_id' must be a non-empty string"
        )
    return job_id
