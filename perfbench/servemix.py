"""The ``serve-mix`` job catalogue, its seeded job streams, and the client.

Every job a stream can emit comes from a fixed catalogue whose
serial-reference digests are pinned in ``pins.json``, so any workload
seed can be checked.  A stream is a fixed sequence of job *slots* — the
kinds, protocols, strategies and run counts are the same for every seed,
so that two seeds cost the same to serve — and the seed picks which of
``N_VARIANTS`` Monte-Carlo seeds every job of the run uses.

Job kinds, drawn per step with the probabilities in ``MIX``:

``fresh``      ``estimate_utility`` on a slot not used before in this run:
               computed and written to the chunk cache;
``extend``     an earlier fresh job's task and seed with twice the runs:
               its first half is served by chunk-cache hits;
``repeat``     an exact resubmission of an earlier job: a dedupe hit;
``sweep``      a small ``sweep_strategies`` job;
``verify``     a small ``verify_claims`` job.

Each client thread has its own stream (its own share of the slots) and
only extends or repeats jobs it has already seen complete, so the mix
does not depend on how the two clients interleave.  A run serves a
fixed number of jobs from the start of each stream, so every version of
the program serves the same jobs.  The catalogue holds more than twice
the jobs a 40-second run serves; a stream that runs out ends early.

The mix is synthetic: the repository has no record of service traffic,
so the shares, run counts and catalogue are chosen, not measured.  What
each share is for is given beside ``MIX``; a run prints the chunk-cache
hit share and dedupe share it produced, so a reader can see how much of
the load exercises each store path.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time

from payload import digest

N_VARIANTS = 4
SLOTS = {"fresh": 512, "sweep": 192, "verify": 64}

#: Strategy names every 2-party protocol below accepts.
_STRATEGIES = (
    "passive[0]", "passive[1]", "lock-watch[0]", "lock-watch[1]",
    "abort@r0[0]", "abort@r1[0]", "abort@r2[0]", "abort@r1[1]",
)
_FRESH_PROTOCOLS = (
    "pi1", "pi2", "pi2-ideal-coin", "opt-2sfe", "single-round", "dummy",
    "gradual-release",
)
#: Run counts whose doubled extension keeps the 16-run chunk plan, so an
#: extension's first half lines up with the cached spans of its original;
#: small enough that a typical job takes about a tenth of a second.
_FRESH_RUNS = (96, 128, 160)
_SWEEP_PROTOCOLS = ("pi1", "pi2", "opt-2sfe", "single-round", "dummy")
_SWEEP_RUNS = (16, 24)
_VERIFY_CLAIMS = ("E3", "E1-naive", "E7-odd", "E18")

#: Chosen shares, not measured ones:
#: ``fresh`` is the largest, so that most of the load is estimator work
#: through the engine and writes chunks for later jobs to read;
#: ``extend`` gives enough prefix extensions that about one chunk lookup
#: in seven of the executed jobs is a cache hit (the worker-side read
#: path); ``repeat`` gives enough exact resubmissions that dedupe is
#: exercised on every run (about one job in six) without dominating it;
#: ``sweep`` covers the second estimator method on a small budget;
#: ``verify`` keeps the ``verify_claims`` method in the mix at a share
#: small enough that its slower jobs do not set the job latencies alone.
MIX = (("fresh", 0.45), ("extend", 0.20), ("repeat", 0.15),
       ("sweep", 0.15), ("verify", 0.05))

#: ``job.result`` long-poll limit; a job still unfinished then has failed.
RESULT_WAIT_S = 120


def fresh_spec(slot: int, variant: int, extended: bool = False) -> dict:
    rng = random.Random(f"perfbench-fresh-{slot}")
    runs = rng.choice(_FRESH_RUNS)
    return {
        "protocol": rng.choice(_FRESH_PROTOCOLS),
        "strategy": rng.choice(_STRATEGIES),
        "runs": 2 * runs if extended else runs,
        "seed": f"pb-fresh-{slot}-{variant}",
    }


def sweep_spec(slot: int, variant: int) -> dict:
    rng = random.Random(f"perfbench-sweep-{slot}")
    return {
        "protocol": rng.choice(_SWEEP_PROTOCOLS),
        "runs": rng.choice(_SWEEP_RUNS),
        "seed": f"pb-sweep-{slot}-{variant}",
    }


def verify_spec(slot: int, variant: int) -> dict:
    rng = random.Random(f"perfbench-verify-{slot}")
    return {
        "claims": rng.choice(_VERIFY_CLAIMS),
        "budget": "small",
        "seed": f"pb-verify-{slot}-{variant}",
    }


SPECS = {"fresh": ("estimate_utility", fresh_spec),
         "sweep": ("sweep_strategies", sweep_spec),
         "verify": ("verify_claims", verify_spec)}


def job_stream(seed: int, client: int, n_clients: int = 2):
    """Yield ``(kind, method, params, pin_ref)`` for one client.

    ``pin_ref`` indexes ``pins["serve"]``: ``(table, slot, variant)``,
    plus ``0|1`` (original or extension) for ``fresh``.  The stream ends
    when the client's share of a catalogue table is used up.
    """
    variant = seed % N_VARIANTS
    rng = random.Random(f"serve-mix:{client}")
    next_slot = dict.fromkeys(SLOTS, client)
    seen = []
    unextended = []
    while True:
        kind = _draw(rng)
        if not seen or (kind == "extend" and not unextended):
            kind = "fresh"
        if kind == "extend":
            slot = unextended.pop(rng.randrange(len(unextended)))
            job = ("estimate_utility", fresh_spec(slot, variant, True),
                   ("fresh", slot, variant, 1))
        elif kind == "repeat":
            job = rng.choice(seen)
        else:
            slot = next_slot[kind]
            if slot >= SLOTS[kind]:
                return
            next_slot[kind] += n_clients
            method, spec = SPECS[kind]
            ref = (kind, slot, variant)
            if kind == "fresh":
                unextended.append(slot)
                ref += (0,)
            job = (method, spec(slot, variant), ref)
        seen.append(job)
        yield (kind,) + job


def _draw(rng: random.Random) -> str:
    r = rng.random()
    for kind, p in MIX:
        if r < p:
            return kind
        r -= p
    return MIX[-1][0]


def pinned_digest(pins: dict, ref) -> str:
    entry = pins["serve"][ref[0]][ref[1]][ref[2]]
    return entry[ref[3]] if len(ref) == 4 else entry


class Connection:
    """One keep-alive JSON-RPC connection speaking for one tenant."""

    def __init__(self, port: int, tenant: str):
        self.port = port
        self.tenant = tenant
        self._conn = None
        self._id = 0

    def call(self, method: str, params=None, timeout: float = 150.0) -> dict:
        """Send one request; return the decoded response body."""
        self._id += 1
        body = {"jsonrpc": "2.0", "id": self._id, "method": method,
                "params": params or {}}
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=timeout
            )
        try:
            self._conn.request(
                "POST", "/", body=json.dumps(body).encode(),
                headers={"Content-Type": "application/json",
                         "X-Repro-Tenant": self.tenant},
            )
            response = self._conn.getresponse()
            return json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.close()
            return {"error": {"code": None, "message": repr(exc)}}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_job(conn: Connection, method: str, params: dict) -> dict:
    """Submit one job and long-poll its result; return a job record."""
    submitted = conn.call(method, params)
    if "error" in submitted:
        return {"ok": False, "error": submitted["error"]}
    job = submitted["result"]
    result = conn.call(
        "job.result", {"job_id": job["job_id"], "timeout_s": RESULT_WAIT_S}
    )
    if "error" in result:
        return {"ok": False, "error": result["error"]}
    body = result["result"]
    return {
        "ok": True,
        "deduped": bool(job.get("deduped")),
        "digest": digest(body["deterministic_payload"]),
        "executions": sum(
            stats.get("executions", 0) for stats in body.get("run_stats", ())
        ),
        "run_stats": body.get("run_stats", []),
    }


def run_load(port: int, seed, pins: dict, jobs_per_client: int,
             n_clients: int = 2):
    """Closed loop: ``n_clients`` threads, each submitting the first
    ``jobs_per_client`` jobs of its stream, the next one only when the
    previous one has completed.

    Returns ``(records, first_submit, last_result)`` in ``perf_counter``
    time; each record carries its kind and whether its digest matched the
    pin.
    """
    records = []
    lock = threading.Lock()
    t_start = time.perf_counter()

    def client(c: int) -> None:
        conn = Connection(port, f"perfbench-{c}")
        stream = itertools.islice(job_stream(seed, c, n_clients),
                                  jobs_per_client)
        try:
            for kind, method, params, ref in stream:
                t_submit = time.perf_counter()
                record = run_job(conn, method, params)
                t_done = time.perf_counter()
                record.update(kind=kind, t_submit=t_submit, t_done=t_done,
                              latency_s=t_done - t_submit)
                if record["ok"]:
                    record["ok"] = record["digest"] == pinned_digest(pins, ref)
                    if not record["ok"]:
                        record["error"] = "payload digest mismatch"
                with lock:
                    records.append(record)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if not records:
        return records, t_start, t_start
    first = min(r["t_submit"] for r in records)
    last = max(r["t_done"] for r in records)
    return records, first, last
