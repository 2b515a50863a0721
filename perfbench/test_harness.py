"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 perfbench/test_harness.py        # or: python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run as harness  # noqa: E402
import servemix  # noqa: E402
import tracer  # noqa: E402
from payload import claim_digests, digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(seed=1, workload="verify-serial") -> harness.Run:
    return harness.Run(argparse.Namespace(
        workload=workload, seed=seed, seconds=1.0, trace=0))


def _fake_rep(seed: int) -> dict:
    return {"wall_s": 2.0 + seed, "runs": 100, "jobs": 10,
            "latencies_s": [0.1 * (i + seed) for i in range(20)],
            "peak_rss_mb": 80.0}


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        names = [n for n, _ in harness.END_TO_END] + layers.metric_names()
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [n for n, _ in harness.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         layers.metric_names())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["verify-serial", "store-replay", "serve-mix"])


class TracerRestores(unittest.TestCase):
    def test_install_wraps_and_uninstall_restores(self):
        t = tracer.Tracer()
        t.install()
        try:
            patched = list(t._patches)
            self.assertGreater(len(patched), len(tracer.TARGETS))
            self.assertEqual(t.absent, {})
            for owner, attr, original in patched:
                self.assertIsNot(vars(owner)[attr], original)
            from repro.runtime import tasks
            from repro.core import events
            # A by-name import site is wrapped too.
            self.assertIs(tasks.classify, events.classify)
            self.assertTrue(hasattr(tasks.classify, "__wrapped__"))
        finally:
            t.uninstall()
        for owner, attr, original in patched:
            self.assertIs(vars(owner)[attr], original)
        self.assertFalse(hasattr(tasks.classify, "__wrapped__"))

    def test_traced_calls_are_counted_with_self_time(self):
        from repro.crypto.prf import Rng

        with tracer.Tracer() as t:
            Rng("seed").fork("a").randbytes(64)
        report = t.report()
        self.assertEqual(report["layers"]["crypto.rng_fork"]["calls"], 1)
        self.assertGreaterEqual(report["layers"]["crypto.prg_read"]["calls"], 1)

    def test_missing_target_is_reported_absent(self):
        targets = (("journal.record", "repro.runtime.journal",
                    "NoSuchJournal.record"),
                   ("gone.fn", "repro.no_such_module", "fn"))
        with tracer.Tracer(targets=targets, preload=()) as t:
            pass
        self.assertEqual(sorted(t.absent), ["gone.fn", "journal.record"])
        trace = t.report()
        trace.update(import_s=0.0, memo={"sources": ["x"]})
        rep = {"traces": [trace], "run_stats": [], "wall_s": 1.0}
        metrics = layers.per_layer(rep, rep)
        self.assertIsNone(metrics["journal.record_calls"]["value"])
        self.assertIn("NoSuchJournal", metrics["journal.record_calls"]["absent"])


class ErrorAccounting(unittest.TestCase):
    def test_payload_mismatch_is_a_failed_operation(self):
        report = {"checks": [
            {"claim": {"claim_id": "E1"}, "measurement": {"value": 0.5},
             "timing": {"wall_clock_s": 1.0}},
            {"claim": {"claim_id": "E2"}, "measurement": {"value": 0.25}},
        ]}
        pins = claim_digests(report)
        run = _run()
        run.attempted += 2
        harness.score_claims(run, "verify-serial", pins, report)
        self.assertEqual(run.failed, 0)
        pins["E2"] = "0" * 16
        harness.score_claims(run, "verify-serial", pins, report)
        self.assertEqual(run.failed, 1)
        metrics = harness.end_to_end(run, [_fake_rep(1)], [1.0])
        self.assertAlmostEqual(metrics["ok_ratio"]["value"], 0.5)

    def test_read_pass_that_recomputes_is_a_failed_operation(self):
        run = _run(workload="store-replay")
        full = [{"n_chunks": 4, "journal_replayed_chunks": 4},
                {"n_chunks": 2, "journal_replayed_chunks": 2}]
        harness.score_replay(run, full)
        self.assertEqual(run.failed, 0)
        partial = [{"n_chunks": 4, "journal_replayed_chunks": 4},
                   {"n_chunks": 2, "journal_replayed_chunks": 1}]
        harness.score_replay(run, partial)
        self.assertEqual(run.failed, 1)
        self.assertIn("replayed 5 of 6", run.errors[0])

    def test_refused_rpc_is_a_failed_operation(self):
        """A refused submission and a mismatched payload both count."""
        calls = []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                request = json.loads(self.rfile.read(
                    int(self.headers["Content-Length"])))
                calls.append(request["method"])
                if request["method"] == "job.result":
                    body = {"result": {"deterministic_payload": {"x": 1},
                                       "run_stats": []}}
                elif len(calls) == 1:
                    body = {"error": {"code": -32005, "message": "rate limited"}}
                else:
                    body = {"result": {"job_id": "j", "deduped": False}}
                data = json.dumps(dict(body, jsonrpc="2.0",
                                       id=request["id"])).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            run = _run(workload="serve-mix")
            records, _, _ = servemix.run_load(
                server.server_address[1], 1, run.pins, jobs_per_client=2,
                n_clients=1)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(10)
        self.assertFalse(thread.is_alive())
        done = harness.score_jobs(run, records)
        self.assertEqual((run.attempted, run.failed, len(done)), (2, 2, 0))
        self.assertIn("rate limited", json.dumps(records[0]["error"]))
        self.assertEqual(records[1]["error"], "payload digest mismatch")


class Seeds(unittest.TestCase):
    def test_seed_changes_inputs_not_metric_names(self):
        first = [next(servemix.job_stream(seed, 0)) for seed in (1, 2)]
        self.assertNotEqual(first[0], first[1])
        chosen = {harness.verify_seed(_run(s), "verify-serial", 0)
                  for s in (1, 2)}
        self.assertEqual(len(chosen), 2)
        names = [set(harness.end_to_end(_run(seed), [_fake_rep(seed)], [1.0]))
                 for seed in (1, 2)]
        self.assertEqual(names[0], names[1])

    def test_stream_is_deterministic_and_pinned(self):
        run = _run(workload="serve-mix")
        for seed in (1, 2):
            jobs = [j for j, _ in zip(servemix.job_stream(seed, 1), range(50))]
            again = [j for j, _ in zip(servemix.job_stream(seed, 1), range(50))]
            self.assertEqual(jobs, again)
            for kind, method, params, ref in jobs:
                self.assertRegex(servemix.pinned_digest(run.pins, ref),
                                 "^[0-9a-f]{16}$")

    def test_streams_cover_the_fixed_job_count(self):
        load_s = 60 - harness.SERVE_OVERHEAD_S
        per_client = round(harness.SERVE_JOBS_PER_S * load_s / 2)
        for client in (0, 1):
            jobs = list(servemix.job_stream(1, client))
            self.assertGreaterEqual(len(jobs), per_client)

    def test_digest_ignores_tuple_and_list_spelling(self):
        self.assertEqual(digest({"a": (1, 2)}), digest({"a": [1, 2]}))


if __name__ == "__main__":
    unittest.main()
