"""The repository benchmark: one command, three workloads, two views.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-serial --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics of untraced runs of the
program; ``--trace 1`` makes one untraced and one traced pass of the
workload and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import servemix  # noqa: E402
import layers  # noqa: E402
from payload import claim_digests, load_pins  # noqa: E402
from workloads import VERIFY_CONFIGS, VERIFY_SEED_COUNT  # noqa: E402

#: Whole-run budget: every process under test is killed by then.
RUN_DEADLINE_S = 170.0
#: Server start-ups per ``serve-mix`` run that only measure set-up.
SERVE_SETUP_PROBES = 2
#: Seconds of a ``serve-mix`` run spent outside its load phase: three
#: server start-ups, the last jobs' drain and the shutdown.
SERVE_OVERHEAD_S = 13.0
#: Jobs the seed program served per second of ``serve-mix`` load on a
#: 2-vCPU host.  With ``SERVE_OVERHEAD_S`` it sizes the fixed job count
#: of a run from ``--seconds`` alone, so every version of the program
#: serves the same jobs.
SERVE_JOBS_PER_S = 15.0
#: Jobs per pass in a traced ``serve-mix`` run (untraced and traced).
TRACE_SERVE_JOBS = 120
#: Seconds one repetition of a claim workload took with the seed
#: program on a 2-vCPU host; sizes the fixed repetition count of a run.
REP_SECONDS = {"verify-serial": 8.0, "store-replay": 13.0}
#: Server knobs that keep the benchmark's own load from being refused.
SERVE_ENV = {"REPRO_SERVICE_RATE": "100000", "REPRO_SERVICE_BURST": "100000",
             "REPRO_SERVICE_QUEUE": "64"}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "1/s"),
    ("job_p50_ms", "ms"), ("job_p90_ms", "ms"), ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
)


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.t0 = time.perf_counter()
        self.dir = WORK / f"run-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.pins = load_pins()
        self._n = 0

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.dir / f"{self._n:03d}-{stem}"

    def remaining(self) -> float:
        return max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.t0))

    def env(self, extra=None) -> dict:
        return procs.child_env(ROOT, WORK / "pycache", self.dir, extra)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.errors.append(why)

    def repeat(self, once, rep_seconds: float):
        """Call ``once(rep)`` for rep = 0, 1, ..., as many times as fit in
        the run's seconds at ``rep_seconds`` each, so that every version
        of the program repeats the same work; stop early only when another
        call would overrun the run deadline.  Return the results."""
        results = []
        count = max(1, round(self.seconds / rep_seconds))
        start = time.perf_counter()
        while len(results) < count:
            results.append(once(len(results)))
            per_rep = (time.perf_counter() - start) / len(results)
            if per_rep > self.remaining() - 10:
                break
        return results


# -- the program's command line ----------------------------------------------


def store_flags(run: Run) -> set:
    """Store-related flags ``repro`` accepts (``--journal``, ``--resume``,
    ``--cache`` today; a single ``--store`` later), read from its help and
    cached per version of ``cli.py``."""
    cli = ROOT / "src" / "repro" / "cli.py"
    cached = None
    if cli.is_file():
        stamp = hashlib.sha256(cli.read_bytes()).hexdigest()[:16]
        cached = WORK / f"flags-{stamp}.json"
        if cached.exists():
            return set(json.loads(cached.read_text()))
    text = ""
    for argv in (["--help"], ["verify", "--help"]):
        out = run.path("help.txt")
        procs.run([sys.executable, "-m", "repro"] + argv, run.env(), ROOT,
                  run.remaining(), stdout_path=out)
        text += out.read_text()
    flags = {f for f in ("--store", "--journal", "--resume", "--cache")
             if re.search(rf"{f}(?![\w-])", text)}
    if cached is not None:
        cached.write_text(json.dumps(sorted(flags)))
    return flags


def store_args(flags: set, kind: str, directory: Path, resume=False) -> list:
    """Global ``repro`` arguments that point the ``kind`` store (journal or
    cache) at ``directory``."""
    if "--store" in flags:
        args = ["--store", str(directory)]
    else:
        args = [f"--{kind}", str(directory)]
    if resume and "--resume" in flags:
        args.append("--resume")
    return args


def verify_seed(run: Run, name: str, rep: int) -> str:
    """The pinned ``repro verify`` seed of repetition ``rep``."""
    return sorted(run.pins["verify"][name])[(run.seed + rep) % VERIFY_SEED_COUNT]


def verify_pass(run: Run, name: str, global_args: list, rep: int,
                traced=False, cpu=None) -> dict:
    """One fresh ``repro verify`` process of workload config ``name``.

    Repetition ``rep`` of the run verifies with the ``(seed + rep)``-th
    pinned verify seed, so that a run's medians span several inputs and
    no single seed's cost sets them.

    Returns the pass record: set-up time, claim-run wall, peak RSS,
    per-claim times, run stats; counts the pass and each
    claim as operations and every failure or digest mismatch as failed.

    Set-up is spawn until the first claim starts, taken as the time from
    spawn to the artefact's last write minus the claim run; what remains
    in it after the claims is rendering and serialising the report.
    """
    config = VERIFY_CONFIGS[name]
    seed = verify_seed(run, name, rep)
    expected = run.pins["verify"][name][seed]
    out = run.path("verify.json")
    argv = ["--seed", seed] + global_args + [
        "verify", "--claims", config["claims"], "--budget", config["budget"],
        "--json", str(out)]
    trace_out = None
    if traced:
        trace_out = run.path("trace.json")
        cmd = [sys.executable, HERE / "launch.py", trace_out, "--"] + argv
    else:
        cmd = [sys.executable, "-m", "repro"] + argv
    err = run.path("stderr.txt")
    child = procs.run(cmd, run.env({"PERFBENCH_TRACE_ID": f"{name}:{run.seed}"}),
                      ROOT, run.remaining(), stderr_path=err, cpu=cpu)
    run.attempted += 1 + len(expected)
    record = {"child": child, "ok": False}
    try:
        report = json.loads(out.read_text())
    except (OSError, ValueError):
        report = None
    tail = err.read_text(errors="replace")[-400:] if err.exists() else ""
    if report is None:
        run.fail(1 + len(expected), f"{name} pass exit {child.code}: {tail}")
        return record
    if child.code != 0:  # e.g. 1: a claim was violated; still scored below
        run.fail(1, f"{name} pass exit {child.code}: {tail}")
    score_claims(run, name, expected, report)
    checks = report["checks"]
    claim_wall = report.get("timing", {}).get("wall_clock_s", child.wall_s)
    written_s = out.stat().st_mtime - child.t_spawn_epoch
    record.update(
        ok=True,
        claim_wall_s=claim_wall,
        setup_s=written_s - claim_wall,
        claims={c["claim"]["claim_id"]:
                c.get("timing", {}).get("wall_clock_s", 0.0) for c in checks},
        run_stats=[s for c in checks
                   for s in c.get("timing", {}).get("run_stats", ())],
        trace=json.loads(trace_out.read_text()) if traced else None,
    )
    record["runs"] = sum(s.get("executions", 0) for s in record["run_stats"])
    return record


def score_claims(run: Run, name: str, expected: dict, report: dict) -> None:
    """Count every claim whose digest differs from its pin as failed."""
    digests = claim_digests(report)
    bad = sorted(c for c in expected if digests.get(c) != expected[c])
    if bad:
        run.fail(len(bad), f"{name} digest mismatch: {', '.join(bad)}")


def score_replay(run: Run, run_stats: list) -> None:
    """Count a read pass as failed unless it replayed every span: right
    payloads from recomputed spans would time the wrong work."""
    replayed = sum(s.get("journal_replayed_chunks", 0) for s in run_stats)
    spans = sum(s.get("n_chunks", 0) for s in run_stats)
    if replayed != spans:
        run.fail(1, f"store-replay read pass replayed {replayed} of "
                 f"{spans} spans")


def score_jobs(run: Run, records: list) -> list:
    """Count every job as attempted and every refused, failed or
    mismatched one as failed; return the jobs that succeeded."""
    run.attempted += len(records)
    failures = [r for r in records if not r["ok"]]
    if failures:
        run.fail(len(failures), f"serve-mix: {len(failures)} jobs failed, "
                 f"first: {failures[0].get('error')}")
    return [r for r in records if r["ok"]]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- workloads -----------------------------------------------------------------


def verify_serial_rep(run: Run, rep: int, traced=False) -> dict:
    # Each vCPU of a shared host has slow spells of its own: alternating
    # the CPU per repetition keeps one CPU's spell from setting the run.
    cpus = sorted(os.sched_getaffinity(0))
    rec = verify_pass(run, "verify-serial", [], rep, traced,
                      cpu=cpus[rep % len(cpus)])
    if not rec["ok"]:
        return rec
    rec.update(wall_s=rec["claim_wall_s"], jobs=len(rec["claims"]),
               peak_rss_mb=rec["child"].maxrss_mb, traces=[rec["trace"]])
    return rec


def store_replay_rep(run: Run, rep: int, traced=False) -> dict:
    """Write pass into an empty store, then a read pass over it."""
    flags = store_flags(run)
    store = run.path("store")
    jobs = ["--jobs", "2"]
    write = verify_pass(run, "store-replay",
                        jobs + store_args(flags, "journal", store), rep, traced)
    written = dir_bytes(store) if store.exists() else 0
    read = {"ok": False}
    if write["ok"]:
        read = verify_pass(
            run, "store-replay",
            jobs + store_args(flags, "journal", store, resume=True), rep,
            traced)
    shutil.rmtree(store, ignore_errors=True)
    if not (write["ok"] and read["ok"]):
        return {"ok": False}
    score_replay(run, read["run_stats"])
    # Both passes were scored against the same pins, so a read pass that
    # does not reproduce its write pass has already failed there.
    claims = {c: t + read["claims"].get(c, 0.0)
              for c, t in write["claims"].items()}
    return {
        "ok": True,
        "wall_s": write["claim_wall_s"] + read["claim_wall_s"],
        "write_pass_s": write["claim_wall_s"],
        "read_pass_s": read["claim_wall_s"],
        "setup_s": write["setup_s"],
        "runs": write["runs"] + read["runs"],
        # A claim's latency here is what it costs across both passes.
        "claims": claims,
        "jobs": len(claims),
        "peak_rss_mb": max(write["child"].maxrss_mb, read["child"].maxrss_mb),
        "run_stats": write["run_stats"] + read["run_stats"],
        "traces": [write["trace"], read["trace"]],
        "journal_bytes": written,
    }


#: One repetition of each claim-running workload.
CLAIM_REPS = {"verify-serial": verify_serial_rep,
              "store-replay": store_replay_rep}


class Server:
    """A ``repro serve`` process (or the traced launcher running it)."""

    def __init__(self, run: Run, cache: Path, traced=False):
        flags = store_flags(run)
        argv = store_args(flags, "cache", cache) + [
            "serve", "--listen", "127.0.0.1:0", "--service-workers", "2"]
        self.trace_out = run.path("trace.json") if traced else None
        if traced:
            cmd = [sys.executable, HERE / "launch.py", self.trace_out, "--"] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        self.err = run.path("stderr.txt")
        self._err = open(self.err, "wb")
        env = run.env(dict(SERVE_ENV, PERFBENCH_TRACE_ID=f"serve-mix:{run.seed}"))
        self.child = procs.Child(cmd, env, ROOT, stdout=subprocess.PIPE,
                                 stderr=self._err)
        self.run = run
        self.port = None
        self.setup_s = None

    def wait_ready(self) -> bool:
        """Read the ``listening`` announcement; record the set-up time."""
        for line in self.child.proc.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == "listening":
                self.setup_s = time.perf_counter() - self.child.t_spawn
                self.port = event["port"]
                return True
        return False

    def stop(self) -> None:
        """Ask the server to shut down, then reap it."""
        try:
            if self.port is not None:
                conn = servemix.Connection(self.port, "perfbench-admin")
                conn.call("service.shutdown", {"drain": True}, timeout=30)
                conn.close()
                self.child.wait(min(60.0, self.run.remaining()))
        finally:
            self.child.stop()
            self._err.close()


def serve_pass(run: Run, jobs: int, traced=False) -> dict:
    """One server serving ``jobs`` jobs, half from each client."""
    cache = run.path("cache")
    server = Server(run, cache, traced)
    try:
        if not server.wait_ready():
            run.attempted += 1
            run.fail(1, "server never announced 'listening': "
                     + server.err.read_text(errors="replace")[-400:])
            return {"ok": False}
        records, first, last = servemix.run_load(
            server.port, run.seed, run.pins, jobs_per_client=jobs // 2)
        conn = servemix.Connection(server.port, "perfbench-admin")
        stats = conn.call("service.stats").get("result", {})
        conn.close()
    finally:
        server.stop()
    done = score_jobs(run, records)
    wall = max(last - first, 1e-9)
    executed = [r for r in done if not r["deduped"]]
    run_stats = [s for r in executed for s in r["run_stats"]]
    hits = sum(s.get("cache_hits", 0) for s in run_stats)
    lookups = hits + sum(s.get("cache_misses", 0) for s in run_stats)
    return {
        "ok": bool(records),
        "setup_s": server.setup_s,
        "wall_s": wall,
        "runs": sum(r["executions"] for r in executed),
        "latencies_s": [r["latency_s"] for r in records],
        "jobs": len(done),
        "peak_rss_mb": server.child.maxrss_mb,
        "run_stats": run_stats,
        "traces": [json.loads(server.trace_out.read_text())] if traced else [],
        "service": stats,
        "cache_bytes": dir_bytes(cache) if cache.exists() else 0,
        "jobs per kind": {k: sum(1 for r in records if r["kind"] == k)
                  for k, _ in servemix.MIX},
        # How much of the load has the property each store path needs.
        "chunk-cache hit share": round(hits / lookups, 4) if lookups else 0.0,
        "dedupe share": round((len(done) - len(executed)) / len(done), 4)
        if done else 0.0,
    }


def serve_setup_probe(run: Run) -> float:
    server = Server(run, run.path("cache"))
    try:
        ready = server.wait_ready()
    finally:
        server.stop()
    run.attempted += 1
    if not ready:
        run.fail(1, "setup probe: server never announced 'listening'")
        return None
    return server.setup_s


# -- metrics -------------------------------------------------------------------


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


#: Pooled samples needed for ten of them to lie beyond the 90th percentile.
P90_SAMPLES = 100


def claim_medians(reps) -> list:
    """Each claim's median time across the run's repetitions."""
    return [median(r["claims"].get(c) for r in reps) for c in reps[0]["claims"]]


def job_latencies(reps) -> list:
    """Latency samples of the run's jobs.  Claim runs pool every
    repetition's claim times when that leaves ten samples beyond the 90th
    percentile; with fewer, a claim's one slow repetition would set the
    tail, so each claim contributes its median instead."""
    if not all("claims" in r for r in reps):
        return [lat for r in reps for lat in r["latencies_s"]]
    pooled = [t for r in reps for t in r["claims"].values()]
    return pooled if len(pooled) >= P90_SAMPLES else claim_medians(reps)


def end_to_end(run: Run, reps, setup_samples) -> dict:
    latencies = job_latencies(reps)
    ok_ratio = 1.0 - run.failed / run.attempted if run.attempted else 0.0
    # For claim runs, the claim run is the sum of its claims' medians.
    wall = (sum(claim_medians(reps)) if all("claims" in r for r in reps)
            else median(r["wall_s"] for r in reps))
    values = {
        "setup_s": median(setup_samples),
        "wall_s": wall,
        "runs_per_s": median(r["runs"] for r in reps) / wall,
        "job_p50_ms": layers.quantile(latencies, 0.5) * 1e3,
        "job_p90_ms": layers.quantile(latencies, 0.9) * 1e3,
        "jobs_per_s": median(r["jobs"] for r in reps) / wall,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "ok_ratio": ok_ratio,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def measure(run: Run):
    """Untraced runs of the workload; returns the end-to-end metrics."""
    if run.workload == "serve-mix":
        setups = [serve_setup_probe(run) for _ in range(SERVE_SETUP_PROBES)]
        # A fixed job count, sized from --seconds alone.
        load_s = max(run.seconds - SERVE_OVERHEAD_S, 5.0)
        rep = serve_pass(run, round(SERVE_JOBS_PER_S * load_s / 2) * 2)
        reps = [rep] if rep["ok"] else []
        setups.append(rep.get("setup_s"))
    else:
        once = CLAIM_REPS[run.workload]
        reps = run.repeat(lambda rep: once(run, rep), REP_SECONDS[run.workload])
        reps = [r for r in reps if r["ok"]]
        setups = [r["setup_s"] for r in reps]
    if not reps:
        return None, {}
    extra = {"reps": len(reps),
             "latency samples": len(job_latencies(reps)),
             "wall_s per rep": [round(r["wall_s"], 4) for r in reps]}
    for key in ("jobs per kind", "chunk-cache hit share", "dedupe share"):
        if key in reps[0]:
            extra[key] = reps[0][key]
    return end_to_end(run, reps, setups), extra


def measure_traced(run: Run):
    """One untraced and one traced pass; returns the per-layer metrics."""
    if run.workload == "serve-mix":
        plain = serve_pass(run, TRACE_SERVE_JOBS)
        traced = serve_pass(run, TRACE_SERVE_JOBS, traced=True)
    else:
        once = CLAIM_REPS[run.workload]
        plain = once(run, 0)
        traced = once(run, 0, traced=True)
    if not (plain["ok"] and traced["ok"]):
        return None, {}
    # Keep the spans of the last traced run of each workload for a look
    # at where the time went; the run directory itself is removed.
    kept = WORK / f"trace-{run.workload}.json"
    kept.write_text(json.dumps(traced["traces"]))
    return layers.per_layer(plain, traced), {"spans written to": str(kept)}


def compile_program(run: Run) -> None:
    """Byte-compile, untimed, everything a process under test imports, so
    that each measured process starts from a cold interpreter but warm
    bytecode, like an installed program.  The byte code lives under
    ``.perfbench-work/pycache``, for the libraries too; theirs is written
    once per checkout."""
    procs.run([sys.executable, "-m", "compileall", "-q", ROOT / "src" / "repro"],
              run.env(), ROOT, run.remaining())
    marker = WORK / "pycache" / ".libraries-compiled"
    if not marker.exists():
        procs.run([sys.executable, "-c",
                   "import repro.cli, repro.service, repro.verify"],
                  run.env(), ROOT, run.remaining())
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-serial", "store-replay", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        compile_program(run)
        metrics, extra = (measure_traced if run.trace else measure)(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if metrics is None:
        for why in run.errors:
            print(f"perfbench: {why}", file=sys.stderr)
        print("perfbench: no complete pass; nothing to report", file=sys.stderr)
        return 1
    for why in run.errors:
        print(f"error: {why}")
    for name, extra_value in sorted(extra.items()):
        print(f"# {name} = {extra_value}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "absent: " + metric["absent"] if value is None else f"{value:.6g}"
        print(f"{name:<36} {shown} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
