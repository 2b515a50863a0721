"""Per-layer metrics from one untraced and one traced pass of a workload.

Sources: the tracer reports of the traced processes (span counts, self
and inclusive times, hook counters), the ``RunStats``/``ChunkStats`` the
program exports with every artefact (these also cover work done inside
pool workers, which the in-process tracer cannot see), the service's own
``service.stats`` counters, and the sizes of the store directories.

``*_calls`` count calls at a layer boundary; ``*_s`` is the layer's self
time (span time minus the time of wrapped calls inside it) unless the
README says otherwise.  A metric whose traced target no longer exists in
the program is reported with value ``null`` and an ``absent`` reason.
"""

from __future__ import annotations


def _merge(traces):
    layers, counts, samples, absent, protocols = {}, {}, {}, {}, []
    for trace in traces:
        for name, entry in trace["layers"].items():
            total = layers.setdefault(
                name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += entry[key]
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, values in trace["samples"].items():
            samples.setdefault(key, []).extend(values)
        absent.update(trace["absent"])
        protocols.extend(trace["protocols"])
    return layers, counts, samples, absent, protocols


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0 if empty."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def per_layer(plain: dict, traced: dict) -> dict:
    traces = [t for t in traced["traces"] if t]
    layers, counts, samples, absent, protocols = _merge(traces)
    stats = traced["run_stats"]
    chunks = [c for s in stats for c in s.get("chunks", ())
              if c.get("outcome") != "cancelled"]
    metrics = {}

    def put(name, unit, value, needs=()):
        """Record a metric; absent when every span it needs is absent."""
        if needs and all(n in absent for n in needs):
            metrics[name] = {"value": None, "unit": unit,
                             "absent": absent[needs[0]]}
        else:
            metrics[name] = {"value": value, "unit": unit}

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def incl(name):
        return layers.get(name, {}).get("inclusive_s", 0.0)

    def span_pair(prefix, span):
        put(f"{prefix}_calls", "count", calls(span), (span,))
        put(f"{prefix}_s", "s", self_s(span), (span,))

    def stat_sum(key):
        return sum(s.get(key, 0) for s in stats)

    def runs_where(engines):
        return sum(c["stop"] - c["start"] for c in chunks
                   if c.get("engine") in engines)

    def ratio(a, b):
        return a / b if b else 0.0

    # setup
    put("setup.import_s", "s", traces[0].get("import_s"))
    put("setup.registry_s", "s",
        incl("setup.protocol_registry") + incl("setup.claim_registry"),
        ("setup.protocol_registry", "setup.claim_registry"))
    memo_sources = any(t.get("memo", {}).get("sources") for t in traces)
    pool_stats = [s for s in stats if s.get("backend") == "process-pool"]
    for key in ("hits", "misses"):
        value = (sum(t.get("memo", {}).get(key, 0) for t in traces)
                 + sum(s.get(f"memo_{key}", 0) for s in pool_stats))
        if memo_sources:
            put(f"setup.memo_{key}", "count", value)
        else:
            metrics[f"setup.memo_{key}"] = {
                "value": None, "unit": "count",
                "absent": "the program exposes no setup-memo counters"}

    # verify
    claim = "verify.check_claim"
    put("verify.claims", "count", calls(claim), (claim,))
    put("verify.check_claim_s", "s", incl(claim), (claim,))
    put("verify.off_runner_s", "s", incl(claim) - incl("verify.in_runner"),
        (claim,))

    # runtime venue dispatch
    put("runtime.batches", "count", len(stats))
    put("runtime.batch_s", "s", stat_sum("wall_clock_s"))
    put("runtime.chunks", "count", len(chunks))
    put("runtime.chunk_s", "s", sum(c.get("wall_clock_s", 0.0) for c in chunks))
    put("runtime.dispatch_s", "s", self_s("runtime.batch"), ("runtime.batch",))
    put("runtime.pool_spawns", "count", counts.get("runtime.pool_spawn", 0),
        ("runtime.pool_spawn",))
    put("runtime.retries", "count", stat_sum("retries"))
    put("runtime.serial_replays", "count", stat_sum("serial_replays"))

    # per-run setup
    reference_runs = runs_where(("reference",))
    put("runtime.setup_s", "s", stat_sum("setup_s"))
    put("runtime.setup_us_per_run", "us",
        ratio(stat_sum("setup_s"), reference_runs) * 1e6)
    span_pair("crypto.rng_fork", "crypto.rng_fork")

    # vectorized backend
    vectorized = stat_sum("vectorized_runs")
    put("vectorized.runs", "count", vectorized)
    put("vectorized.share", "ratio",
        ratio(vectorized, runs_where(("reference", "vectorized"))))

    # engine
    rounds = sum(p["rounds"] for p in protocols)
    messages = sum(p["messages"] for p in protocols)
    engine = ("engine.run",)
    put("engine.runs", "count", reference_runs)
    put("engine.run_s", "s", self_s("engine.run"), engine)
    put("engine.rounds", "count", rounds, engine)
    put("engine.messages", "count", messages, engine)
    put("engine.us_per_round", "us", ratio(incl("engine.run"), rounds) * 1e6,
        engine)
    put("engine.us_per_message", "us",
        ratio(incl("engine.run"), messages) * 1e6, engine)
    modelled = [p for p in protocols if p["predicted"] is not None]
    modelled_runs = sum(p["runs"] for p in modelled)
    for quantity in ("rounds", "messages"):
        put(f"engine.modelled_{quantity}_per_run", "count",
            ratio(sum(p[quantity] for p in modelled), modelled_runs), engine)
        put(f"engine.predicted_{quantity}_per_run", "count",
            ratio(sum(p["predicted"][quantity] * p["runs"] for p in modelled),
                  modelled_runs), engine)
    span_pair("engine.clone", "engine.clone")

    # adversaries, functionalities, crypto, events
    span_pair("adversaries.probe", "adversaries.probe")
    span_pair("functionalities.invoke", "functionalities.invoke")
    for part in ("prg_read", "mac", "signature", "sharing"):
        span_pair(f"crypto.{part}", f"crypto.{part}")
    span_pair("core.classify", "core.classify")

    # chunk store: run journal and chunk cache
    span_pair("journal.record", "journal.record")
    put("journal.bytes", "B", traced.get("journal_bytes", 0))
    put("journal.fetch_calls", "count", calls("journal.fetch"),
        ("journal.fetch",))
    put("journal.hits", "count", counts.get("journal.hits", 0),
        ("journal.fetch",))
    put("journal.fetch_s", "s", self_s("journal.fetch"), ("journal.fetch",))
    put("cache.fetch_calls", "count", calls("cache.fetch"), ("cache.fetch",))
    put("cache.hits", "count", counts.get("cache.hits", 0), ("cache.fetch",))
    put("cache.fetch_s", "s", self_s("cache.fetch"), ("cache.fetch",))
    span_pair("cache.store", "cache.store")
    put("cache.bytes", "B", traced.get("cache_bytes", 0))
    put("store.hit_ratio", "ratio",
        ratio(counts.get("journal.hits", 0) + counts.get("cache.hits", 0),
              calls("journal.fetch") + calls("cache.fetch")),
        ("journal.fetch", "cache.fetch"))
    put("store.write_pass_s", "s", plain.get("write_pass_s", 0.0))
    put("store.read_pass_s", "s", plain.get("read_pass_s", 0.0))

    # service
    service = traced.get("service", {})
    put("service.rpc_calls", "count", calls("service.rpc"), ("service.rpc",))
    put("service.rpc_ms_p50", "ms",
        quantile(samples.get("service.rpc_ms", []), 0.5), ("service.rpc",))
    waits = samples.get("service.queue_wait_ms", [])
    put("service.queue_wait_ms_p50", "ms", quantile(waits, 0.5),
        ("service.submit", "service.job"))
    put("service.queue_wait_ms_p90", "ms", quantile(waits, 0.9),
        ("service.submit", "service.job"))
    put("service.exec_ms_p50", "ms",
        quantile(samples.get("service.exec_ms", []), 0.5), ("service.job",))
    for key in ("executed", "dedup_hits", "rate_limited", "queue_rejections"):
        put(f"service.{key}", "count", service.get(key, 0))

    # tracing itself
    put("trace.overhead_ratio", "ratio", ratio(traced["wall_s"], plain["wall_s"]))
    return metrics


def metric_names():
    """Every per-layer metric name, in report order (from a dry report)."""
    trace = {"layers": {}, "counts": {}, "samples": {}, "absent": {},
             "protocols": [], "import_s": 0.0, "memo": {"sources": ["x"]}}
    rep = {"traces": [trace], "run_stats": [], "wall_s": 1.0}
    return list(per_layer(rep, rep))

