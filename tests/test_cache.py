"""Hot-path optimization layer: memoization, chunk cache, instrumentation.

The soundness bar for every cache in the runtime is bit-identity: a memo
hit, a disk-cache hit, or a backend switch may never change a single
event count.  These tests pin that, plus the key-sensitivity properties
(different seed / span / protocol ⇒ different keys), the
pickle-free entry format, entries that name their own key, and the
strict opt-in-ness of the persistent cache.
"""

import os

from repro.adversaries import strategy_space_for_protocol
from repro.circuits.compiler import compile_truth_table, memo_counters
from repro.functions import make_and, make_swap
from repro.gmw import gmw_from_spec
from repro.protocols import Opt2SfeProtocol
from repro.runtime import (
    CACHE_SCHEMA_VERSION,
    ChunkCache,
    ExecutionTask,
    ProcessPoolRunner,
    SerialRunner,
    resolve_cache,
    resolve_runner,
)
from repro import metrics
from repro.runtime.cache import chunk_key, entry_path


def _tasks(n_runs=120, seed="cache-test"):
    protocol = Opt2SfeProtocol(make_swap(16))
    space = strategy_space_for_protocol(protocol)[:3]
    return [
        ExecutionTask(protocol, f, n_runs, seed=(seed, f.name))
        for f in space
    ]


# -- setup memoization --------------------------------------------------------


class TestSetupMemos:
    def test_circuit_compilation_is_content_memoized(self):
        and_spec = make_and()

        def global_func(inputs):
            return and_spec.outputs_for(inputs)[0]

        c1 = compile_truth_table(global_func, [1, 1], 1, 2)
        c2 = compile_truth_table(global_func, [1, 1], 1, 2)
        assert c1 is c2  # same content ⇒ same immutable circuit object

    def test_gmw_from_spec_reuses_circuit(self):
        a = gmw_from_spec(make_and(), [1, 1])
        b = gmw_from_spec(make_and(), [1, 1])
        assert a.circuit is b.circuit
        assert a.cache_key == b.cache_key

    def test_different_specs_do_not_collide(self):
        from repro.functions import make_xor

        a = gmw_from_spec(make_and(), [1, 1])
        x = gmw_from_spec(make_xor(), [1, 1])
        assert a.circuit is not x.circuit
        assert a.cache_key != x.cache_key

    def test_memo_counters_shape(self):
        counters = memo_counters()
        assert set(counters) == {"hits", "misses"}

    def test_and_layers_cached_copy_is_mutation_safe(self):
        proto = gmw_from_spec(make_and(), [1, 1])
        layers = proto.circuit.and_layers()
        if layers:
            layers[0].clear()
        assert proto.circuit.and_layers() != layers or not layers


# -- chunk-cache keys ---------------------------------------------------------


class TestChunkCacheKeys:
    def test_key_is_deterministic(self):
        (task,) = _tasks()[:1]
        assert chunk_key(task, 0, 10) == chunk_key(task, 0, 10)

    def test_key_changes_with_span_seed_salt(self):
        (task,) = _tasks()[:1]
        (other_seed,) = _tasks(seed="other")[:1]
        base = chunk_key(task, 0, 10)
        assert chunk_key(task, 0, 20) != base
        assert chunk_key(task, 10, 20) != base
        assert chunk_key(other_seed, 0, 10) != base

    def test_key_changes_with_protocol_and_strategy(self):
        t2sfe = _tasks()[0]
        gmw = gmw_from_spec(make_and(), [1, 1])
        gmw_space = strategy_space_for_protocol(gmw)[:2]
        gmw_tasks = [
            ExecutionTask(gmw, f, 120, seed=("cache-test", f.name))
            for f in gmw_space
        ]
        keys = {chunk_key(t, 0, 10) for t in [t2sfe] + gmw_tasks}
        assert len(keys) == 3

    def test_opaque_tasks_are_never_cached(self):
        class Opaque:
            n_runs = 10

            def run_chunk(self, start, stop):
                return stop - start

        assert chunk_key(Opaque(), 0, 10) is None

        (task,) = _tasks()[:1]
        task.input_sampler = lambda rng: (0, 0)  # no cache_token
        assert chunk_key(task, 0, 10) is None

    def test_schema_version_in_key(self, monkeypatch):
        import repro.runtime.cache as cache_mod

        (task,) = _tasks()[:1]
        before = chunk_key(task, 0, 10)
        monkeypatch.setattr(
            cache_mod, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert chunk_key(task, 0, 10) != before


# -- chunk-cache correctness --------------------------------------------------


class TestChunkCacheCorrectness:
    def test_cached_equals_uncached_serial(self, tmp_path):
        tasks = _tasks()
        base = SerialRunner().run(tasks)
        cold = SerialRunner(cache=ChunkCache(tmp_path))
        warm = SerialRunner(cache=ChunkCache(tmp_path))
        assert cold.run(tasks) == base
        assert warm.run(tasks) == base
        assert cold.last_stats.cache_stores == cold.last_stats.n_chunks
        assert warm.last_stats.cache_hits == warm.last_stats.n_chunks
        assert warm.last_stats.cache_misses == 0

    def test_pool_shares_serial_cache_entries(self, tmp_path):
        tasks = _tasks()
        base = SerialRunner().run(tasks)
        SerialRunner(cache=ChunkCache(tmp_path)).run(tasks)
        pool = ProcessPoolRunner(
            2, min_parallel_runs=0, cache=ChunkCache(tmp_path)
        )
        assert pool.run(tasks) == base
        stats = pool.last_stats
        if stats.backend == "process-pool":  # fork available
            assert stats.cache_hits == stats.n_chunks

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        tasks = _tasks()
        base = SerialRunner().run(tasks)
        SerialRunner(cache=ChunkCache(tmp_path)).run(tasks)
        entries = list(tmp_path.glob("*/*.json"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"not an entry")
        repaired = SerialRunner(cache=ChunkCache(tmp_path))
        assert repaired.run(tasks) == base
        stats = repaired.last_stats
        # Each damaged entry is detected, counted as corrupt AND a miss,
        # and quarantined aside so it cannot poison the next lookup.
        assert stats.cache_corrupt_entries == len(entries)
        assert stats.cache_misses >= len(entries)
        assert not list(tmp_path.glob("*/*.json")) or all(
            e.suffix == ".json" for e in tmp_path.glob("*/*.json")
        )
        assert len(list(tmp_path.glob("*/*.corrupt"))) == len(entries)

    def test_bitflip_checksum_mismatch_is_quarantined(self, tmp_path):
        tasks = _tasks()
        base = SerialRunner().run(tasks)
        SerialRunner(cache=ChunkCache(tmp_path)).run(tasks)
        entry = sorted(tmp_path.glob("*/*.json"))[0]
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # magic stays intact, payload does not
        entry.write_bytes(bytes(blob))
        repaired = SerialRunner(cache=ChunkCache(tmp_path))
        assert repaired.run(tasks) == base
        stats = repaired.last_stats
        assert stats.cache_corrupt_entries == 1
        assert stats.cache_hits > 0  # undamaged entries still serve
        assert entry.with_suffix(".corrupt").exists()

    def test_pickle_payload_is_corrupt_and_never_unpickled(
        self, tmp_path, monkeypatch
    ):
        # A well-formed header (current magic, matching SHA-256) over a
        # pickled payload: what a hostile writer to a shared cache
        # directory would plant.  It must be rejected without ever
        # reaching the unpickler.
        import hashlib
        import pickle

        import repro.runtime.cache as cache_mod

        (task,) = _tasks()[:1]
        value = task.run_chunk(0, 10)
        cache = ChunkCache(tmp_path)
        key = chunk_key(task, 0, 10)
        payload = pickle.dumps(value)
        path = entry_path(tmp_path, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            cache_mod._ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
        )
        unpickled = []
        monkeypatch.setattr(
            pickle, "loads", lambda *a, **k: unpickled.append(a)
        )
        before = metrics.snapshot()
        assert cache.fetch(key) == (False, None)
        assert unpickled == []
        delta = metrics.delta(before)
        assert delta["cache_corrupt_entries"] == 1
        assert delta["cache_misses"] == 1
        assert "cache_hits" not in delta
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_misfiled_entry_does_not_satisfy_the_wrong_key(self, tmp_path):
        """An intact entry copied onto another key's path is quarantined
        as corrupt, never served for that key."""
        (task,) = _tasks()[:1]
        cache = ChunkCache(tmp_path)
        key_a, key_b = chunk_key(task, 0, 10), chunk_key(task, 10, 20)
        cache.store(key_a, task.run_chunk(0, 10))
        path_b = entry_path(tmp_path, key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(entry_path(tmp_path, key_a).read_bytes())
        before = metrics.snapshot()
        assert cache.fetch(key_b) == (False, None)
        delta = metrics.delta(before)
        assert delta["cache_corrupt_entries"] == 1
        assert "cache_hits" not in delta
        assert path_b.with_suffix(".corrupt").exists()
        assert cache.fetch(key_a)[0]

    def test_warm_hit_preserves_counts_and_their_order(self, tmp_path):
        (task,) = _tasks()[:1]
        computed = task.run_chunk(0, 50)
        cache = ChunkCache(tmp_path)
        key = chunk_key(task, 0, 50)
        cache.store(key, computed)
        hit, fetched = ChunkCache(tmp_path).fetch(key)
        assert hit
        assert fetched == computed
        assert list(fetched.counts.items()) == list(computed.counts.items())
        assert list(fetched.corruption_counts.items()) == list(
            computed.corruption_counts.items()
        )

    def test_unencodable_partial_is_a_write_error(self, tmp_path):
        cache = ChunkCache(tmp_path)
        (task,) = _tasks()[:1]
        key = chunk_key(task, 0, 10)
        before = metrics.snapshot()
        cache.store(key, {"not": "a partial"})
        delta = metrics.delta(before)
        assert delta["cache_write_errors"] == 1
        assert "cache_stores" not in delta
        assert len(cache) == 0

    def test_write_error_counted(self, tmp_path):
        # chmod tricks do not bind as root, so make the store path
        # unusable structurally: the cache root becomes a regular file,
        # and every entry write then fails with NotADirectoryError.
        import shutil

        tasks = _tasks()
        root = tmp_path / "cache"
        cache = ChunkCache(root)
        shutil.rmtree(root)
        root.write_bytes(b"in the way")
        runner = SerialRunner(cache=cache)
        base = SerialRunner().run(tasks)
        assert runner.run(tasks) == base  # the cache may never fail a batch
        assert runner.last_stats.cache_write_errors > 0
        assert runner.last_stats.cache_stores == 0

    def test_partial_prefix_reuse_across_budgets(self, tmp_path):
        # A longer sweep with the same seed shares its common chunk
        # prefix with a shorter one (n_runs is not in the key).
        chunk = 30
        short = _tasks(n_runs=60)
        long = _tasks(n_runs=120)
        SerialRunner(chunk_size=chunk, cache=ChunkCache(tmp_path)).run(short)
        runner = SerialRunner(chunk_size=chunk, cache=ChunkCache(tmp_path))
        assert runner.run(long) == SerialRunner().run(long)
        stats = runner.last_stats
        assert stats.cache_hits > 0 and stats.cache_stores > 0


# -- opt-in-ness and env plumbing --------------------------------------------


class TestCacheOptIn:
    def test_no_env_no_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert resolve_cache() is None
        assert SerialRunner().cache is None
        assert resolve_runner(1).cache is None

    def test_env_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = resolve_cache()
        assert cache is not None and cache.root == tmp_path
        assert resolve_runner(1).cache.root == tmp_path
        assert resolve_runner(2).cache.root == tmp_path

    def test_explicit_runner_ignores_the_env(self, tmp_path, monkeypatch):
        """Only resolve_runner reads the store variables: a runner built
        directly with ``cache=None`` has no store at all."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path / "journal"))
        runner = SerialRunner(cache=None)
        assert runner.cache is None and runner.journal is None
        assert ProcessPoolRunner(2).cache is None

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        cache = resolve_cache(tmp_path / "explicit")
        assert cache.root == tmp_path / "explicit"

    def test_store_failure_is_silent(self, tmp_path):
        cache = ChunkCache(tmp_path)
        os.chmod(tmp_path, 0o500)
        try:
            cache.store("ab" * 32, {"x": 1})  # must not raise
        finally:
            os.chmod(tmp_path, 0o700)


# -- instrumentation ----------------------------------------------------------


class TestInstrumentation:
    def test_phase_times_recorded(self):
        runner = SerialRunner()
        runner.run(_tasks(n_runs=40))
        stats = runner.last_stats
        assert stats.execute_s > 0
        assert stats.setup_s >= 0 and stats.classify_s >= 0
        # The phase split must not exceed observed wall time by much
        # (same process, same clock).
        total = stats.setup_s + stats.execute_s + stats.classify_s
        assert total <= stats.wall_clock_s * 1.5 + 0.05

    def test_chunk_stats_carry_phases_and_cache_state(self, tmp_path):
        runner = SerialRunner(cache=ChunkCache(tmp_path))
        runner.run(_tasks(n_runs=40))
        assert all(c.cache == "stored" for c in runner.last_stats.chunks)
        warm = SerialRunner(cache=ChunkCache(tmp_path))
        warm.run(_tasks(n_runs=40))
        assert all(c.cache == "hit" for c in warm.last_stats.chunks)

    def test_delta_is_nonnegative_and_keyed(self):
        before = metrics.snapshot()
        SerialRunner().run(_tasks(n_runs=20))
        delta = metrics.delta(before)
        assert set(delta) <= set(metrics.snapshot())
        assert all(v > 0 for v in delta.values())
        assert delta["execute_s"] > 0

    def test_export_includes_new_fields(self, tmp_path):
        from repro.analysis import run_stats_to_dict

        runner = SerialRunner(cache=ChunkCache(tmp_path))
        runner.run(_tasks(n_runs=40))
        payload = run_stats_to_dict(runner.last_stats)
        for key in (
            "setup_s",
            "execute_s",
            "classify_s",
            "memo_hits",
            "memo_misses",
            "cache_hits",
            "cache_misses",
            "cache_stores",
        ):
            assert key in payload
        assert payload["cache_stores"] == payload["n_chunks"]
        assert all("cache" in c for c in payload["chunks"])

    def test_pool_ships_instrumentation_back(self, tmp_path):
        pool = ProcessPoolRunner(2, min_parallel_runs=0)
        tasks = _tasks(n_runs=120)
        pool.run(tasks)
        stats = pool.last_stats
        if stats.backend == "process-pool":
            assert stats.execute_s > 0  # measured in workers, summed here


# -- CLI surface --------------------------------------------------------------


class TestCliCache:
    def test_cli_cache_flag_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "--runs",
            "60",
            "--cache",
            str(tmp_path),
            "attack",
            "opt-2sfe",
        ]
        main(argv)
        cold = capsys.readouterr().out
        main(argv)
        warm = capsys.readouterr().out
        assert warm == cold
        assert len(ChunkCache(tmp_path)) > 0

    def test_cli_profile_smoke(self, capsys):
        from repro.cli import main

        main(["--runs", "20", "profile", "opt-2sfe", "--top", "5"])
        out = capsys.readouterr().out
        assert "phases:" in out and "cumtime" in out

    def test_cli_profile_ignores_the_cache_env(self, tmp_path, capsys,
                                               monkeypatch):
        """``profile`` measures the protocol, not the entry decoder: with
        ``REPRO_CACHE_DIR`` set it neither reads nor fills the cache."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        main(["--runs", "20", "profile", "opt-2sfe", "--top", "5"])
        assert "phases:" in capsys.readouterr().out
        assert len(ChunkCache(tmp_path)) == 0
