"""Hot-path optimization layer — cold vs. warm-memoized vs. disk-cached.

Three passes over the same two-protocol sweep (ΠOpt2SFE over swap16 and
GMW over AND — the latter exercises the content-memoized truth-table
compiler and interned fields):

1. **cold** — fresh process: every setup memo misses, every circuit is
   compiled from scratch, no chunk cache.
2. **warm-memoized** — same process, protocols rebuilt from their specs:
   the process-local memos (validated primes, interned fields, compiled
   circuits, layer plans) are hot, still no chunk cache.
3. **disk-cached** — a :class:`~repro.runtime.ChunkCache` populated by a
   priming pass serves every chunk from disk.

All three must produce bit-identical estimates (asserted
unconditionally, as is serial-vs-pool identity).  The wall-clock verdict
— warm disk cache ≥ 2× cold — is also asserted unconditionally: unlike
pool-parallel speedups it does not depend on the host's CPU count (disk
replay beats recomputation even on the 1-CPU containers CI uses), so the
benchmark always carries a verdict and records the host's ``cpus``
alongside every pass for context.  The measured numbers are written to
``BENCH_hotpath.json`` at the repo root so the trajectory is committed
alongside the code it describes.

Runnable standalone (``python benchmarks/bench_hotpath.py``) or under
pytest.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.adversaries import strategy_space_for_protocol
from repro.analysis import sweep_strategies
from repro.core import STANDARD_GAMMA
from repro.functions import make_and, make_swap
from repro.gmw import gmw_from_spec
from repro.protocols import Opt2SfeProtocol
from repro.runtime import ChunkCache, ProcessPoolRunner, SerialRunner, usable_cpus

RUNS_2SFE = 150
RUNS_GMW = 60
SPEEDUP_FLOOR = 2.0

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def _build_workloads():
    """(protocol, space, runs, seed) tuples — rebuilt per pass so the
    warm pass measures memoized construction, not object reuse."""
    swap = Opt2SfeProtocol(make_swap(16))
    gmw = gmw_from_spec(make_and(), [1, 1])
    return [
        (swap, strategy_space_for_protocol(swap), RUNS_2SFE, "hotpath-2sfe"),
        (gmw, strategy_space_for_protocol(gmw), RUNS_GMW, "hotpath-gmw"),
    ]


def _sweep(runner):
    """One full sweep; returns (estimates, seconds, summed RunStats fields)."""
    t0 = time.perf_counter()
    estimates = []
    totals = {
        "executions": 0,
        "memo_hits": 0,
        "memo_misses": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "cache_stores": 0,
        "setup_s": 0.0,
        "execute_s": 0.0,
        "classify_s": 0.0,
    }
    for protocol, space, runs, seed in _build_workloads():
        estimates.append(
            sweep_strategies(
                protocol, space, STANDARD_GAMMA, runs, seed=seed, runner=runner
            )
        )
        stats = runner.last_stats
        for key in totals:
            totals[key] += getattr(stats, key)
    return estimates, time.perf_counter() - t0, totals


def run_benchmark():
    cpus = usable_cpus()

    # Pass 1: cold — this process has not built these protocols yet.
    cold_estimates, cold_s, cold_tot = _sweep(SerialRunner(cache=None))

    # Pass 2: warm-memoized — same sweep, process-local memos now hot.
    warm_estimates, warm_s, warm_tot = _sweep(SerialRunner(cache=None))

    with tempfile.TemporaryDirectory() as tmp:
        # Priming pass populates the chunk cache (timed as "store" cost),
        # then the measured pass replays every chunk from disk.
        _, prime_s, prime_tot = _sweep(SerialRunner(cache=ChunkCache(tmp)))
        cached_estimates, cached_s, cached_tot = _sweep(
            SerialRunner(cache=ChunkCache(tmp))
        )
        pool_estimates, _, _ = _sweep(
            ProcessPoolRunner(2, min_parallel_runs=0, cache=ChunkCache(tmp))
        )

    # Determinism is asserted unconditionally: neither memoization, the
    # disk cache, nor the backend may change a single event count.
    assert warm_estimates == cold_estimates, "memoization changed results"
    assert cached_estimates == cold_estimates, "chunk cache changed results"
    assert pool_estimates == cold_estimates, "pool+cache changed results"
    assert cached_tot["cache_hits"] > 0 and cached_tot["cache_misses"] == 0
    assert prime_tot["cache_stores"] > 0
    assert warm_tot["memo_hits"] > 0, "warm pass should hit setup memos"

    disk_speedup = cold_s / max(cached_s, 1e-9)
    warm_speedup = cold_s / max(warm_s, 1e-9)

    payload = {
        "workload": {
            "protocols": ["opt-2sfe[swap16]", "gmw[and]"],
            "runs": {"opt-2sfe": RUNS_2SFE, "gmw": RUNS_GMW},
            "executions_per_pass": cold_tot["executions"],
        },
        "cpus": cpus,
        "passes": {
            "cold": {
                "wall_s": round(cold_s, 4), "cpus": cpus, **_round(cold_tot)
            },
            "warm_memoized": {
                "wall_s": round(warm_s, 4), "cpus": cpus, **_round(warm_tot)
            },
            "disk_prime": {
                "wall_s": round(prime_s, 4), "cpus": cpus, **_round(prime_tot)
            },
            "disk_cached": {
                "wall_s": round(cached_s, 4), "cpus": cpus,
                **_round(cached_tot)
            },
        },
        "speedups": {
            "warm_memoized_vs_cold": round(warm_speedup, 3),
            "disk_cached_vs_cold": round(disk_speedup, 3),
        },
        "asserted": True,
        "bit_identical": True,
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert disk_speedup >= SPEEDUP_FLOOR, (
        f"warm disk cache only {disk_speedup:.2f}x vs cold "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    return payload


def test_hotpath(capsys):
    payload = run_benchmark()
    with capsys.disabled():
        print("\n" + json.dumps(payload["speedups"], indent=2))


def _round(totals):
    return {
        k: (round(v, 4) if isinstance(v, float) else v)
        for k, v in totals.items()
    }


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2, sort_keys=True))
