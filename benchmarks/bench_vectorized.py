"""Vectorized backend — reference engine vs. chunk kernels, bit-identical.

One sweep over the vectorizable workloads (the Gordon–Katz 1/p protocols
under the worst-case known-output stopper, and the single-round /
gradual-release strawmen under lock-watching aborters), executed twice:

1. **reference** — the ``engine.execution`` state machine, one run at a
   time (``--backend reference``).
2. **vectorized** — the chunk kernels in ``repro.runtime.vectorized``,
   which compute each run's event in closed form (``--backend
   vectorized``, forced so an eligibility regression fails loudly
   instead of quietly measuring the reference engine twice).

Each workload runs as one wide serial chunk.  A second pass, the *lane
sweep*, times each kernel against the reference engine on one serial
chunk per width in :data:`SWEEP_LANES`, and records each kernel's
break-even width: the narrowest swept width from which on the kernel
never loses.  The sweep is the evidence that ``--backend auto`` may hand
chunks of every width to their kernel, down to the 16-run chunks the
pool and service venues cut.

Bit-identity is asserted unconditionally: every task's event counts and
corruption counts must match exactly, run for run, at every swept width.
The wall-clock verdicts are asserted at the ``large`` budget (the
committed artifact): the wide-chunk aggregate is vectorized ≥ 10×
reference, and every kernel beats the reference engine at every swept
width.  The ``small`` budget (CI's perf-smoke lane) records the numbers
and still asserts bit-identity, but skips the timing asserts since
single samples on a shared runner are noise.  Results are written to
``BENCH_vectorized.json`` at the repo root.

Runnable standalone (``python benchmarks/bench_vectorized.py [--budget
small|large]``, default large) or under pytest (budget from
``REPRO_BENCH_BUDGET``, default small).
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.adversaries import KnownOutputStopper, LockWatchingAborter, fixed
from repro.functions import make_and
from repro.protocols import (
    GordonKatzProtocol,
    GradualReleaseProtocol,
    SingleRoundProtocol,
)
from repro.runtime import ExecutionTask, SerialRunner, usable_cpus
from repro.runtime.vectorized import kernel_for
from repro.verify.claims import constant_inputs

SPEEDUP_FLOOR = 10.0

#: Chunk widths of the lane sweep, in runs (16 is the width of pool and
#: service chunks).
SWEEP_LANES = (8, 16, 24, 32, 40, 48, 64, 96, 128, 160, 256)

#: Timed repeats per sweep point at each budget (the median is kept).
SWEEP_REPEATS = {"small": 1, "large": 5}

#: Runs per workload at the ``large`` budget; ``small`` divides by 8.
LARGE_RUNS = {
    "gordon-katz-p2": 2400,
    "gordon-katz-p4": 1200,
    "single-round": 1200,
    "gradual-release": 1200,
}

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_vectorized.json"


def _combos():
    known = fixed(
        "known-output", lambda: KnownOutputStopper(0, known_output=1)
    )
    lock0 = fixed("lock-watch[0]", lambda: LockWatchingAborter({0}))
    return {
        "gordon-katz-p2": (GordonKatzProtocol(make_and(), p=2), known),
        "gordon-katz-p4": (GordonKatzProtocol(make_and(), p=4), known),
        "single-round": (SingleRoundProtocol(make_and()), lock0),
        "gradual-release": (GradualReleaseProtocol(make_and()), lock0),
    }


def _task(protocol, factory, n_runs, seed):
    return ExecutionTask(
        protocol,
        factory,
        n_runs,
        seed=seed,
        input_sampler=constant_inputs((1, 1)),
    )


def _workloads(scale: int):
    return [
        (
            name,
            _task(
                protocol,
                factory,
                max(1, LARGE_RUNS[name] // scale),
                ("bench-vectorized", name),
            ),
        )
        for name, (protocol, factory) in _combos().items()
    ]


def _sweep(backend: str, scale: int):
    runner = SerialRunner(cache=None, backend=backend)
    t0 = time.perf_counter()
    results = {}
    vectorized_runs = 0
    for name, task in _workloads(scale):
        results[name] = runner.run_one(task)
        vectorized_runs += runner.last_stats.vectorized_runs
    return results, time.perf_counter() - t0, vectorized_runs


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, 1000.0 * (time.perf_counter() - t0)


def _break_even(points):
    """Narrowest swept width from which on the kernel never loses, or
    ``None`` when it loses at the widest."""
    width = None
    for point in reversed(points):
        if point["kernel_ms"] > point["reference_ms"]:
            break
        width = point["lanes"]
    return width


def _lane_sweep(repeats: int):
    """Kernel vs reference ms on one serial chunk per swept width."""
    sweep = {}
    for name, (protocol, factory) in _combos().items():
        points = []
        for lanes in SWEEP_LANES:
            task = _task(
                protocol, factory, lanes,
                ("bench-vectorized-sweep", name, lanes),
            )
            # Building the kernel is a once-per-task cost; keep it out of
            # the per-chunk timing.
            kernel = kernel_for(task)
            assert kernel is not None, f"{name}: no kernel matched"
            kernel_ms, reference_ms = [], []
            for _ in range(repeats):
                vec, ms = _timed(kernel, 0, lanes)
                kernel_ms.append(ms)
                ref, ms = _timed(task.run_chunk, 0, lanes)
                reference_ms.append(ms)
                assert ref.counts == vec.counts, (
                    f"{name} at {lanes} lanes: event counts diverged"
                )
                assert ref.corruption_counts == vec.corruption_counts, (
                    f"{name} at {lanes} lanes: corruption counts diverged"
                )
            points.append({
                "lanes": lanes,
                "kernel_ms": round(statistics.median(kernel_ms), 2),
                "reference_ms": round(statistics.median(reference_ms), 2),
            })
        sweep[name] = {
            "break_even_lanes": _break_even(points),
            "points": points,
        }
    return sweep


def _check_kernels_win(sweep):
    for name, result in sweep.items():
        for point in result["points"]:
            assert point["kernel_ms"] < point["reference_ms"], (
                f"{name}: the kernel loses at {point['lanes']} lanes "
                f"({point['kernel_ms']} vs {point['reference_ms']} ms)"
            )


def run_benchmark(budget: str = "large"):
    if budget not in ("small", "large"):
        raise SystemExit(f"unknown budget {budget!r}; use small or large")
    scale = 1 if budget == "large" else 8
    cpus = usable_cpus()

    ref_results, ref_s, ref_vec_runs = _sweep("reference", scale)
    vec_results, vec_s, vec_runs = _sweep("vectorized", scale)

    # Bit-identity is the backend's contract — asserted at every budget.
    assert ref_vec_runs == 0, "reference pass used the vectorized engine"
    total_runs = 0
    for name, ref in ref_results.items():
        vec = vec_results[name]
        assert ref.counts == vec.counts, f"{name}: event counts diverged"
        assert ref.corruption_counts == vec.corruption_counts, (
            f"{name}: corruption counts diverged"
        )
        total_runs += ref.total
    assert vec_runs == total_runs, "vectorized pass fell back somewhere"

    speedup = ref_s / max(vec_s, 1e-9)
    asserted = budget == "large"
    sweep = _lane_sweep(SWEEP_REPEATS[budget])
    payload = {
        "workload": {
            "runs": {
                name: max(1, LARGE_RUNS[name] // scale)
                for name in LARGE_RUNS
            },
            "total_runs": total_runs,
        },
        "budget": budget,
        "cpus": cpus,
        "passes": {
            "reference": {
                "wall_s": round(ref_s, 4),
                "ms_per_run": round(1000.0 * ref_s / total_runs, 4),
                "cpus": cpus,
            },
            "vectorized": {
                "wall_s": round(vec_s, 4),
                "ms_per_run": round(1000.0 * vec_s / total_runs, 4),
                "cpus": cpus,
                "vectorized_runs": vec_runs,
            },
        },
        "speedup_vectorized_vs_reference": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_met": speedup >= SPEEDUP_FLOOR,
        "asserted": asserted,
        "bit_identical": True,
        "lane_sweep": {
            "repeats": SWEEP_REPEATS[budget],
            "kernels": sweep,
        },
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if asserted:
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized backend only {speedup:.2f}x vs reference "
            f"(floor {SPEEDUP_FLOOR}x at budget=large)"
        )
        _check_kernels_win(sweep)
    return payload


def test_vectorized_speedup(capsys):
    budget = os.environ.get("REPRO_BENCH_BUDGET", "small")
    payload = run_benchmark(budget)
    with capsys.disabled():
        print(
            "\nvectorized vs reference: "
            f"{payload['speedup_vectorized_vs_reference']}x "
            f"(budget={payload['budget']}, "
            f"asserted={payload['asserted']})"
        )


if __name__ == "__main__":
    budget = "large"
    argv = sys.argv[1:]
    if argv[:1] == ["--budget"] and len(argv) > 1:
        budget = argv[1]
    elif argv and argv[0].startswith("--budget="):
        budget = argv[0].split("=", 1)[1]
    print(json.dumps(run_benchmark(budget), indent=2, sort_keys=True))
