"""Vectorized backend — reference engine vs. NumPy kernels, bit-identical.

One sweep over the vectorizable workloads (the Gordon–Katz 1/p protocols
under the worst-case known-output stopper, and the single-round /
gradual-release strawmen under lock-watching aborters), executed twice:

1. **reference** — the ``engine.execution`` state machine, one run at a
   time (``--backend reference``).
2. **vectorized** — the NumPy kernels in ``repro.runtime.vectorized``,
   whole chunks as array operations (``--backend vectorized``, forced so
   an eligibility regression fails loudly instead of quietly measuring
   the reference engine twice).

Each workload runs as one wide serial chunk, where the kernels win.  A
second pass, the *lane sweep*, times each kernel against the reference
engine on one serial chunk per width in :data:`SWEEP_LANES`, and records
each kernel's break-even width: the narrowest swept width from which on
the kernel never loses.  The sweep is the evidence for the crossover
width a kernel declares (``kernel.min_lanes``), below which
``--backend auto`` runs a chunk on the reference engine.

Bit-identity is asserted unconditionally: every task's event counts and
corruption counts must match exactly, run for run, at every swept width.
The wall-clock verdicts are asserted at the ``large`` budget (the
committed artifact): the wide-chunk aggregate is vectorized ≥ 10×
reference, and each Gordon–Katz kernel loses at 16 lanes and does not
lose at its declared crossover width.  The ``small`` budget (CI's
perf-smoke lane) records the numbers and still asserts bit-identity, but
skips the timing asserts since single samples on a shared runner are
noise.  Results are written to ``BENCH_vectorized.json`` at the repo
root.

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

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.adversaries import KnownOutputStopper, LockWatchingAborter, fixed
from repro.functions import make_and
from repro.protocols import (
    GordonKatzProtocol,
    GradualReleaseProtocol,
    SingleRoundProtocol,
)
from repro.runtime import HAVE_NUMPY, ExecutionTask, SerialRunner
from repro.runtime.vectorized import kernel_for
from repro.verify.claims import constant_inputs

SPEEDUP_FLOOR = 10.0

#: Chunk widths of the lane sweep, in runs (40 is the Gordon–Katz
#: kernel's declared crossover).
SWEEP_LANES = (8, 16, 24, 32, 40, 48, 64, 96, 128, 160, 256)

#: Timed repeats per sweep point at each budget (the median is kept).
SWEEP_REPEATS = {"small": 1, "large": 5}

#: Sweep workloads asserted, at the large budget, to lose at 16 lanes:
#: the width of pool, distributed and service chunks.
GK_WORKLOADS = ("gordon-katz-p2", "gordon-katz-p4")

#: The sweep workload asserted not to lose at its kernel's crossover
#: width.  It is E12's configuration, whose 40-lane serial batch caps the
#: crossover; p=2 breaks even only between 40 and 48 lanes (see the
#: artifact's ``break_even_lanes``), so no width at or below that cap
#: can be asserted for it.
CROSSOVER_WORKLOAD = "gordon-katz-p4"

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
        min_lanes = None
        for lanes in SWEEP_LANES:
            task = _task(
                protocol, factory, lanes,
                ("bench-vectorized-sweep", name, lanes),
            )
            # Building the kernel is a once-per-task cost; keep it out of
            # the per-chunk timing.
            kernel = kernel_for(task)
            assert kernel is not None, f"{name}: no kernel matched"
            min_lanes = getattr(kernel, "min_lanes", 1)
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
            "min_lanes": min_lanes,
            "break_even_lanes": _break_even(points),
            "points": points,
        }
    return sweep


def _point(sweep, name, lanes):
    return next(p for p in sweep[name]["points"] if p["lanes"] == lanes)


def _check_crossovers(sweep):
    for name in GK_WORKLOADS:
        narrow = _point(sweep, name, 16)
        assert narrow["kernel_ms"] > narrow["reference_ms"], (
            f"{name}: the kernel wins at 16 lanes "
            f"({narrow['kernel_ms']} vs {narrow['reference_ms']} ms), "
            "so its crossover width is too high"
        )
    min_lanes = sweep[CROSSOVER_WORKLOAD]["min_lanes"]
    at = _point(sweep, CROSSOVER_WORKLOAD, min_lanes)
    assert at["kernel_ms"] <= at["reference_ms"], (
        f"{CROSSOVER_WORKLOAD}: the kernel loses at its crossover width "
        f"{min_lanes} ({at['kernel_ms']} vs {at['reference_ms']} ms)"
    )


def run_benchmark(budget: str = "large"):
    if not HAVE_NUMPY:
        raise SystemExit(
            "bench_vectorized needs numpy (the reference engine still "
            "works without it; there is just nothing to benchmark)"
        )
    if budget not in ("small", "large"):
        raise SystemExit(f"unknown budget {budget!r}; use small or large")
    scale = 1 if budget == "large" else 8
    cpus = os.cpu_count() or 1

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
        _check_crossovers(sweep)
    return payload


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
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
